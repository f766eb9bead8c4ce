"""Guard against unintended numeric drift in the analytic subcommands.

``stabilizer``, ``riccati``, ``strategy`` and ``value`` run on the packaged
config with each utility; every 10th row and the last row of each CSV, and
all of ``value.json``, must match ``data/analytic_outputs.json`` to rtol 1e-12.
A change that moves these outputs on purpose regenerates the reference with

    PYTHONPATH=src python tests/test_output_drift.py tests/data/analytic_outputs.json

and says in its change notes by how much they moved.
"""

import json
import os
import sys
import tempfile

import numpy as np
import pytest

from roughmerton.cli import main

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "analytic_outputs.json")
SUBCOMMANDS = ("stabilizer", "riccati", "strategy", "value")
UTILITIES = ("power", "exponential")
RTOL = 1e-12


def sampled_outputs(out_dir: str, utility: str) -> dict:
    """Run the analytic subcommands into ``out_dir``; sampled CSV rows and value.json."""
    for sub in SUBCOMMANDS:
        if main([sub, "--utility", utility, "--out", out_dir]) != 0:
            raise RuntimeError(f"{sub} --utility {utility} failed")
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
            keep = sorted(set(range(0, len(rows), 10)) | {len(rows) - 1})
            outputs[name] = rows[keep].tolist()
        elif name == "value.json":
            with open(path) as fh:
                outputs[name] = {k: v for k, v in json.load(fh).items() if k != "_meta"}
    return outputs


@pytest.mark.parametrize("utility", UTILITIES)
def test_analytic_outputs_match_reference(tmp_path, utility):
    with open(REFERENCE) as fh:
        ref = json.load(fh)[utility]
    got = sampled_outputs(str(tmp_path), utility)
    assert sorted(got) == sorted(ref)
    for name, rows in ref.items():
        if name == "value.json":
            value = got[name]
            assert value["utility"] == rows["utility"] and value["x0"] == rows["x0"]
            assert sorted(value["values"]) == sorted(rows["values"])
            for key, val in rows["values"].items():
                assert value["values"][key] == pytest.approx(val, rel=RTOL, abs=0.0), key
        else:
            np.testing.assert_allclose(np.array(got[name]), np.array(rows), rtol=RTOL, atol=0.0, err_msg=name)


if __name__ == "__main__":
    reference = {}
    for util in UTILITIES:
        with tempfile.TemporaryDirectory() as tmp:
            reference[util] = sampled_outputs(tmp, util)
    with open(sys.argv[1], "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
