"""Output checks: a CLI invocation counts as failed if it raised, wrote an error
JSON to stderr, left an expected file missing or non-finite, drifted from the
stored reference values, or (verify) put a Monte Carlo value outside a band
that chance does not reach.

The program's own verify gates, ``value_agreement`` included, are statistical:
each can fail by chance on a correct program (``value_agreement`` failed at
seed 13 of verify_fine, z = -2.57 at gamma 0.8).  They are counted as gates,
not as failed invocations.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Relative tolerance of the analytic-sweep references.  They were written by
# make_reference.py at the benchmark's parent commit; the analytic pipeline is
# deterministic, so anything beyond summation-order noise is a changed result.
REFERENCE_RTOL = 1e-6
# A verify invocation fails if |MC mean - analytic value| exceeds this many MC
# standard errors plus the program's default relative allowance (0.5%) of the
# analytic value: a correct program lands outside with probability ~2e-9.
MC_BAND_SE = 6.0
MC_BAND_REL = 0.005


class OutputError(ValueError):
    """An output file is missing, unreadable or holds a non-finite number."""


def _reject_constant(name):
    raise OutputError(f"non-finite JSON constant {name}")


def read_json(path: str):
    """Parse a JSON output, rejecting NaN, Infinity and overflowing numbers."""
    with open(path) as fh:
        payload = json.load(fh, parse_constant=_reject_constant)
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            raise OutputError(f"non-finite number in {path}")
    return payload


def read_csv(path: str) -> np.ndarray:
    """Numeric body of a CSV output ('#' header lines skipped); must be finite."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.size == 0:
        raise OutputError(f"{path} has no rows")
    if not np.all(np.isfinite(data)):
        raise OutputError(f"non-finite value in {path}")
    return data


def read_outputs(out_dir: str, expected) -> dict:
    """Load every expected file of one invocation, or raise ``OutputError``."""
    loaded = {}
    for name in expected:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            raise OutputError(f"missing output {name}")
        try:
            loaded[name] = read_json(path) if name.endswith(".json") else read_csv(path)
        except (OSError, ValueError) as exc:
            raise OutputError(f"unreadable output {name}: {exc}") from exc
    return loaded


def error_json(stderr: str) -> str | None:
    """The CLI's error report (a JSON object with an ``error`` key) on stderr, if any."""
    for line in stderr.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and "error" in obj:
                return line
    return None


def summary_values(loaded: dict) -> dict:
    """Named numbers compared against the references: every value in
    value.json or analytic value in verify_report.json, the last row of
    stabilizer.csv and riccati.csv (time T), and the first row of each
    strategy CSV (time 0)."""
    out = {}
    for name, data in sorted(loaded.items()):
        if name == "value.json":
            for key, val in data["values"].items():
                out[f"value.{key}"] = float(val)
        elif name in ("stabilizer.csv", "riccati.csv"):
            for j, val in enumerate(data[-1, 1:]):
                out[f"{name}.last.{j}"] = float(val)
        elif name == "verify_report.json":
            for key, val in data["value_agreement"].items():
                out[f"value.{key}"] = float(val["analytic"])
        elif name.startswith("strategy_"):
            for j, val in enumerate(data[0, 1:]):
                out[f"{name}.first.{j}"] = float(val)
    return out


def reference_mismatches(values: dict, reference: dict, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Names whose value is missing or differs from the reference by more than rtol."""
    bad = []
    for name, want in reference.items():
        got = values.get(name)
        if got is None or abs(got - want) > rtol * abs(want):
            bad.append(f"{name}: got {got!r}, reference {want!r}")
    return bad


def mc_band_violations(report: dict) -> list[str]:
    """Gammas whose Monte Carlo value lies outside the band chance does not reach."""
    bad = []
    for key, v in report["value_agreement"].items():
        band = MC_BAND_SE * v["mc_se"] + MC_BAND_REL * abs(v["analytic"])
        if not abs(v["mc_mean"] - v["analytic"]) <= band:
            bad.append(f"{key}: MC mean {v['mc_mean']!r} is outside analytic {v['analytic']!r} +- {band!r}")
    return bad


def verify_gates(report: dict) -> dict:
    """Pass/fail of each verify gate: value agreement per gamma, optimality,
    martingale profile and stationarity."""
    gates = {f"value_agreement.{g}": bool(v["passed"]) for g, v in report["value_agreement"].items()}
    for name in ("optimality", "martingale_profile", "stationarity"):
        gates[name] = bool(report[name]["passed"])
    return gates


def check_invocation(inv, raised, stderr, reference) -> tuple[list[str], dict]:
    """Problems that fail one invocation, and the loaded outputs.

    ``raised`` is the repr of an exception that escaped the CLI, or None;
    ``reference`` maps summary names to values for this invocation, or None.
    """
    if raised is not None:
        return [f"raised {raised}"], {}
    err = error_json(stderr)
    if err is not None:
        return [f"error on stderr: {err}"], {}
    try:
        loaded = read_outputs(inv.out_dir, inv.expected)
    except OutputError as exc:
        return [str(exc)], {}
    problems = []
    report = loaded.get("verify_report.json")
    if report is not None:
        problems += mc_band_violations(report)
    if reference is not None:
        problems += reference_mismatches(summary_values(loaded), reference)
    return problems, loaded
