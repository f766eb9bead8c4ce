"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib
import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    s = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union [1, 6] is covered once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # clipped to the parent's end
    ]
    assert spans.self_times(s) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_recorder_nests_spans_and_sums_self_time_by_name():
    ticks = itertools.count()
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap(lambda: None, "kernels.leaf")
    mid = rec.wrap(lambda: (leaf(), leaf()), "stabilizer.mid")
    root = rec.wrap(lambda: mid(), "cli.main")
    root()
    # clock reads: root 0, mid 1, leaf 2-3, leaf 4-5, mid ends 6, root ends 7
    assert [sp[3] for sp in rec.spans] == [-1, 0, 1, 1]
    totals = spans.by_name(rec.spans)
    assert totals["cli.main"] == (1, pytest.approx(2.0))
    assert totals["stabilizer.mid"] == (1, pytest.approx(3.0))
    assert totals["kernels.leaf"] == (2, pytest.approx(2.0))
    assert sum(s for _, s in totals.values()) == pytest.approx(7.0)


def _loop_counts(ranks, n, m):
    """Flops and bytes of simulate_variance's inner loop, step by step."""
    flops = nbytes = 0
    for q in ranks:
        for ell in range(1, n + 1):
            g_rows, acc_rows = n - ell + 2, n - ell + 1
            flops += 2 * q * g_rows * m + 2 * acc_rows * m
            nbytes += 8 * m * (g_rows + 3 * acc_rows + 2 * q)
    return flops, nbytes


@pytest.mark.parametrize("ranks,n,m", [([1], 1, 1), ([2, 3], 4, 5), ([5, 6], 7, 3)])
def test_computed_flops_and_bytes_match_the_loop(ranks, n, m):
    flops, nbytes = _loop_counts(ranks, n, m)
    assert workloads.simulate_flops(ranks, n, m) == flops
    assert workloads.simulate_bytes(ranks, n, m) == nbytes


def test_traced_simulation_counts_work_on_a_tiny_grid():
    from roughmerton.simulate import ModelParams, SimGrid, integral_factor
    from roughmerton.stabilizer import build_stabilizer

    params = ModelParams(alpha=[0.9, 0.6], lam=[0.2, 0.6], nu=[0.4, 0.2], theta=[0.1, 0.1],
                         rho=[-0.7, -0.55], mu0=[0.2, 0.25], c=[0.01, 0.03], T=1.0, gamma=0.2)
    grid = SimGrid(1.0, 6)
    tabs = [build_stabilizer(params.kernel_spec(i), params.c[i], grid.times) for i in range(2)]
    ranks = [integral_factor(params.kernel_spec(i), grid.dt, 6).shape[1] for i in range(2)]
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        cli = importlib.import_module("roughmerton.cli")
        bundle = cli.simulate_variance(params, tabs, grid, 7, 3, block_size=4)
    finally:
        undo()
    names = spans.by_name(rec.spans)
    assert names["simulate.paths"][0] == 1
    assert names["simulate.factor"][0] == 2
    assert rec.counts["simulate.factor_rank_sum"] == sum(ranks)
    assert rec.counts["simulate.path_steps"] == 2 * 7 * 6
    assert rec.counts["simulate.flops_computed"] == workloads.simulate_flops(ranks, 6, 7)
    assert rec.counts["simulate.bytes_computed"] == workloads.simulate_bytes(ranks, 6, 7)
    assert rec.counts["simulate.bundle_bytes"] == sum(
        a.nbytes for a in (bundle.V, bundle.dB, bundle.dBperp, bundle.v0)
    )


def test_install_wraps_every_trace_point_and_undo_restores_it():
    originals = {}
    for mod_name, attr, _ in spans.TRACE_POINTS:
        mod = importlib.import_module(mod_name)
        originals[(mod_name, attr)] = getattr(mod, attr)
    undo = spans.install(spans.Recorder())
    try:
        for (mod_name, attr), fn in originals.items():
            wrapped = getattr(importlib.import_module(mod_name), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    finally:
        undo()
    for (mod_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod_name), attr) is fn


def _invocation(tmp_path, expected):
    return workloads.Invocation(("value",), str(tmp_path), tuple(expected))


def _write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("# columns=t,x\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


def test_checker_accepts_finite_outputs(tmp_path):
    _write_csv(tmp_path / "a.csv", [(0.0, 1.0), (1.0, 2.0)])
    (tmp_path / "b.json").write_text(json.dumps({"x": [1.0, 2.0], "ok": True}))
    problems, loaded = checks.check_invocation(_invocation(tmp_path, ["a.csv", "b.json"]), None, "", None)
    assert problems == []
    assert set(loaded) == {"a.csv", "b.json"}


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_checker_rejects_non_finite_csv(tmp_path, bad):
    _write_csv(tmp_path / "a.csv", [(0.0, 1.0), (1.0, bad)])
    problems, _ = checks.check_invocation(_invocation(tmp_path, ["a.csv"]), None, "", None)
    assert problems and "non-finite" in problems[0]


@pytest.mark.parametrize("text", ['{"x": NaN}', '{"x": [1.0, Infinity]}', '{"x": 1e999}'])
def test_checker_rejects_non_finite_json(tmp_path, text):
    (tmp_path / "b.json").write_text(text)
    problems, _ = checks.check_invocation(_invocation(tmp_path, ["b.json"]), None, "", None)
    assert problems and "non-finite" in problems[0]


def test_checker_rejects_missing_file(tmp_path):
    _write_csv(tmp_path / "a.csv", [(0.0, 1.0)])
    problems, _ = checks.check_invocation(_invocation(tmp_path, ["a.csv", "value.json"]), None, "", None)
    assert problems == ["missing output value.json"]


def test_checker_rejects_error_json_and_exceptions(tmp_path):
    inv = _invocation(tmp_path, [])
    stderr = 'some warning\n{"error": "ConfigError", "message": "bad"}\n'
    assert checks.check_invocation(inv, None, stderr, None)[0][0].startswith("error on stderr")
    assert checks.check_invocation(inv, "ValueError('x')", "", None)[0] == ["raised ValueError('x')"]


def test_checker_compares_against_reference(tmp_path):
    (tmp_path / "value.json").write_text(json.dumps({"values": {"gamma_0.5": 2.0}}))
    inv = _invocation(tmp_path, ["value.json"])
    assert checks.check_invocation(inv, None, "", {"value.gamma_0.5": 2.0 * (1 + 1e-9)})[0] == []
    problems, _ = checks.check_invocation(inv, None, "", {"value.gamma_0.5": 2.1})
    assert problems and problems[0].startswith("value.gamma_0.5")


def _verify_report(mc_mean, passed):
    entry = {"mc_mean": mc_mean, "mc_se": 0.01, "analytic": 1.0, "passed": passed}
    return {
        "value_agreement": {"gamma_0.2": dict(entry, mc_mean=1.0, passed=True), "gamma_0.5": entry},
        "optimality": {"passed": True},
        "martingale_profile": {"passed": True},
        "stationarity": {"passed": False},
    }


def test_failed_gates_are_counted_but_do_not_fail_the_invocation(tmp_path):
    report = _verify_report(1.03, passed=False)  # 3 SE off: a chance gate failure
    (tmp_path / "verify_report.json").write_text(json.dumps(report))
    problems, _ = checks.check_invocation(_invocation(tmp_path, ["verify_report.json"]), None, "", None)
    assert problems == []
    gates = checks.verify_gates(report)
    assert len(gates) == 5 and sum(not ok for ok in gates.values()) == 2


def test_mc_value_outside_the_band_fails_the_invocation(tmp_path):
    # band = 6 SE + 0.5% of the analytic value = 0.065
    (tmp_path / "verify_report.json").write_text(json.dumps(_verify_report(1.066, passed=False)))
    problems, _ = checks.check_invocation(_invocation(tmp_path, ["verify_report.json"]), None, "", None)
    assert len(problems) == 1 and problems[0].startswith("gamma_0.5: MC mean 1.066")


def test_sweep_inputs_depend_on_seed_only_through_order(tmp_path):
    sweep = workloads.WORKLOADS["analytic_sweep"]
    a = workloads.pass_invocations(sweep, 1, 0, str(tmp_path / "a"))
    b = workloads.pass_invocations(sweep, 2, 0, str(tmp_path / "b"))
    again = workloads.pass_invocations(sweep, 1, 0, str(tmp_path / "c"))
    assert len(a) == 72
    assert [i.reference_key for i in a] == [i.reference_key for i in again]
    assert [i.reference_key for i in a] != [i.reference_key for i in b]
    assert sorted(i.reference_key for i in a) == sorted(i.reference_key for i in b)
    with open(os.path.join(BENCH, "sweep_reference.json")) as fh:
        assert set(json.load(fh)) == {i.reference_key for i in a}
