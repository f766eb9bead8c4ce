"""One workload run in its own process, so that peak memory is per workload.

Calls ``roughmerton.cli.main`` in a closed loop, one invocation at a time,
pass after pass, until the next pass would end past ``--seconds``.  Only the
``main`` calls are timed; writing configs and checking outputs are not.
With ``--trace 1`` the layers' public functions are wrapped (spans.py),
each pass also reports per-layer numbers, and the last pass's spans
``[name, start, end, parent]`` are returned.  Prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --run-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import warnings

import checks
import spans
import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_reference.json")


def os_threads() -> int | None:
    """Threads of this process, as the kernel counts them."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """BLAS build of numpy, and the threads this process holds after a product
    large enough to start OpenBLAS's pool."""
    import numpy as np

    a = np.ones((512, 512))
    a @ a
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "os_threads_after_matmul": os_threads(),
    }


def call_main(main, argv, rec):
    """Run one invocation; returns (wall, cpu, repr of escaped exception, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    raised, n_warn = None, 0
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if rec is not None:
            from scipy.integrate import IntegrationWarning

            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always", IntegrationWarning)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            main(list(argv))
        except (Exception, SystemExit) as exc:  # counted as a failed invocation
            raised = repr(exc)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if rec is not None:
            n_warn = sum(1 for w in caught if issubclass(w.category, IntegrationWarning))
    return wall, cpu, raised, err.getvalue(), n_warn


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def layer_metrics(rec: spans.Recorder) -> dict:
    """Per-layer numbers of one pass.  Every ``_s`` value is self time: time in
    that layer's code, less the traced calls it made into other layers."""
    names = spans.by_name(rec.spans)
    counts = rec.counts

    def n(name):
        return names.get(name, (0, 0.0))[0]

    def own(name):
        return names.get(name, (0, 0.0))[1]

    def layer(prefix):
        return sum(s for name, (_, s) in names.items() if name.startswith(prefix + "."))

    builds = n("simulate.factor")
    path_steps = counts.get("simulate.path_steps", 0.0)
    return {
        "kernels.busy_s": layer("kernels"),
        "kernels.quad_calls": counts.get("kernels.quad_calls", 0.0),
        "kernels.integration_warnings": counts.get("kernels.integration_warnings", 0.0),
        "stabilizer.builds": n("stabilizer.build"),
        "stabilizer.self_s": layer("stabilizer"),
        "stabilizer.residual_s": own("stabilizer.residual"),
        "simulate.factor_builds": builds,
        "simulate.factor_s": own("simulate.factor"),
        "simulate.factor_rank": counts.get("simulate.factor_rank_sum", 0.0) / builds if builds else 0.0,
        "simulate.paths_s": own("simulate.paths"),
        "simulate.ns_per_path_step": own("simulate.paths") * 1e9 / path_steps if path_steps else 0.0,
        "simulate.flops_computed": counts.get("simulate.flops_computed", 0.0),
        "simulate.bytes_computed": counts.get("simulate.bytes_computed", 0.0),
        "simulate.bundle_mb": counts.get("simulate.bundle_bytes", 0.0) / 1e6,
        "riccati.solves": n("riccati.solve"),
        "riccati.steps": counts.get("riccati.steps", 0.0),
        "riccati.busy_s": layer("riccati"),
        "strategy.calls": sum(c for name, (c, _) in names.items() if name.startswith("strategy.")),
        "strategy.busy_s": layer("strategy"),
        "verify.wealth_runs": n("verify.wealth"),
        "verify.wealth_s": own("verify.wealth"),
        "verify.optimality_s": own("verify.optimality"),
        "verify.profile_s": own("verify.profile"),
        "verify.stationarity_s": own("verify.stationarity"),
        "cli.self_s": own("cli.main"),
    }


def run_pass(main, rec, invocations, references, first_gamma) -> dict:
    """Run and check one pass; returns its timings, failures and gate counts."""
    if rec is not None:
        rec.reset()
    rec_pass = {"wall_s": 0.0, "cpu_s": 0.0, "attempted": 0, "failed": 0, "problems": [],
                "gates_attempted": 0, "gates_failed": 0, "value_se": 0.0, "bytes_written": 0}
    for inv in invocations:
        wall, cpu, raised, stderr, n_warn = call_main(main, inv.argv, rec)
        rec_pass["wall_s"] += wall
        rec_pass["cpu_s"] += cpu
        rec_pass["attempted"] += 1
        if rec is not None:
            rec.counts["kernels.integration_warnings"] += n_warn
        reference = None
        problems = []
        if inv.reference_key is not None:
            reference = references.get(inv.reference_key)
            if reference is None:
                problems.append(f"no stored reference for {inv.reference_key}")
        found, loaded = checks.check_invocation(inv, raised, stderr, reference)
        problems += found
        report = loaded.get("verify_report.json")
        if report is not None:
            gates = checks.verify_gates(report)
            rec_pass["gates_attempted"] += len(gates)
            rec_pass["gates_failed"] += sum(1 for ok in gates.values() if not ok)
            rec_pass["value_se"] = float(report["value_agreement"][first_gamma]["mc_se"])
        if os.path.isdir(inv.out_dir):
            rec_pass["bytes_written"] += dir_bytes(inv.out_dir)
        if problems:
            rec_pass["failed"] += 1
            rec_pass["problems"].append({"argv": list(inv.argv), "problems": problems})
    if rec is not None:
        rec_pass["layers"] = layer_metrics(rec)
    return rec_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    import numpy
    import scipy

    import roughmerton
    import roughmerton.cli

    src = os.path.abspath("src")
    if not os.path.abspath(roughmerton.__file__).startswith(src + os.sep):
        raise SystemExit(f"roughmerton imported from {roughmerton.__file__}, not from {src}")

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
    }
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
        main_fn = rec.wrap(roughmerton.cli.main, "cli.main")
    else:
        main_fn = roughmerton.cli.main

    with open(REFERENCE_PATH) as fh:
        references = json.load(fh)
    first_gamma = f"gamma_{workloads.load_packaged_config()['utility']['gamma'][0]:g}"

    passes = []
    start = time.perf_counter()
    while True:
        invocations = workloads.pass_invocations(workload, args.seed, len(passes), args.run_dir)
        passes.append(run_pass(main_fn, rec, invocations, references, first_gamma))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": env,
    }
    if rec is not None:
        result["last_pass_spans"] = rec.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
