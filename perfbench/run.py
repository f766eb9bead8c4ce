"""roughmerton benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is used from ``src/`` as it is.
``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, the workload's sizes
and every metric by name with its unit.

``--trace 0`` reports the end-to-end metrics, from untraced runs:
``wall_s`` and ``cpu_s`` (median over passes), ``peak_rss_mb`` of the
workload's process, and ``setup_s`` (median of five fresh interpreters,
after one that is not timed).  ``--trace 1`` spends half of ``--seconds``
on an untraced run and half on a traced one, and reports the per-layer
metrics (see NOTES.md).  Every child process gets one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
SETUP_SAMPLES = 5
# The whole run must end within 180 s; a child still running then is killed.
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def metric_units(trace: int) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order: end_to_end for an
    untraced run, per_layer for a traced one."""
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def l3_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_child(argv: list, deadline: float) -> str:
    """Run a child python with the benchmark's environment; return its stdout."""
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(deadline: float) -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    run_child([probe, workloads.PACKAGED_CONFIG], deadline)  # fills the bytecode cache
    return [float(run_child([probe, workloads.PACKAGED_CONFIG], deadline)) for _ in range(SETUP_SAMPLES)]


def run_worker(name, seed, seconds, trace, run_dir, deadline) -> dict:
    out = run_child(
        [os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace), "--run-dir", run_dir],
        deadline,
    )
    return json.loads(out.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workload = workloads.WORKLOADS[name]
    run_dir = os.path.join(RUNS_DIR, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        if trace:
            plain = run_worker(name, seed, seconds / 2, 0, os.path.join(run_dir, "plain"), deadline)
            traced = run_worker(name, seed, seconds / 2, 1, os.path.join(run_dir, "traced"), deadline)
            children = [plain, traced]
        else:
            setup = setup_seconds(deadline)
            plain = run_worker(name, seed, seconds, 0, run_dir, deadline)
            children = [plain]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    all_passes = [p for child in children for p in child["passes"]]
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    walls = [p["wall_s"] for p in plain["passes"]]
    cpus = [p["cpu_s"] for p in plain["passes"]]
    if trace:
        path_steps = workloads.sizes(workload, None).get("asset_path_steps_per_pass", 0)
        metrics = {
            key: median([p["layers"][key] for p in traced["passes"]])
            for key in traced["passes"][0]["layers"]
        }
        metrics.update({
            "verify.value_se": median([p["value_se"] for p in all_passes]),
            "verify.gates_failed": sum(p["gates_failed"] for p in all_passes),
            "verify.gates_attempted": sum(p["gates_attempted"] for p in all_passes),
            "cli.bytes_written": median([p["bytes_written"] for p in all_passes]),
            "path_steps_per_s": path_steps / median(walls),
            "err_cpu": median([p["value_se"] ** 2 * p["cpu_s"] for p in plain["passes"]]),
            "failed_frac": failed / attempted,
            "trace_overhead_s": median([p["wall_s"] for p in traced["passes"]]) - median(walls),
        })
    else:
        metrics = {
            "wall_s": median(walls),
            "cpu_s": median(cpus),
            "peak_rss_mb": plain["peak_rss_mb"],
            "setup_s": median(setup),
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": [len(c["passes"]) for c in children],
        "pass_wall_s": [[p["wall_s"] for p in c["passes"]] for c in children],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for pass_ in all_passes for p in pass_["problems"]][:20],
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in metric_units(trace).items()},
        "env": plain["env"],
        "last_pass_spans": traced["last_pass_spans"] if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "roughmerton", "cli.py")):
        print("run from the repository root: src/roughmerton is missing", file=sys.stderr)
        return 2
    start = time.monotonic()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    l3 = l3_bytes()
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "blas_threads_set": BLAS_THREADS,
        "seed": args.seed,
        "git_commit": git_commit(),
    }
    results = []
    for name in names:
        deadline = start + DEADLINE_S * (len(results) + 1)
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        result["env"] = {**env, **result["env"]}
        result["sizes"] = workloads.sizes(workloads.WORKLOADS[name], l3)
        results.append(result)
        os.makedirs(os.path.join(RUNS_DIR, "results"), exist_ok=True)
        with open(os.path.join(RUNS_DIR, "results", f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=1)
        print(f"env {json.dumps(result['env'], sort_keys=True)}")
        print(f"sizes {name} {json.dumps(result['sizes'], sort_keys=True)}")
        for problem in result["problems"]:
            print(f"failed {name} {json.dumps(problem)}")
        for key, m in result["metrics"].items():
            print(f"metric {name} {key} {m['value']!r} {m['unit']}")

    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{key}" if prefix else key): m for r in results for key, m in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
