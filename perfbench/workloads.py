"""The benchmark's workloads: the CLI invocations of each pass, made from the seed.

Every workload starts from the packaged ``two_asset.json`` config.  The
program only sees the config files written here and the command-line flags.

* ``verify_default``: ``roughmerton verify`` as shipped (10^4 paths x 600
  steps, block_size 25000, two bundles).  One invocation per pass; pass k
  runs with ``mc.seed = 1000 * seed + k``.
* ``verify_fine``: ``roughmerton verify --steps 2400 --paths 1000``, seeded
  the same way.
* ``analytic_sweep``: ``stabilizer``, ``riccati``, ``strategy`` and
  ``value`` on each of 18 configs (3 alpha pairs x 3 n_riccati x 2
  utilities), 72 invocations per pass.  The seed only shuffles the order of
  the configs, so the work, and every count, is the same for every seed.

Each invocation writes into its own new output directory.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

PACKAGED_CONFIG = os.path.join("src", "roughmerton", "data", "two_asset.json")

SWEEP_ALPHAS = ((0.9, 0.6), (0.75, 0.55), (0.95, 0.7))
SWEEP_N_RICCATI = (200, 800, 1600)
SWEEP_UTILITIES = (("power", (0.2, 0.5, 0.8)), ("exponential", (0.5, 1.0, 2.0)))
SWEEP_SUBCOMMANDS = ("stabilizer", "riccati", "strategy", "value")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, its fresh output directory and what it must write."""

    argv: tuple
    out_dir: str
    expected: tuple
    reference_key: str | None = None


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is in BENCHMARK.json and NOTES.md.
    ``paths`` and ``steps`` override the packaged config through CLI flags."""

    name: str
    mc: bool
    paths: int | None = None
    steps: int | None = None

    @property
    def flags(self) -> tuple:
        out = () if self.steps is None else ("--steps", str(self.steps))
        return out + (() if self.paths is None else ("--paths", str(self.paths)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_default", mc=True),
        Workload("verify_fine", mc=True, paths=1000, steps=2400),
        Workload("analytic_sweep", mc=False),
    )
}


def load_packaged_config() -> dict:
    with open(PACKAGED_CONFIG) as fh:
        return json.load(fh)


def expected_files(subcommand: str, kind: str, gammas) -> tuple:
    """Files a successful invocation of ``subcommand`` writes."""
    if subcommand == "stabilizer":
        return ("stabilizer.csv", "stabilizer_report.json")
    if subcommand == "riccati":
        return ("riccati.csv", "riccati_report.json")
    if subcommand == "strategy":
        return tuple(f"strategy_{kind}_gamma{g:g}.csv" for g in gammas)
    if subcommand == "value":
        return ("value.json",)
    if subcommand == "verify":
        return ("verify_profile.csv", "verify_report.json")
    raise ValueError(f"no expected files for {subcommand!r}")


def _write_json(path: str, payload: dict) -> str:
    """Write ``payload`` once; an existing file is left alone, because
    overwriting a file is far slower than creating one on some filesystems."""
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
    return path


def sweep_key(alphas, n_riccati: int, kind: str) -> str:
    return f"a{alphas[0]:g}-{alphas[1]:g}_n{n_riccati}_{kind}"


def sweep_configs(base: dict) -> dict:
    """The 18 sweep configs, keyed ``a<alpha1>-<alpha2>_n<n_riccati>_<kind>``."""
    out = {}
    for alphas in SWEEP_ALPHAS:
        for n_ric in SWEEP_N_RICCATI:
            for kind, gammas in SWEEP_UTILITIES:
                cfg = json.loads(json.dumps(base))
                cfg["model"]["alpha"] = list(alphas)
                cfg["grids"]["n_riccati"] = n_ric
                cfg["utility"] = {"kind": kind, "gamma": list(gammas)}
                out[sweep_key(alphas, n_ric, kind)] = cfg
    return out


def pass_invocations(workload: Workload, seed: int, k: int, run_dir: str) -> list[Invocation]:
    """The invocations of pass ``k``; the same (seed, k) gives the same inputs."""
    pass_dir = os.path.join(run_dir, f"p{k:04d}")
    base = load_packaged_config()
    if workload.mc:
        base["mc"]["seed"] = 1000 * seed + k
        cfg_path = _write_json(os.path.join(pass_dir, "config.json"), base)
        out = os.path.join(pass_dir, "out")
        argv = ("verify", "--config", cfg_path, "--out", out) + workload.flags
        # the analytic values are those of the sweep's run of the packaged config
        key = sweep_key(base["model"]["alpha"], base["grids"]["n_riccati"], base["utility"]["kind"])
        return [Invocation(argv, out, expected_files("verify", "", ()), f"{key}/value")]
    configs = sweep_configs(base)
    keys = sorted(configs)
    random.Random(1000 * seed + k).shuffle(keys)
    invs = []
    for key in keys:
        cfg = configs[key]
        cfg_path = _write_json(os.path.join(run_dir, "configs", f"{key}.json"), cfg)
        kind, gammas = cfg["utility"]["kind"], cfg["utility"]["gamma"]
        for sub in SWEEP_SUBCOMMANDS:
            out = os.path.join(pass_dir, f"{len(invs):02d}_{key}_{sub}")
            argv = (sub, "--config", cfg_path, "--out", out)
            invs.append(Invocation(argv, out, expected_files(sub, kind, gammas), f"{key}/{sub}"))
    return invs


# Computed work of simulate_variance's inner loop, per asset with factor rank q,
# n steps and M paths (blocks only split M).  At step l = 1..n it draws
# xi (q x P), forms G = A[:n-l+2] @ xi and updates acc[l-1:] += u * G[1:]:
#   S_G   = sum_l (n - l + 2) = n (n + 3) / 2     rows of G over all steps
#   S_acc = sum_l (n - l + 1) = n (n + 1) / 2     rows of acc updated
#   flops = M (2 q S_G + 2 S_acc)                 matmul multiply-adds, then mul + add
#   bytes = 8 M (S_G + 3 S_acc + 2 q n)           write G, read G[1:], read + write acc,
#                                                 write + read xi
# O(n M) terms (sqrt, max, h, dW, dB) are left out.  Bytes are computed from
# array sizes and ignore caches: they are the traffic if nothing stayed in cache.


def simulate_flops(ranks, n: int, m: int) -> float:
    s_g, s_acc = n * (n + 3) / 2, n * (n + 1) / 2
    return float(sum(m * (2 * q * s_g + 2 * s_acc) for q in ranks))


def simulate_bytes(ranks, n: int, m: int) -> float:
    s_g, s_acc = n * (n + 3) / 2, n * (n + 1) / 2
    return float(sum(8 * m * (s_g + 3 * s_acc + 2 * q * n) for q in ranks))


def sizes(workload: Workload, l3_bytes: int | None) -> dict:
    """Paths, steps, blocks and the acc/G working set of one bundle, against L3."""
    base = load_packaged_config()
    if not workload.mc:
        n_configs = len(sweep_configs(base))
        return {"configs": n_configs, "invocations_per_pass": n_configs * len(SWEEP_SUBCOMMANDS)}
    paths = workload.paths or base["mc"]["paths"]
    steps = workload.steps or base["grids"]["n_sim"]
    block = min(base["mc"]["block_size"], paths)
    acc = steps * block * 8
    g = (steps + 1) * block * 8
    out = {
        "paths": paths,
        "steps": steps,
        "block_size": block,
        "blocks": -(-paths // base["mc"]["block_size"]),
        "bundles_per_pass": 2,
        "asset_path_steps_per_pass": 2 * len(base["model"]["alpha"]) * paths * steps,
        "acc_mb": acc / 1e6,
        "G_mb": g / 1e6,
        "l3_mb": None if l3_bytes is None else l3_bytes / 1e6,
    }
    if l3_bytes:
        out["acc_over_l3"] = acc / l3_bytes
    return out
