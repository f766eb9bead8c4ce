"""Command-line front end: config loading, subcommand dispatch, CSV/JSON emission.

Subcommands: ``stabilizer``, ``riccati``, ``simulate``, ``strategy``,
``value``, ``verify``, ``all``.  All outputs land in the configured directory
as CSV (comma-separated, 17 significant digits, '#'-prefixed header block
with config hash, seed and version) or JSON reports.  Exit code is 0 iff all
requested invariant checks pass.  ``VM_THREADS`` caps the BLAS worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .kernels import resolvent_residual
from .riccati import RiccatiSpec, assumption_gate, solve_riccati
from .simulate import ModelParams, RateCurve, SimGrid, integral_factors, simulate_variance
from .stabilizer import StabilizerTable, build_stabilizer, functional_equation_residual
from .strategy import UtilitySpec, optimal_rule, value_function
from .verify import (
    PerturbationSpec,
    martingale_profile,
    optimality_test,
    simulate_wealth,
    stationarity_report,
)

__all__ = ["RunConfig", "load_config", "dispatch", "main"]

SUBCOMMANDS = ("stabilizer", "riccati", "simulate", "strategy", "value", "verify", "all")

_DEFAULT_TOLERANCES = {
    "resolvent_residual": 1e-7,
    "stabilizer_residual": 5e-4,
    "stationarity_z": 3.0,
    "value_rel_allowance": 0.005,
    "profile_z": 3.0,
    "optimality_z": 3.0,
}


class ConfigError(ValueError):
    """Configuration file problem, naming the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration."""

    params: ModelParams  # gamma = first utility gamma
    n_sim: int
    n_riccati: int
    paths: int
    seed: int
    block_size: int
    utility_kind: str
    gammas: tuple
    out_dir: str
    tolerances: dict
    sha256: str

    def params_for(self, gamma: float) -> ModelParams:
        return dataclasses.replace(self.params, gamma=gamma)

    def utility(self, gamma: float) -> UtilitySpec:
        return UtilitySpec(kind=self.utility_kind, gamma=gamma)


def _require_keys(section: dict, allowed: set, required: set, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {where}.{key}")


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration.

    Unknown keys are rejected; ModelParams invariants are enforced; defaults:
    r = 0, n_sim = 600, n_riccati = 200, paths = 10000, seed = 42.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc

    _require_keys(raw, {"model", "grids", "mc", "utility", "outputs", "tolerances"}, {"model", "utility"}, "")
    model = raw["model"]
    _require_keys(
        model,
        {"alpha", "lam", "nu", "theta", "rho", "mu0", "c", "T", "x0", "rate"},
        {"alpha", "lam", "nu", "theta", "rho", "mu0", "c", "T"},
        "model",
    )
    rate_raw = model.get("rate", {"knots": [0.0], "values": [0.0]})
    _require_keys(rate_raw, {"knots", "values"}, {"knots", "values"}, "model.rate")

    util = raw["utility"]
    _require_keys(util, {"kind", "gamma"}, {"kind", "gamma"}, "utility")
    gammas = util["gamma"]
    if not isinstance(gammas, list) or not gammas:
        raise ConfigError("utility.gamma must be a non-empty list")
    kind = util["kind"]

    grids = raw.get("grids", {})
    _require_keys(grids, {"n_sim", "n_riccati"}, set(), "grids")
    mc = raw.get("mc", {})
    _require_keys(mc, {"paths", "seed", "block_size"}, set(), "mc")
    tol = dict(_DEFAULT_TOLERANCES)
    for key, val in raw.get("tolerances", {}).items():
        if key not in _DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown key tolerances.{key}")
        tol[key] = float(val)

    try:
        rate = RateCurve(knots=np.asarray(rate_raw["knots"], float), values=np.asarray(rate_raw["values"], float))
        params = ModelParams(
            alpha=model["alpha"],
            lam=model["lam"],
            nu=model["nu"],
            theta=model["theta"],
            rho=model["rho"],
            mu0=model["mu0"],
            c=model["c"],
            T=float(model["T"]),
            gamma=float(gammas[0]),
            x0=float(model.get("x0", 1.0)),
            rate=rate,
        )
        for g in gammas:
            UtilitySpec(kind=kind, gamma=float(g))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        params=params,
        n_sim=int(grids.get("n_sim", 600)),
        n_riccati=int(grids.get("n_riccati", 200)),
        paths=int(mc.get("paths", 10000)),
        seed=int(mc.get("seed", 42)),
        block_size=int(mc.get("block_size", 25000)),
        utility_kind=kind,
        gammas=tuple(float(g) for g in gammas),
        out_dir=raw.get("outputs", "out"),
        tolerances=tol,
        sha256=hashlib.sha256(blob).hexdigest(),
    )


def _header(config: RunConfig, columns: list) -> list:
    return [
        f"# config_sha256={config.sha256}",
        f"# seed={config.seed}",
        f"# version={__version__}",
        "# columns=" + ",".join(columns),
    ]


def _write_csv(path: str, columns: list, rows: np.ndarray, config: RunConfig):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = _header(config, columns)
    for row in rows:
        lines.append(",".join("%.17g" % v for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict, config: RunConfig):
    payload = dict(payload)
    payload["_meta"] = {"config_sha256": config.sha256, "seed": config.seed, "version": __version__}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _stab_tables(config: RunConfig) -> list:
    params = config.params
    grid = np.linspace(0.0, params.T, config.n_riccati + 1)
    return [build_stabilizer(params.kernel_spec(i), params.c[i], grid) for i in range(params.d)]


def _cmd_stabilizer(config: RunConfig) -> int:
    params = config.params
    tabs = _stab_tables(config)
    times = np.linspace(0.0, params.T, config.n_sim + 1)
    cols = ["t"] + [f"sigma_{i+1}" for i in range(params.d)]
    data = np.column_stack([times] + [np.asarray(t(times)) for t in tabs])
    _write_csv(os.path.join(config.out_dir, "stabilizer.csv"), cols, data, config)
    report, ok = {}, True
    for i, tab in enumerate(tabs):
        res = functional_equation_residual(tab)
        sample = np.linspace(params.T / 50.0, params.T, 50)
        rres = float(np.max(resolvent_residual(params.kernel_spec(i), sample)))
        passed = res <= config.tolerances["stabilizer_residual"] and rres <= config.tolerances["resolvent_residual"]
        ok &= passed
        report[f"asset_{i+1}"] = {
            "functional_residual": res,
            "resolvent_residual": rres,
            "limit": tab.limit,
            "passed": passed,
        }
    _write_json(os.path.join(config.out_dir, "stabilizer_report.json"), report, config)
    return 0 if ok else 1


def _variant(kind: str) -> str:
    return "power_general" if kind == "power" else "exponential_general"


def _cmd_riccati(config: RunConfig) -> int:
    params = config.params_for(config.gammas[0])
    tabs = _stab_tables(config)
    sol = solve_riccati(RiccatiSpec(_variant(config.utility_kind), params, tabs, params.T, config.n_riccati))
    cols = ["t"] + [f"psi_{i+1}" for i in range(params.d)]
    _write_csv(
        os.path.join(config.out_dir, "riccati.csv"),
        cols,
        np.column_stack([sol.times, sol.psi.T]),
        config,
    )
    gate = assumption_gate(params, sol, p=2.0)
    _write_json(
        os.path.join(config.out_dir, "riccati_report.json"),
        {"variant": sol.variant, "gamma": params.gamma, "assumption_gate": gate},
        config,
    )
    return 0 if gate["passed"] else 1


def _sim_grid(config: RunConfig) -> SimGrid:
    return SimGrid(config.params.T, config.n_sim)


def _simulate_bundle(config: RunConfig, tabs, v0_mode="gaussian", store_bperp=True, factors=None):
    return simulate_variance(
        config.params,
        tabs,
        _sim_grid(config),
        config.paths,
        config.seed,
        v0_mode=v0_mode,
        store_bperp=store_bperp,
        block_size=config.block_size,
        factors=factors,
    )


def _cmd_simulate(config: RunConfig) -> int:
    params = config.params
    bundle = _simulate_bundle(config, _stab_tables(config))
    M = bundle.n_paths
    cols = ["t"]
    data = [bundle.times]
    for i in range(params.d):
        Vi = bundle.V[i]
        mean_k = Vi.mean(axis=1)
        sd_k = Vi.std(axis=1, ddof=1)
        var_k = sd_k**2
        m4 = ((Vi - mean_k[:, None]) ** 4).mean(axis=1)
        cols += [f"mean_V_{i+1}", f"var_V_{i+1}", f"se_mean_{i+1}", f"se_var_{i+1}"]
        data += [mean_k, var_k, sd_k / math.sqrt(M), np.sqrt(np.maximum(m4 - var_k**2, 0.0) / M)]
    _write_csv(os.path.join(config.out_dir, "simulate.csv"), cols, np.column_stack(data), config)
    report = stationarity_report(bundle)
    ok = all(
        r["mean_stat"] <= config.tolerances["stationarity_z"]
        and r["var_stat"] <= config.tolerances["stationarity_z"]
        for r in report
    )
    _write_json(os.path.join(config.out_dir, "simulate_report.json"), {"stationarity": report, "passed": ok}, config)
    return 0 if ok else 1


def _cmd_strategy(config: RunConfig) -> int:
    tabs = _stab_tables(config)
    for g in config.gammas:
        params = config.params_for(g)
        util = config.utility(g)
        sol = solve_riccati(RiccatiSpec(_variant(util.kind), params, tabs, params.T, config.n_riccati))
        cols = ["t"] + [f"rule_{i+1}" for i in range(params.d)]
        rules = optimal_rule(util, params, sol, sol.times)
        _write_csv(
            os.path.join(config.out_dir, f"strategy_{util.kind}_gamma{g:g}.csv"),
            cols,
            np.column_stack([sol.times, rules.T]),
            config,
        )
    return 0


def _cmd_value(config: RunConfig) -> int:
    tabs = _stab_tables(config)
    report = {}
    for g in config.gammas:
        params = config.params_for(g)
        util = config.utility(g)
        sol = solve_riccati(RiccatiSpec(_variant(util.kind), params, tabs, params.T, config.n_riccati))
        report[f"gamma_{g:g}"] = value_function(util, params, sol, x0=params.x0)
    payload = {"utility": config.utility_kind, "x0": config.params.x0, "values": report}
    _write_json(os.path.join(config.out_dir, "value.json"), payload, config)
    print(json.dumps(payload, sort_keys=True, default=_jsonable))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    tabs = _stab_tables(config)
    # both bundles share one grid and kernel, hence one factor per asset
    factors = integral_factors(config.params, _sim_grid(config))
    bundle = _simulate_bundle(config, tabs, v0_mode="mean", factors=factors)
    d = config.params.d
    checks, ok = {}, True

    # value agreement per gamma
    values, sols = {}, {}
    for g in config.gammas:
        params = config.params_for(g)
        util = config.utility(g)
        sol = solve_riccati(RiccatiSpec(_variant(util.kind), params, tabs, params.T, config.n_riccati))
        sols[g] = sol
        run = simulate_wealth(bundle, util, lambda t: optimal_rule(util, params, sol, t), params, tag="optimal")
        analytic = value_function(util, params, sol, x0=params.x0)
        tol = 2.0 * run.se + config.tolerances["value_rel_allowance"] * abs(analytic)
        passed = abs(run.mean - analytic) <= tol
        ok &= passed
        values[f"gamma_{g:g}"] = {
            "mc_mean": run.mean,
            "mc_se": run.se,
            "analytic": analytic,
            "tolerance": tol,
            "passed": passed,
        }
    checks["value_agreement"] = values

    # optimality for the first gamma
    params = config.params_for(config.gammas[0])
    util = config.utility(config.gammas[0])
    sol = sols[config.gammas[0]]
    ones = lambda t: np.ones((d, np.atleast_1d(t).size))
    perts = [PerturbationSpec(eps, ones, "uniform") for eps in (0.1, 0.2, 0.4)]
    opt = optimality_test(bundle, util, params, sol, perts)
    # every gap non-negative within noise; the largest perturbation clearly positive
    zs = [e["z"] for e in opt["perturbations"]]
    opt_ok = all(z >= -config.tolerances["optimality_z"] for z in zs) and zs[-1] >= config.tolerances[
        "optimality_z"
    ]
    ok &= opt_ok
    checks["optimality"] = {"report": opt, "passed": opt_ok}

    # martingale profile for the first gamma
    prof = martingale_profile(bundle, util, params, sol)
    prof_ok = prof["flat_stat"] <= config.tolerances["profile_z"]
    ok &= prof_ok
    checks["martingale_profile"] = {
        "flat_stat": prof["flat_stat"],
        "value": prof["value"],
        "terminal_mean_utility": prof["terminal_mean_utility"],
        "passed": prof_ok,
    }
    _write_csv(
        os.path.join(config.out_dir, "verify_profile.csv"),
        ["t", "mean_J", "se_paired"],
        np.column_stack([prof["times"], prof["j_mean"], prof["se_paired"]]),
        config,
    )

    # stationarity on a Gaussian-V0 bundle
    bundle_g = _simulate_bundle(config, tabs, v0_mode="gaussian", store_bperp=False, factors=factors)
    stat = stationarity_report(bundle_g)
    stat_ok = all(
        r["mean_stat"] <= config.tolerances["stationarity_z"]
        and r["var_stat"] <= config.tolerances["stationarity_z"]
        for r in stat
    )
    ok &= stat_ok
    checks["stationarity"] = {"report": stat, "passed": stat_ok}

    checks["passed"] = ok
    _write_json(os.path.join(config.out_dir, "verify_report.json"), checks, config)
    return 0 if ok else 1


def _cmd_all(config: RunConfig) -> int:
    """Full pipeline: fig1 = stabilizers, fig2 = stationarity curves,
    fig3 = exponent curves per gamma, fig4 = rule curves per gamma."""
    params = config.params
    tabs = _stab_tables(config)
    times = np.linspace(0.0, params.T, config.n_sim + 1)

    cols = ["t"] + [f"sigma_{i+1}" for i in range(params.d)]
    _write_csv(
        os.path.join(config.out_dir, "fig1.csv"),
        cols,
        np.column_stack([times] + [np.asarray(t(times)) for t in tabs]),
        config,
    )

    bundle = _simulate_bundle(config, tabs, store_bperp=False)
    cols, data = ["t"], [bundle.times]
    for i in range(params.d):
        Vi = bundle.V[i]
        cols += [f"mean_V_{i+1}", f"var_V_{i+1}"]
        data += [Vi.mean(axis=1), Vi.var(axis=1, ddof=1)]
    _write_csv(os.path.join(config.out_dir, "fig2.csv"), cols, np.column_stack(data), config)

    sols = {}
    for g in config.gammas:
        p_g = config.params_for(g)
        sols[g] = solve_riccati(RiccatiSpec(_variant(config.utility_kind), p_g, tabs, p_g.T, config.n_riccati))
    grid = sols[config.gammas[0]].times
    cols, data = ["t"], [grid]
    for g in config.gammas:
        cols += [f"psi_{i+1}_gamma{g:g}" for i in range(params.d)]
        data += [sols[g].psi[i] for i in range(params.d)]
    _write_csv(os.path.join(config.out_dir, "fig3.csv"), cols, np.column_stack(data), config)

    cols, data = ["t"], [grid]
    for g in config.gammas:
        rules = optimal_rule(config.utility(g), config.params_for(g), sols[g], grid)
        cols += [f"rule_{i+1}_gamma{g:g}" for i in range(params.d)]
        data += [rules[i] for i in range(params.d)]
    _write_csv(os.path.join(config.out_dir, "fig4.csv"), cols, np.column_stack(data), config)
    return 0


_COMMANDS = {
    "stabilizer": _cmd_stabilizer,
    "riccati": _cmd_riccati,
    "simulate": _cmd_simulate,
    "strategy": _cmd_strategy,
    "value": _cmd_value,
    "verify": _cmd_verify,
    "all": _cmd_all,
}


def dispatch(subcommand: str, config: RunConfig) -> int:
    """Run one subcommand; returns the process exit code."""
    if subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    os.makedirs(config.out_dir, exist_ok=True)
    return _COMMANDS[subcommand](config)


def _default_config_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "two_asset.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="roughmerton", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=_default_config_path())
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--utility", choices=("power", "exponential"), default=None)
    args = parser.parse_args(argv)

    threads = os.environ.get("VM_THREADS")
    if threads:
        try:
            limit = int(threads)
            from threadpoolctl import threadpool_limits

            threadpool_limits(limits=limit)
        except ImportError:
            print(f"warning: VM_THREADS={threads} ignored: threadpoolctl is not installed", file=sys.stderr)
        except ValueError:
            print(f"warning: VM_THREADS={threads} ignored: not a thread count", file=sys.stderr)

    try:
        config = load_config(args.config)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.paths is not None:
            config = dataclasses.replace(config, paths=args.paths)
        if args.steps is not None:
            config = dataclasses.replace(config, n_sim=args.steps)
        if args.utility is not None:
            config = dataclasses.replace(config, utility_kind=args.utility)
            for g in config.gammas:
                UtilitySpec(kind=args.utility, gamma=g)
        if args.gamma is not None:
            UtilitySpec(kind=config.utility_kind, gamma=args.gamma)
            config = dataclasses.replace(
                config, gammas=(args.gamma,), params=dataclasses.replace(config.params, gamma=args.gamma)
            )
        return dispatch(args.subcommand, config)
    except (ConfigError, ValueError, RuntimeError, FloatingPointError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
