"""Command-line front end: config loading, subcommand dispatch, CSV/JSON emission.

Subcommands: ``stabilizer``, ``riccati``, ``simulate``, ``strategy``,
``value``, ``verify``, ``all``.  All outputs land in the configured directory
as CSV (comma-separated, 17 significant digits, '#'-prefixed header block
with config hash, seed and version) or JSON reports.  Exit code is 0 iff all
requested invariant checks pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .kernels import resolvent_residual
from .riccati import RiccatiSpec, assumption_gate, solve_riccati
from .simulate import ModelParams, RateCurve, SimGrid, simulate_variance
from .stabilizer import build_stabilizer, functional_equation_residual
from .strategy import UtilitySpec, optimal_rule, value_function
from .verify import (
    PerturbationSpec,
    martingale_profile,
    moment_curves,
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


# The model's per-asset fields, in ModelParams order.
_PER_ASSET = ("alpha", "lam", "nu", "theta", "rho", "mu0", "c")

# Smallest allowed run sizes: (config field, attribute, minimum).
_SIZE_FLOORS = (
    ("grids.n_sim", "n_sim", 1),
    ("grids.n_riccati", "n_riccati", 2),
    ("mc.paths", "paths", 2),
    ("mc.block_size", "block_size", 1),
)


class ConfigError(ValueError):
    """Configuration file problem, naming the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; the checks rerun on every override."""

    params: ModelParams
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

    def __post_init__(self):
        for name, attr, low in _SIZE_FLOORS:
            if getattr(self, attr) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, attr)}")
        try:
            for g in self.gammas:
                self.utility(g)
        except ValueError as exc:
            raise ConfigError(f"utility: {exc}") from exc
        if self.utility_kind == "power" and self.params.x0 <= 0.0:
            raise ConfigError(f"model.x0 must be > 0 under power utility, got {self.params.x0}")

    def utility(self, gamma: float) -> UtilitySpec:
        return UtilitySpec(kind=self.utility_kind, gamma=gamma)


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {where}.{key}")


def _integer(section: dict, key: str, default: int, where: str) -> int:
    """section[key] (or ``default``) as an int; a JSON number with a fractional part,
    a string or a boolean is rejected rather than truncated or converted."""
    val = section.get(key, default)
    if isinstance(val, bool) or not (isinstance(val, int) or (isinstance(val, float) and val.is_integer())):
        raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
    return int(val)


def _finite(val, where: str, low: float = -np.inf) -> float:
    """val as a float; a string, boolean or null, a NaN or infinity, or a
    value below ``low`` is rejected rather than converted."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) < np.inf:
        raise ConfigError(f"{where} must be a finite number, got {val!r}")
    if val < low:
        raise ConfigError(f"{where} must be >= {low:g}, got {val!r}")
    return float(val)


def _finite_entries(val, where: str):
    """A per-asset field as finite numbers, each entry named in the error
    (``model.alpha[0]``); a single number stands for a one-entry list."""
    if isinstance(val, list):
        return [_finite(v, f"{where}[{j}]") for j, v in enumerate(val)]
    return _finite(val, where)


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration.

    Unknown keys are rejected; run sizes and the seed must be integers,
    ``outputs`` a string, each entry of the per-asset fields and of
    model.rate, model.T, model.x0 and each gamma finite numbers and each
    tolerance a finite number >= 0; ModelParams invariants, the
    run-size floors and each gamma's utility range are enforced; defaults:
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
    _require_keys(model, {*_PER_ASSET, "T", "x0", "rate"}, {*_PER_ASSET, "T"}, "model")
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
    tolerances = raw.get("tolerances", {})
    _require_keys(tolerances, set(_DEFAULT_TOLERANCES), set(), "tolerances")
    tol = dict(_DEFAULT_TOLERANCES)
    for key, val in tolerances.items():
        tol[key] = _finite(val, f"tolerances.{key}", low=0.0)
    out_dir = raw.get("outputs", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"outputs must be a string, got {out_dir!r}")

    per_asset = {name: _finite_entries(model[name], f"model.{name}") for name in _PER_ASSET}
    knots, values = (_finite_entries(rate_raw[key], f"model.rate.{key}") for key in ("knots", "values"))
    try:
        rate = RateCurve(knots=np.asarray(knots, float), values=np.asarray(values, float))
        params = ModelParams(
            **per_asset,
            T=_finite(model["T"], "model.T"),
            x0=_finite(model.get("x0", 1.0), "model.x0"),
            rate=rate,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        params=params,
        n_sim=_integer(grids, "n_sim", 600, "grids"),
        n_riccati=_integer(grids, "n_riccati", 200, "grids"),
        paths=_integer(mc, "paths", 10000, "mc"),
        seed=_integer(mc, "seed", 42, "mc"),
        block_size=_integer(mc, "block_size", 25000, "mc"),
        utility_kind=kind,
        gammas=tuple(_finite(g, "utility.gamma") for g in gammas),
        out_dir=out_dir,
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


def _write_csv(config: RunConfig, name: str, columns: list, rows: np.ndarray):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    fmt = ",".join(["%.17g"] * rows.shape[1])
    lines = _header(config, columns) + [fmt % tuple(row) for row in rows.tolist()]
    with open(os.path.join(config.out_dir, name), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(config: RunConfig, name: str, payload: dict):
    payload = dict(payload)
    payload["_meta"] = {"config_sha256": config.sha256, "seed": config.seed, "version": __version__}
    with open(os.path.join(config.out_dir, name), "w") as fh:
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


def _write_stabilizer_curves(config: RunConfig, tabs, name: str):
    """varsigma of every asset on the simulation grid (stabilizer.csv, fig1.csv)."""
    times = np.linspace(0.0, config.params.T, config.n_sim + 1)
    cols = ["t"] + [f"sigma_{i+1}" for i in range(config.params.d)]
    _write_csv(config, name, cols, np.column_stack([times] + [np.asarray(t(times)) for t in tabs]))


def _solve(config: RunConfig, tabs, g: float):
    """The exponent curves for the configured utility family at risk aversion g."""
    return solve_riccati(RiccatiSpec(config.utility(g), config.params, tabs, config.n_riccati))


def _cmd_stabilizer(config: RunConfig) -> int:
    params = config.params
    tabs = _stab_tables(config)
    _write_stabilizer_curves(config, tabs, "stabilizer.csv")
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
    _write_json(config, "stabilizer_report.json", report)
    return 0 if ok else 1


def _cmd_riccati(config: RunConfig) -> int:
    sol = _solve(config, _stab_tables(config), config.gammas[0])
    cols = ["t"] + [f"psi_{i+1}" for i in range(config.params.d)]
    _write_csv(config, "riccati.csv", cols, np.column_stack([sol.times, sol.psi.T]))
    gate = assumption_gate(sol, p=2.0)
    _write_json(
        config,
        "riccati_report.json",
        {"variant": sol.variant, "gamma": sol.spec.util.gamma, "assumption_gate": gate},
    )
    return 0


def _simulate_bundle(config: RunConfig, tabs, store_bperp: bool):
    """The run's Gaussian-V_0 bundle; dBperp is kept only where dW is needed."""
    return simulate_variance(
        config.params,
        tabs,
        SimGrid(config.params.T, config.n_sim),
        config.paths,
        config.seed,
        store_bperp=store_bperp,
        block_size=config.block_size,
    )


def _stationary(config: RunConfig, report: list) -> bool:
    """The stationarity gate: every asset's mean and variance statistics within tolerance."""
    z = config.tolerances["stationarity_z"]
    return all(r["mean_stat"] <= z and r["var_stat"] <= z for r in report)


def _cmd_simulate(config: RunConfig) -> int:
    bundle = _simulate_bundle(config, _stab_tables(config), store_bperp=False)
    curves = moment_curves(bundle)
    cols, data = ["t"], [bundle.times]
    for i in range(config.params.d):
        cols += [f"mean_V_{i+1}", f"var_V_{i+1}", f"se_mean_{i+1}", f"se_var_{i+1}"]
        data += list(curves[:, i])
    _write_csv(config, "simulate.csv", cols, np.column_stack(data))
    report = stationarity_report(bundle)
    ok = _stationary(config, report)
    _write_json(config, "simulate_report.json", {"stationarity": report, "passed": ok})
    return 0 if ok else 1


def _cmd_strategy(config: RunConfig) -> int:
    tabs = _stab_tables(config)
    cols = ["t"] + [f"rule_{i+1}" for i in range(config.params.d)]
    for g in config.gammas:
        sol = _solve(config, tabs, g)
        rules = optimal_rule(sol, sol.times)
        name = f"strategy_{config.utility_kind}_gamma{g:g}.csv"
        _write_csv(config, name, cols, np.column_stack([sol.times, rules.T]))
    return 0


def _cmd_value(config: RunConfig) -> int:
    tabs = _stab_tables(config)
    report = {f"gamma_{g:g}": value_function(_solve(config, tabs, g)) for g in config.gammas}
    payload = {"utility": config.utility_kind, "x0": config.params.x0, "values": report}
    _write_json(config, "value.json", payload)
    print(json.dumps(payload, sort_keys=True, default=_jsonable))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    tabs = _stab_tables(config)
    # one bundle serves every gate; its dBperp rebuilds dW for the profile
    bundle = _simulate_bundle(config, tabs, store_bperp=True)
    d = config.params.d
    checks, ok = {}, True

    # value agreement per gamma, against the value at each path's V_0; every
    # gamma's optimal rule shares one wealth pass
    sols = {g: _solve(config, tabs, g) for g in config.gammas}
    runs = simulate_wealth(
        bundle,
        [sol.spec.util for sol in sols.values()],
        [lambda t, sol=sol: optimal_rule(sol, t) for sol in sols.values()],
    )
    values = {}
    for (g, sol), run in zip(sols.items(), runs):
        target = value_function(sol, v0=bundle.v0)
        tol = 2.0 * run.se + config.tolerances["value_rel_allowance"] * abs(target)
        passed = abs(run.mean - target) <= tol
        ok &= passed
        values[f"gamma_{g:g}"] = {
            "mc_mean": run.mean,
            "mc_se": run.se,
            "analytic": value_function(sol),
            "target": target,
            "tolerance": tol,
            "passed": passed,
        }
    checks["value_agreement"] = values

    # optimality for the first gamma
    sol = sols[config.gammas[0]]
    ones = lambda t: np.ones((d, np.atleast_1d(t).size))
    perts = [PerturbationSpec(eps, ones, "uniform") for eps in (0.1, 0.2, 0.4)]
    opt = optimality_test(bundle, sol, perts)
    # every gap non-negative within noise; the largest perturbation clearly positive
    zs = [e["z"] for e in opt["perturbations"]]
    opt_ok = all(z >= -config.tolerances["optimality_z"] for z in zs) and zs[-1] >= config.tolerances[
        "optimality_z"
    ]
    ok &= opt_ok
    checks["optimality"] = {"report": opt, "passed": opt_ok}

    # martingale profile for the first gamma
    prof = martingale_profile(bundle, sol)
    prof_ok = prof["flat_stat"] <= config.tolerances["profile_z"]
    ok &= prof_ok
    checks["martingale_profile"] = {
        "flat_stat": prof["flat_stat"],
        "value": prof["value"],
        "terminal_mean_utility": prof["terminal_mean_utility"],
        "passed": prof_ok,
    }
    _write_csv(
        config,
        "verify_profile.csv",
        ["t", "mean_J", "se_paired"],
        np.column_stack([prof["times"], prof["j_mean"], prof["se_paired"]]),
    )

    stat = stationarity_report(bundle)
    stat_ok = _stationary(config, stat)
    ok &= stat_ok
    checks["stationarity"] = {"report": stat, "passed": stat_ok}

    checks["passed"] = ok
    _write_json(config, "verify_report.json", checks)
    return 0 if ok else 1


def _cmd_all(config: RunConfig) -> int:
    """Full pipeline: fig1 = stabilizers, fig2 = stationarity curves,
    fig3 = exponent curves per gamma, fig4 = rule curves per gamma."""
    d = config.params.d
    tabs = _stab_tables(config)
    _write_stabilizer_curves(config, tabs, "fig1.csv")

    bundle = _simulate_bundle(config, tabs, store_bperp=False)
    curves = moment_curves(bundle)
    cols, data = ["t"], [bundle.times]
    for i in range(d):
        cols += [f"mean_V_{i+1}", f"var_V_{i+1}"]
        data += list(curves[:2, i])
    _write_csv(config, "fig2.csv", cols, np.column_stack(data))

    sols = {g: _solve(config, tabs, g) for g in config.gammas}
    grid = sols[config.gammas[0]].times
    cols, data = ["t"], [grid]
    for g in config.gammas:
        cols += [f"psi_{i+1}_gamma{g:g}" for i in range(d)]
        data += [sols[g].psi[i] for i in range(d)]
    _write_csv(config, "fig3.csv", cols, np.column_stack(data))

    cols, data = ["t"], [grid]
    for g in config.gammas:
        rules = optimal_rule(sols[g], grid)
        cols += [f"rule_{i+1}_gamma{g:g}" for i in range(d)]
        data += [rules[i] for i in range(d)]
    _write_csv(config, "fig4.csv", cols, np.column_stack(data))
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

    try:
        overrides = {
            "out_dir": args.out,
            "seed": args.seed,
            "paths": args.paths,
            "n_sim": args.steps,
            "utility_kind": args.utility,
            "gammas": None if args.gamma is None else (args.gamma,),
        }
        config = load_config(args.config)
        # RunConfig checks the overridden config as a whole
        config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
        return dispatch(args.subcommand, config)
    except (ConfigError, ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
