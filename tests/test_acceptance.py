"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (with its headline statistic and elapsed
time) and enforces the quantitative tolerance.  Criteria 8 and 9 share one
pass over 10^5 paths, folded as the paths are made on first use, so no
bundle of them is stored; the full module takes under a minute on one core.
"""

import math
import time
from contextlib import closing

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from test_riccati import psi_bound_check

from roughmerton.cli import _default_config_path, load_config, main as cli_main
from roughmerton.kernels import KernelSpec, resolvent_residual
from roughmerton.riccati import RiccatiSpec, _variant_coefficients, solve_riccati
from roughmerton.simulate import ModelParams, SimGrid, _asset_blocks, simulate_variance
from roughmerton.stabilizer import build_stabilizer, functional_equation_residual
from roughmerton.strategy import UtilitySpec, optimal_rule, value_function
from roughmerton.verify import (
    PerturbationSpec,
    _fold,
    _optimality_reducer,
    _value_reducer,
    martingale_profile,
    stationarity_report,
)

GAMMAS = (0.2, 0.5, 0.8)
# criterion 9's perturbation directions, each at epsilon 0.1, 0.2 and 0.4
DIRECTIONS = {
    "uniform": lambda t: np.ones((2, np.atleast_1d(t).size)),
    "long_short": lambda t: np.array([[1.0], [-1.0]]) * np.ones((2, np.atleast_1d(t).size)),
    "decaying": lambda t: 2.0 * (1.0 - np.atleast_1d(t))[None, :] * np.ones((2, 1)),
}
_cache: dict = {}


def report(criterion: int, passed: bool, detail: str, t0: float):
    line = f"CRITERION {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail} [{time.time() - t0:.1f}s]"
    print(line)
    assert passed, line


def big_pass(params4, stab4):
    """Criteria 8 and 9's statistics from one pass over 10^5 paths, n = 600,
    V_0 pinned at its mean: the WealthRun of the optimal rule per (kind,
    gamma), and the ``optimality_test`` report per direction of DIRECTIONS.

    The paths are folded as they are made (one asset's V is held), with the
    reducers that ``simulate_wealth`` and ``optimality_test`` replay over a
    stored bundle of the same seed, so the statistics are theirs bit for bit.
    """
    if "big" not in _cache:
        t0 = time.time()
        grid = SimGrid(T=1.0, n_steps=600)
        utils = [UtilitySpec(kind, g) for kind in ("power", "exponential") for g in GAMMAS]
        reducers = []
        for util in utils:
            sol = solution(params4, stab4, util)
            reducers.append(_value_reducer(params4, grid.times, [util], [lambda t, sol=sol: optimal_rule(sol, t)]))
        sol = solution(params4, stab4, UtilitySpec("power", 0.2))
        reducers += [
            _optimality_reducer(params4, grid.times, sol, [PerturbationSpec(e, h, label) for e in (0.1, 0.2, 0.4)])
            for label, h in DIRECTIONS.items()
        ]
        v0, blocks = _asset_blocks(params4, stab4, grid, n_paths=100_000, seed=42, v0_mode="mean")
        with closing(blocks):
            out = _fold(blocks, v0, params4, reducers)
        runs = {(u.kind, u.gamma): run for u, (run,) in zip(utils, out)}
        _cache["big"] = runs, dict(zip(DIRECTIONS, out[len(utils) :]))
        print(f"[shared pass: 1e5 paths x 600 steps folded in {time.time() - t0:.1f}s]")
    return _cache["big"]


def solution(params4, stab4, util):
    """The n = 200 solution on the shared parameters, one per utility."""
    key = (util.kind, util.gamma)
    if key not in _cache:
        _cache[key] = solve_riccati(RiccatiSpec(util, params4, stab4, n=200))
    return _cache[key]


def with_params(params4, **overrides):
    kw = dict(
        alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
        rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
    )
    kw.update(overrides)
    return ModelParams(**kw)


def test_criterion_1_resolvent_identity():
    t0 = time.time()
    worst = 0.0
    for alpha, lam in ((0.9, 0.2), (0.6, 0.6)):
        res = resolvent_residual(KernelSpec(alpha, lam), np.linspace(1.0 / 200.0, 1.0, 200))
        worst = max(worst, float(np.max(res)))
    elapsed_ok = time.time() - t0 < 1.0
    report(1, worst <= 1e-7 and elapsed_ok, f"sup resolvent residual {worst:.2e} <= 1e-7", t0)


def test_criterion_2_stabilizer_functional_equation(stab4):
    t0 = time.time()
    residuals = [functional_equation_residual(tab) for tab in stab4]
    worst = max(residuals)
    elapsed_ok = time.time() - t0 < 5.0
    report(2, worst <= 5e-4 and elapsed_ok, f"max relative residual {worst:.2e} <= 5e-4", t0)


def test_criterion_3_fake_stationarity(params4, stab4):
    t0 = time.time()
    bundle = simulate_variance(
        params4, stab4, SimGrid(T=1.0, n_steps=600), n_paths=10_000, seed=42
    )
    stats = stationarity_report(bundle)
    worst = max(max(r["mean_stat"], r["var_stat"]) for r in stats)
    elapsed_ok = time.time() - t0 < 120.0
    report(3, worst <= 3.0 and elapsed_ok, f"max flatness statistic {worst:.2f} <= 3", t0)


def test_criterion_4_riccati_alpha_one_reduction(params4):
    t0 = time.time()
    p = with_params(params4, alpha=[1.0, 1.0])
    stabs = [build_stabilizer(p.kernel_spec(i), p.c[i], np.linspace(0, 1, 11)) for i in range(2)]
    sol = solve_riccati(RiccatiSpec(UtilitySpec("exponential", 0.2), p, stabs, n=200))
    a, lin, quad = _variant_coefficients(sol.spec)
    sup_err = 0.0
    for i in range(2):
        sig = float(stabs[i](0.5))  # constant for alpha = 1
        ode = solve_ivp(
            lambda t, y: a[i] + lin[i] * sig * y - p.lam[i] * y + quad[i] * (sig * y[0]) ** 2,
            (0.0, 1.0), [0.0], t_eval=sol.times, rtol=1e-12, atol=1e-14,
        )
        sup_err = max(sup_err, float(np.max(np.abs(sol.psi[i] - ode.y[0]))))
    elapsed_ok = time.time() - t0 < 1.0
    report(4, sup_err <= 1e-6 and elapsed_ok, f"sup error vs ODE oracle {sup_err:.2e} <= 1e-6", t0)


def test_criterion_5_riccati_convergence(params4, stab4):
    t0 = time.time()
    ratios = []
    for i, alpha in enumerate(params4.alpha):
        sols = {
            n: solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), params4, stab4, n=n)).psi[i]
            for n in (100, 200, 400, 800, 1600)
        }
        rate = 2.0 ** (1.0 + alpha)
        # Richardson reference on the n = 800 grid; errors measured on the
        # interior t in [0.1, 0.9] (startup and the varsigma cusp at t = T
        # reduce the pointwise order near the endpoints)
        ref = sols[1600][::2] + (sols[1600][::2] - sols[800]) / (rate - 1.0)
        errs = {
            n: float(np.max(np.abs(sols[n] - ref[:: 800 // n])[n // 10 : 9 * n // 10 + 1]))
            for n in (100, 200, 400)
        }
        ratios += [errs[100] / errs[200], errs[200] / errs[400]]
        assert errs[100] / errs[200] >= rate * 0.8 and errs[200] / errs[400] >= rate * 0.8, (
            f"asset {i}: ratios {errs[100]/errs[200]:.2f}, {errs[200]/errs[400]:.2f} "
            f"< target {rate * 0.8:.2f}"
        )
    elapsed_ok = time.time() - t0 < 5.0
    report(5, elapsed_ok, "error ratios per doubling " + ", ".join(f"{r:.2f}" for r in ratios), t0)


def test_criterion_6_exponential_sign_and_bound(params4, stab4):
    t0 = time.time()
    sol = solution(params4, stab4, UtilitySpec("exponential", 0.2))
    sign_ok = bool(np.all(sol.psi <= 0.0) and np.all(sol.psi[:, 1:] < 0.0))
    reports = psi_bound_check(sol)
    bound_ok = all(r["status"] == "pass" for r in reports)
    margin = max(r["sup_psi"] / r["bound"] for r in reports)
    elapsed_ok = time.time() - t0 < 1.0
    report(
        6, sign_ok and bound_ok and elapsed_ok,
        f"psi <= 0 and sup|psi|/bound = {margin:.3f} <= 1", t0,
    )


def test_criterion_7_degenerate_general_consistency(params4, stab4):
    t0 = time.time()
    p = with_params(params4, rho=[-0.6, -0.6])
    util = UtilitySpec("power", 0.2)
    delta = (1.0 - 0.2) / (1.0 - 0.2 + 0.2 * 0.36)
    sol_g = solve_riccati(RiccatiSpec(util, p, stab4, n=200))
    sol_d = solve_riccati(RiccatiSpec(util, p, stab4, n=200, degenerate=True))
    gap = float(np.max(np.abs(delta * sol_d.psi - sol_g.psi)))
    elapsed_ok = time.time() - t0 < 2.0
    report(7, gap <= 1e-8 and elapsed_ok, f"sup |delta psi_deg - psi_gen| {gap:.2e} <= 1e-8", t0)


def test_criterion_8_value_agreement(params4, stab4):
    t0 = time.time()
    runs, _ = big_pass(params4, stab4)
    details, ok = [], True
    for kind in ("power", "exponential"):
        for g in GAMMAS:
            sol = solution(params4, stab4, UtilitySpec(kind, g))
            run = runs[kind, g]
            analytic = value_function(sol)
            gap = abs(run.mean - analytic)
            tol = 2.0 * run.se + 0.005 * abs(analytic)
            ok &= gap <= tol
            details.append(f"{kind[:3]} g={g}: |gap|/tol={gap / tol:.2f}")
    elapsed_ok = time.time() - t0 < 600.0
    report(8, ok and elapsed_ok, "; ".join(details), t0)


def test_criterion_9_martingale_optimality(params4, stab4):
    t0 = time.time()
    _, reports = big_pass(params4, stab4)
    ok, details = True, []
    for label, rep in reports.items():
        zs = [e["z"] for e in rep["perturbations"]]
        curv = np.array([e["delta_over_eps2"] for e in rep["perturbations"]])
        spread = float(np.max(np.abs(curv / curv.mean() - 1.0)))
        ok &= min(zs) >= 3.0 and spread <= 0.30
        details.append(f"{label}: min z={min(zs):.1f}, curvature spread={spread:.0%}")
    elapsed_ok = time.time() - t0 < 600.0
    report(9, ok and elapsed_ok, "; ".join(details), t0)


def test_criterion_10_martingale_profile(params4, stab4):
    t0 = time.time()
    bundle = simulate_variance(
        params4, stab4, SimGrid(T=1.0, n_steps=600), n_paths=10_000, seed=42,
        v0_mode="mean",
    )
    sol = solution(params4, stab4, UtilitySpec("power", 0.2))
    prof = martingale_profile(bundle, sol)
    flat_ok = prof["flat_stat"] <= 3.0
    start_ok = abs(prof["j_mean"][0] - prof["value"]) <= 1e-12 * abs(prof["value"])
    end_ok = abs(prof["j_mean"][-1] - prof["terminal_mean_utility"]) <= 1e-12 * abs(
        prof["terminal_mean_utility"]
    )
    elapsed_ok = time.time() - t0 < 180.0
    report(
        10, flat_ok and start_ok and end_ok and elapsed_ok,
        f"flatness statistic {prof['flat_stat']:.2f} <= 3, endpoints match", t0,
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    import json

    with open(_default_config_path()) as fh:
        raw = json.load(fh)
    raw["grids"] = {"n_sim": 60, "n_riccati": 60}
    raw["mc"] = {"paths": 2000, "seed": 42, "block_size": 25000}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))

    same = True
    for sub in ("stabilizer", "riccati", "simulate", "strategy", "value", "verify"):
        outs, codes = [], []
        for run in ("a", "b"):
            out = tmp_path / f"{sub}_{run}"
            # the statistical gates may trip at these tiny MC settings; the
            # criterion is that reruns are bit-identical, exit code included
            codes.append(cli_main([sub, "--config", str(cfg), "--out", str(out)]))
            assert codes[-1] in (0, 1)
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0], f"{sub} produced no output files"
        same &= outs[0] == outs[1] and codes[0] == codes[1]
    report(11, same, "all subcommand outputs bit-identical across reruns", t0)
