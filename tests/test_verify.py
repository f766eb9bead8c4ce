import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from roughmerton import cli
from roughmerton.cli import _default_config_path, load_config
from roughmerton.riccati import RiccatiSpec, solve_riccati
from roughmerton.simulate import ModelParams, RateCurve, SimGrid, _TIME_BLOCK, integral_factor, simulate_variance
from roughmerton.stabilizer import build_stabilizer, functional_equation_residual
from roughmerton import kernels, simulate, verify
from roughmerton.kernels import KernelSpec, resolvent_residual
from roughmerton.strategy import UtilitySpec, optimal_rule, value_exponent, value_function
from roughmerton.verify import (
    TOLERANCES,
    Gate,
    PerturbationSpec,
    _checkpoint_rows,
    _kernel_rows,
    martingale_profile,
    moment_curves,
    optimality_gates,
    optimality_test,
    profile_gate,
    residual_gates,
    simulate_wealth,
    stationarity_gates,
    stationarity_report,
    value_gate,
)
from test_simulate import variance_driver


def make_params(params4, **overrides):
    kw = dict(
        alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
        rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
    )
    kw.update(overrides)
    return ModelParams(**kw)


@pytest.fixture(scope="module")
def bundle(params4, stab4):
    grid = SimGrid(T=1.0, n_steps=60)
    return simulate_variance(params4, stab4, grid, n_paths=5000, seed=21, v0_mode="mean")


@pytest.fixture(scope="module")
def sol_power(params4, stab4):
    return solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), params4, stab4, n=200))


@pytest.fixture(scope="module")
def sol_exp(params4, stab4):
    return solve_riccati(RiccatiSpec(UtilitySpec("exponential", 0.2), params4, stab4, n=200))


@pytest.fixture(scope="module")
def piecewise_market(params4, stab4):
    """A piecewise rate and x0 = 1.7, where J's growth factor e^{int_t^T r}
    is not 1: the params and each utility's solution."""
    p = make_params(params4, rate=RateCurve(knots=[0.0, 0.4], values=[0.03, 0.01]), x0=1.7)
    sols = {k: solve_riccati(RiccatiSpec(UtilitySpec(k, 0.2), p, stab4, n=200)) for k in ("power", "exponential")}
    return p, sols


def zero_rule(d):
    return lambda t: np.zeros((d, np.asarray(t).size))


def march_wealth(bundle, util, rule):
    """Wealth path (n+1, P) under ``rule``, marched one rule and one step at a
    time: power in log, exponential as a discounted Euler sum."""
    params, times = bundle.params, bundle.times
    n, dt = times.size - 1, times[1] - times[0]
    R = np.asarray(rule(times[:-1]), dtype=float)
    incs = np.zeros((n, bundle.n_paths))
    for i in range(params.d):
        V = bundle.V[i, :-1, :]
        if util.kind == "power":
            drift = (R[i] * params.theta[i] - 0.5 * R[i] ** 2)[:, None]
        else:
            drift = R[i][:, None] * params.theta[i]
        incs += drift * V * dt + R[i][:, None] * np.sqrt(V) * bundle.dB[i]
    X = np.empty((n + 1, bundle.n_paths))
    if util.kind == "power":
        incs += (params.rate(times[:-1]) * np.ones(n) * dt)[:, None]
        X[0] = math.log(params.x0)
        np.cumsum(incs, axis=0, out=X[1:])
        X[1:] += math.log(params.x0)
        return np.exp(X)
    incs *= np.exp(-params.rate.primitive(times[:-1]))[:, None]
    X[0] = params.x0
    np.cumsum(incs, axis=0, out=X[1:])
    X[1:] += params.x0
    return X * np.exp(params.rate.primitive(times))[:, None]


def _reverse_cumtrapz(y, dt):
    """I[k] = int_{t_k}^{t_n} y by the trapezoid rule; y has n+1 points along axis 0."""
    seg = dt * 0.5 * (y[:-1] + y[1:])
    out = np.zeros_like(y)
    out[:-1] = np.cumsum(seg[::-1], axis=0)[::-1]
    return out


def dense_kernel_matrix(rv, alpha, dt):
    """The (n+1, n) matrix M of the profile's kernel term, built column by column.

    (M dZ)_k = int_{t_k}^T rv(s) sum_{l <= k} Kbar_l(s) dZ_l ds by the
    trapezoid rule: column l - 1 is the reverse cumulative trapezoid of
    rv_j kbar_{j-l} (j >= l), zero before t_l.
    """
    n = rv.size - 1
    k1 = (dt * np.arange(n + 1)) ** alpha / math.gamma(alpha + 1.0)
    kbar = (k1[1:] - k1[:-1]) / dt
    M = np.zeros((n + 1, n))
    for ell in range(1, n + 1):
        y = np.zeros(n + 1)
        y[ell:] = rv[ell:] * kbar[: n - ell + 1]
        col = _reverse_cumtrapz(y, dt)
        col[:ell] = 0.0  # increment l not yet observed before t_l
        M[:, ell - 1] = col
    return M


def wrong_theta_psi(sol, params4, stab4, theta):
    """``sol`` with psi and the value integrands solved under a mismatched theta."""
    p_wrong = make_params(params4, theta=[theta, theta])
    wrong = solve_riccati(RiccatiSpec(sol.spec.util, p_wrong, stab4, n=200))
    return dataclasses.replace(sol, psi=wrong.psi, rhs_values=wrong.rhs_values)


def profile_integrands(bundle, sol):
    """a_i + F_i(s, psi(T - s)) on the bundle grid, (d, n+1)."""
    s_nodes = (bundle.params.T - sol.times)[::-1]
    return np.stack([np.interp(bundle.times, s_nodes, r[::-1]) for r in sol.rhs_values])


def dense_profile(bundle, sol):
    """J (n+1, P) of the martingale profile at every grid row, with the
    wealth path marched step by step and the kernel term as the dense
    product M dZ of the rebuilt dW; returns J and max |M dZ|."""
    params, util = bundle.params, sol.spec.util
    times = bundle.times
    dt = times[1] - times[0]
    rvs = profile_integrands(bundle, sol)
    # the g_0 part: value_exponent's curves, per asset, on the bundle grid
    slope, level = value_exponent(sol)
    expo = np.zeros((times.size, bundle.n_paths))
    scale = 0.0
    for i in range(params.d):
        expo += np.interp(times, sol.times, slope[i])[:, None] * (bundle.v0[i] - params.x_inf[i])
        expo += np.interp(times, sol.times, level[i])[:, None]
        sig = np.asarray(sol.spec.stabilizers[i](times))
        V = bundle.V[i, :-1]
        dZ = -params.lam[i] * V * dt + params.nu[i] * sig[1:, None] * np.sqrt(V) * variance_driver(bundle, i)
        MdZ = dense_kernel_matrix(rvs[i], params.alpha[i], dt) @ dZ
        scale = max(scale, float(np.max(np.abs(MdZ))))
        expo += MdZ
    X = march_wealth(bundle, util, lambda t: optimal_rule(sol, t))
    r_tail = (params.rate.primitive(params.T) - params.rate.primitive(times))[:, None]
    g = util.gamma
    if util.kind == "power":
        return X**g / g * np.exp(g * r_tail + expo), scale
    return -np.exp(-g * np.exp(r_tail) * X + expo) / g, scale


def path_chunks(bundle, paths):
    """(columns, V, dB, dBperp, v0) over consecutive slices of ``paths`` paths, as views."""
    for lo in range(0, bundle.n_paths, paths):
        cols = slice(lo, min(lo + paths, bundle.n_paths))
        yield cols, bundle.V[..., cols], bundle.dB[..., cols], bundle.dBperp[..., cols], bundle.v0[:, cols]


def chunked_terminal_wealth(bundle, util, rules, paths=16):
    """Terminal wealth (len(rules), P) reduced over chunks of paths, each
    asset's whole grid in one product per array: the fold's reference."""
    params = bundle.params
    start, rate_steps, B, C = verify._wealth_steps(params, bundle.times, util, rules)
    x_T = np.full((len(rules), bundle.n_paths), start + float(np.sum(rate_steps)))
    for cols, V, dB, _, _ in path_chunks(bundle, paths):
        acc = x_T[:, cols]
        for i in range(params.d):
            noise = np.sqrt(V[i, :-1]) * dB[i]
            acc += B[:, i] @ noise
            acc += C[:, i] @ V[i, :-1]
    return np.exp(x_T) if util.kind == "power" else x_T * np.exp(params.rate.primitive(params.T))


def chunked_profile(bundle, sol, paths=16):
    """J (m, P) at the profile's checkpoint rows, reduced over chunks of
    paths, each asset's whole grid in one product per array: the fold's reference."""
    params, util, times = bundle.params, sol.spec.util, bundle.times
    n, dt = times.size - 1, times[1] - times[0]
    rows = _checkpoint_rows(n)
    m = rows.size
    start, rate_steps, B, C = verify._wealth_steps(params, times, util, [lambda t: optimal_rule(sol, t)])
    before = np.arange(n) < rows[:, None]
    state0 = start + np.concatenate(([0.0], np.cumsum(rate_steps)))[rows]
    slope, level = value_exponent(sol)
    slope = np.stack([np.interp(times[rows], sol.times, c) for c in slope])
    level = np.interp(times[rows], sol.times, np.sum(level, axis=0))
    rvs = profile_integrands(bundle, sol)
    weights = []
    for i in range(params.d):
        M = _kernel_rows(params.alpha[i], rvs[i], dt, rows)
        vol = params.nu[i] * np.asarray(sol.spec.stabilizers[i](times[1:]))
        rho = params.rho[i]
        weights.append(
            (
                np.vstack([C[0, i] * before, -params.lam[i] * dt * M]),
                np.vstack([B[0, i] * before, rho * vol * M]),
                math.sqrt(max(1.0 - rho * rho, 0.0)) * vol * M,
            )
        )
    primitive = params.rate.primitive(times[rows])[:, None]
    growth = np.exp(params.rate.primitive(params.T) - primitive)
    J = np.empty((m, bundle.n_paths))
    for cols, V, dB, dBperp, v0 in path_chunks(bundle, paths):
        acc = np.empty((2 * m, v0.shape[1]))
        acc[:m] = state0[:, None]
        acc[m:] = slope.T @ (v0 - params.x_inf[:, None]) + level[:, None]
        for i, (on_v, on_db, on_dbperp) in enumerate(weights):
            acc += on_v @ V[i, :-1]
            acc += on_db @ (np.sqrt(V[i, :-1]) * dB[i])
            acc[m:] += on_dbperp @ (np.sqrt(V[i, :-1]) * dBperp[i])
        X = np.exp(acc[:m]) if util.kind == "power" else acc[:m] * np.exp(primitive)
        J[:, cols] = util.u(X * growth) * np.exp(acc[m:])
    return J


class TestSimulateWealth:
    def test_zero_rule_gives_bank_account(self, bundle, params4):
        # with nothing invested, X_T = x0 e^{int r} exactly for both utilities
        for kind, gamma in (("power", 0.2), ("exponential", 0.5)):
            util = UtilitySpec(kind, gamma)
            run = simulate_wealth(bundle, util, zero_rule(2))
            assert np.allclose(run.x_T, params4.x0, rtol=0.0, atol=1e-14)
            # sd measures deviation from the computed mean, which carries a
            # rounding error of order one ulp even for constant samples
            assert run.se < 1e-15
            assert run.mean == pytest.approx(float(util.u(params4.x0)), rel=1e-14)

    def test_zero_rule_with_rate(self, params4, stab4):
        p = make_params(params4, rate=RateCurve(knots=[0.0], values=[0.04]))
        grid = SimGrid(T=1.0, n_steps=20)
        b = simulate_variance(p, stab4, grid, n_paths=50, seed=1)
        for kind, gamma in (("power", 0.2), ("exponential", 0.5)):
            run = simulate_wealth(b, UtilitySpec(kind, gamma), zero_rule(2))
            assert np.allclose(run.x_T, math.exp(0.04), rtol=1e-13)

    def test_exponential_path_with_piecewise_rate(self, params4, stab4):
        # with nothing invested the undiscounted path is the bank account
        rate = RateCurve(knots=[0.0, 0.3, 0.7], values=[0.02, 0.05, 0.01])
        p = make_params(params4, rate=rate)
        b = simulate_variance(p, stab4, SimGrid(T=1.0, n_steps=20), n_paths=5, seed=1)
        util = UtilitySpec("exponential", 0.5)
        bank = math.exp(rate.primitive(1.0) - rate.primitive(0.0))
        run = simulate_wealth(b, util, zero_rule(2))
        assert np.allclose(run.x_T, p.x0 * bank, rtol=1e-15, atol=0.0)

    def test_power_wealth_positive_and_stats(self, bundle, params4, sol_power):
        util = UtilitySpec("power", 0.2)
        rule = lambda t: np.ones((2, np.asarray(t).size))
        run = simulate_wealth(bundle, util, rule)
        assert np.all(run.x_T > 0.0)
        assert run.mean == pytest.approx(np.mean(run.u_T), rel=1e-15)
        assert run.se == pytest.approx(np.std(run.u_T, ddof=1) / math.sqrt(5000), rel=1e-12)

    def test_nu_zero_lognormal_oracle(self, params4, stab4):
        # nu = 0 freezes V at x_inf, so log X_T is exactly Gaussian with known
        # mean and variance under a constant rule
        p = make_params(params4, nu=[0.0, 0.0])
        grid = SimGrid(T=1.0, n_steps=100)
        b = simulate_variance(p, stab4, grid, n_paths=100_000, seed=9, v0_mode="mean")
        util = UtilitySpec("power", 0.2)
        pi = np.array([0.5, 0.7])
        rule = lambda t: np.tile(pi[:, None], (1, np.asarray(t).size))
        run = simulate_wealth(b, util, rule)
        v = p.x_inf
        mu = float(np.sum((pi * p.theta - 0.5 * pi**2) * v))
        var = float(np.sum(pi**2 * v))  # dB are independent across assets
        logx = np.log(run.x_T)
        assert abs(logx.mean() - mu) < 4 * math.sqrt(var / 100_000)
        assert logx.var() == pytest.approx(var, rel=0.02)

    def test_rule_validation(self, bundle, sol_power):
        util = UtilitySpec("power", 0.2)
        with pytest.raises(ValueError):
            simulate_wealth(bundle, util, lambda t: np.zeros((3, np.asarray(t).size)))
        with pytest.raises(ValueError):
            simulate_wealth(bundle, util, lambda t: np.full((2, np.asarray(t).size), np.nan))
        # every perturbed rule of the stacked optimality pass is checked too
        bad_h = lambda t: np.ones((3, np.asarray(t).size))
        with pytest.raises(ValueError):
            optimality_test(bundle, sol_power, [PerturbationSpec(0.1, bad_h, "bad")])

    def test_non_finite_wealth_raises(self, bundle):
        # sums of steps near the float maximum overflow on some paths
        huge = lambda t: np.full((2, np.asarray(t).size), 1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            simulate_wealth(bundle, UtilitySpec("exponential", 0.5), huge)


class TestProductPass:
    """The stacked product pass against the step-by-step march."""

    RULES = (
        lambda t: np.vstack([0.5 + t, 1.0 - t**2]),
        lambda t: np.vstack([np.sin(3.0 * t), -0.4 * np.ones_like(t)]),
        lambda t: np.vstack([2.0 * np.exp(-t), np.cos(5.0 * t)]),
    )

    @pytest.fixture(scope="class")
    def rate_bundle(self, params4, stab4):
        p = make_params(params4, rate=RateCurve(knots=[0.0, 0.4], values=[0.03, 0.01]))
        # 700 paths in blocks of 250: three path blocks
        return simulate_variance(p, stab4, SimGrid(T=1.0, n_steps=40), n_paths=700, seed=5, block_size=250)

    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_matches_march(self, rate_bundle, kind):
        b, util = rate_bundle, UtilitySpec(kind, 0.5)

        def close(x, ref):
            if kind == "power":
                return np.allclose(x, ref, rtol=1e-13, atol=0.0)
            return bool(np.all(np.abs(x - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))))

        x_T = np.stack([run.x_T for run in simulate_wealth(b, [util] * len(self.RULES), list(self.RULES))])
        assert x_T.shape == (3, 700)
        for k, rule in enumerate(self.RULES):
            ref = march_wealth(b, util, rule)
            assert close(x_T[k], ref[-1])
            assert close(simulate_wealth(b, util, rule).x_T, ref[-1])

    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_stacked_runs_match_single_runs(self, rate_bundle, kind):
        utils = [UtilitySpec(kind, g) for g in (0.2, 0.5, 0.8)]
        runs = simulate_wealth(rate_bundle, utils, list(self.RULES))
        assert len(runs) == 3
        for util, rule, run in zip(utils, self.RULES, runs):
            single = simulate_wealth(rate_bundle, util, rule)
            assert np.allclose(run.x_T, single.x_T, rtol=1e-14, atol=1e-14)
            assert run.mean == pytest.approx(single.mean, rel=1e-14)
            assert run.se == pytest.approx(single.se, rel=1e-12)
        mixed = [UtilitySpec("power", 0.2), UtilitySpec("exponential", 0.2)]
        with pytest.raises(ValueError, match="one kind"):
            simulate_wealth(rate_bundle, mixed, list(self.RULES[:2]))
        with pytest.raises(ValueError, match="one utility per rule"):
            simulate_wealth(rate_bundle, utils[:2], list(self.RULES))

    def test_stacked_optimality_matches_single_runs(self, bundle, sol_power):
        util = sol_power.spec.util
        h = lambda t: np.vstack([np.ones_like(t), -t])
        perts = [PerturbationSpec(e, h, "tilt") for e in (0.1, 0.3)]
        report = optimality_test(bundle, sol_power, perts)
        base = simulate_wealth(bundle, util, lambda t: optimal_rule(sol_power, t))
        assert report["base_mean"] == pytest.approx(base.mean, rel=1e-14)
        assert report["base_se"] == pytest.approx(base.se, rel=1e-12)
        for pert, entry in zip(perts, report["perturbations"]):
            rule = lambda t, eps=pert.epsilon: optimal_rule(sol_power, t) + eps * h(t)
            diff = base.u_T - simulate_wealth(bundle, util, rule).u_T
            assert entry["delta"] == pytest.approx(np.mean(diff), rel=1e-10)


class TestOptimality:
    def test_epsilon_zero_gives_exact_zero(self, bundle, params4, sol_power):
        h = lambda t: np.ones((2, np.asarray(t).size))
        report = optimality_test(bundle, sol_power, [PerturbationSpec(0.0, h, "flat")])
        entry = report["perturbations"][0]
        assert entry["delta"] == 0.0
        assert entry["delta_over_eps2"] == 0.0

    def test_suboptimality_positive_and_quadratic(self, bundle, params4, sol_power):
        h = lambda t: np.ones((2, np.asarray(t).size))
        perts = [PerturbationSpec(e, h, "flat") for e in (0.2, 0.4)]
        report = optimality_test(bundle, sol_power, perts)
        entries = report["perturbations"]
        for e in entries:
            assert e["delta"] > 0.0
            assert e["z"] > 3.0
        ratio = entries[1]["delta_over_eps2"] / entries[0]["delta_over_eps2"]
        assert 0.7 < ratio < 1.4  # quadratic scaling in epsilon

    def test_crn_pairing_deterministic(self, bundle, params4, sol_power):
        h = lambda t: np.ones((2, np.asarray(t).size))
        r1 = optimality_test(bundle, sol_power, [PerturbationSpec(0.3, h, "f")])
        r2 = optimality_test(bundle, sol_power, [PerturbationSpec(0.3, h, "f")])
        assert r1["perturbations"][0]["delta"] == r2["perturbations"][0]["delta"]

    def test_perturbation_spec_guard(self):
        with pytest.raises(ValueError):
            PerturbationSpec(-0.1, lambda t: t, "bad")
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                PerturbationSpec(eps, lambda t: t, "bad")


class TestMartingaleProfile:
    @pytest.mark.parametrize("kind,variant", [("power", "power_general"),
                                              ("exponential", "exponential_general")])
    def test_profile_flat_and_endpoints(self, bundle, params4, stab4, kind, variant):
        sol = solve_riccati(RiccatiSpec(UtilitySpec(kind, 0.2), params4, stab4, n=200))
        assert sol.variant == variant
        prof = martingale_profile(bundle, sol)
        # J_0 is deterministic (V_0 pinned at its mean) and equals the value
        assert prof["se_paired"][0] == 0.0
        assert prof["j_mean"][0] == pytest.approx(prof["value"], rel=1e-12)
        # J_T = U(X_T): the exponent integral vanishes at t = T
        assert prof["terminal_mean_utility"] == prof["j_mean"][-1]
        run = simulate_wealth(bundle, sol.spec.util, lambda t: optimal_rule(sol, t))
        assert prof["terminal_mean_utility"] == pytest.approx(run.mean, rel=1e-12)
        assert prof["flat_stat"] < 3.5

    def test_j0_is_the_value_at_each_paths_v0(self, params4):
        # Var(V_0) raised so that the value's V_0 factor shows: it departs
        # from 1 by up to 2e-3 on single paths and by 2e-5 in the mean
        p = make_params(params4, c=[2.0, 6.0])
        stab = [build_stabilizer(p.kernel_spec(i), p.c[i], np.linspace(0.0, 1.0, 201)) for i in range(p.d)]
        sol = solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), p, stab, n=200))
        b = simulate_variance(p, stab, SimGrid(T=1.0, n_steps=60), n_paths=5000, seed=21)
        at_mean = value_function(sol)
        per_path = np.array([value_function(sol, v0=v) for v in b.v0.T])
        assert np.max(np.abs(per_path / at_mean - 1.0)) > 1e-3
        target = float(np.mean(per_path))
        assert abs(target / at_mean - 1.0) > 1e-5
        prof = martingale_profile(b, sol)
        assert prof["value"] == pytest.approx(target, rel=1e-13)
        assert prof["j_mean"][0] == pytest.approx(target, rel=1e-12)
        assert value_function(sol, v0=p.x_inf) == at_mean

    @pytest.mark.parametrize("n,gamma", [(60, 0.8), (600, 0.2)])
    @pytest.mark.parametrize("v0_mode", ["mean", "gaussian"])
    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_j0_equals_value_to_rounding(self, params4, stab4, kind, v0_mode, n, gamma):
        # J_0 and the value read one exponent, so they agree to rounding
        # whatever the two grids' resolutions
        sol = solve_riccati(RiccatiSpec(UtilitySpec(kind, gamma), params4, stab4, n=200))
        b = simulate_variance(params4, stab4, SimGrid(T=1.0, n_steps=n), n_paths=200, seed=n, v0_mode=v0_mode)
        prof = martingale_profile(b, sol)
        assert abs(prof["j_mean"][0] / prof["value"] - 1.0) <= 1e-12

    def test_profile_not_flat_under_wrong_psi(self, bundle, params4, stab4, sol_power):
        # feeding the profile psi solved under a mismatched theta should break flatness
        prof = martingale_profile(bundle, wrong_theta_psi(sol_power, params4, stab4, 0.3))
        assert prof["flat_stat"] > 5.0
        gate = profile_gate(prof, TOLERANCES)
        assert gate.stat == prof["flat_stat"] and not gate.passed

    def test_checkpoint_rows(self):
        for n in list(range(1, 60)) + [600, 601, 2400]:
            rows = _checkpoint_rows(n)
            assert rows[0] == 0 and rows[-1] == n and np.all(np.diff(rows) > 0)
            if n <= 24:
                assert np.array_equal(rows, np.arange(n + 1))
            else:
                assert rows.size == 25

    @pytest.mark.parametrize("n", [1, 2, 3, 23, 60, 601])
    def test_kernel_rows_match_dense_matrix(self, params4, sol_power, n):
        times = np.linspace(0.0, 1.0, n + 1)
        dt = times[1]
        rows = _checkpoint_rows(n)
        for i in range(params4.d):
            rv = np.interp(times, (1.0 - sol_power.times)[::-1], sol_power.rhs_values[i][::-1])
            M = dense_kernel_matrix(rv, params4.alpha[i], dt)
            # rows 0 and n are 0 in the dense form too
            assert np.all(M[0] == 0.0) and np.all(M[n] == 0.0)
            assert np.all(np.abs(_kernel_rows(params4.alpha[i], rv, dt, rows) - M[rows]) <= 1e-13 * np.max(np.abs(M)))

    @pytest.mark.parametrize("n", [1, 2, 3, 60])
    @pytest.mark.parametrize("v0_mode", ["mean", "gaussian"])
    @pytest.mark.parametrize(
        "kind,piecewise",
        [
            pytest.param("power", False, id="power"),
            pytest.param("exponential", False, id="exponential"),
            pytest.param("power", True, id="power-piecewise_rate"),
            pytest.param("exponential", True, id="exponential-piecewise_rate"),
        ],
    )
    def test_profile_matches_dense_oracle(
        self, params4, stab4, sol_power, sol_exp, piecewise_market, n, v0_mode, kind, piecewise
    ):
        if piecewise:
            p, sol = piecewise_market[0], piecewise_market[1][kind]
        else:
            p, sol = params4, sol_power if kind == "power" else sol_exp
        P = 300
        b = simulate_variance(p, stab4, SimGrid(T=1.0, n_steps=n), n_paths=P, seed=7 + n, v0_mode=v0_mode)
        J, scale = dense_profile(b, sol)
        prof = martingale_profile(b, sol)
        J = J[_checkpoint_rows(n)]
        assert np.array_equal(prof["times"], b.times[_checkpoint_rows(n)])
        # the exponent may move by 1e-13 max |M dZ| plus rounding; J moves by as much relative
        tol = (1e-13 * scale + 1e-15) * np.max(np.abs(J))
        assert np.all(np.abs(prof["j_mean"] - J.mean(axis=1)) <= tol)
        se = np.std(J - J[0], axis=1, ddof=1) / math.sqrt(P)
        assert np.all(np.abs(prof["se_paired"] - se) <= 2.0 * tol)
        assert prof["terminal_mean_utility"] == pytest.approx(float(np.mean(J[-1])), rel=1e-14)

    def test_requires_dbperp(self, params4, stab4, sol_power):
        grid = SimGrid(T=1.0, n_steps=20)
        b = simulate_variance(params4, stab4, grid, n_paths=10, seed=1, store_bperp=False)
        with pytest.raises(ValueError):
            martingale_profile(b, sol_power)


class TestStationarity:
    @pytest.mark.parametrize("tb", [1, 7, None])
    def test_row_blocked_moment_curves_equal_full_array(self, bundle, monkeypatch, tb):
        # the curves come from each time block's rows: time blocks of 1, 7
        # (the last of 4 rows on 60 steps) and the default 32 steps
        P = bundle.n_paths
        if tb is not None:
            monkeypatch.setattr(simulate, "_TIME_BLOCK", tb)
        curves = moment_curves(bundle)
        for i, Vi in enumerate(bundle.V):
            mean_k = Vi.mean(axis=1)
            sd_k = Vi.std(axis=1, ddof=1)
            var_k = sd_k**2
            dev = Vi - mean_k[:, None]
            dev *= dev
            dev *= dev
            m4 = dev.mean(axis=1)
            se_var = np.sqrt(np.maximum(m4 - var_k**2, 0.0) / P)
            assert np.array_equal(curves[:, i], np.stack([mean_k, var_k, sd_k / math.sqrt(P), se_var]))

    def test_gaussian_initial_condition_is_stationary(self, params4, stab4):
        grid = SimGrid(T=1.0, n_steps=60)
        b = simulate_variance(params4, stab4, grid, n_paths=20_000, seed=33)
        for rep in stationarity_report(b):
            assert rep["mean_stat"] < 3.5
            assert rep["var_stat"] < 3.5
            assert rep["mean_level"] == pytest.approx(params4.x_inf[rep["asset"]])
            assert rep["var_level"] == pytest.approx(params4.v0_var[rep["asset"]])

    def test_nu_zero_exact_stationarity(self, params4, stab4):
        p = make_params(params4, nu=[0.0, 0.0])
        grid = SimGrid(T=1.0, n_steps=20)
        b = simulate_variance(p, stab4, grid, n_paths=100, seed=2, v0_mode="mean")
        reports = stationarity_report(b)
        for i, rep in enumerate(reports):
            # paths are exactly constant at x_inf; the SE floor turns the
            # otherwise-degenerate z-statistics into rounding-noise values
            assert np.all(b.V[i] == p.x_inf[i])
            assert rep["mean_stat"] < 0.1 and rep["var_stat"] < 0.1
            assert rep["mean_level"] == pytest.approx(p.x_inf[i])
            assert rep["var_level"] == 0.0


class TestMemory:
    """Each verify stage holds at most about one (n+1, P) array beyond the bundle."""

    N, P = 200, 4000

    @pytest.fixture(scope="class")
    def big_bundle(self, params4, stab4):
        return simulate_variance(params4, stab4, SimGrid(T=1.0, n_steps=self.N), n_paths=self.P, seed=3)

    @pytest.mark.parametrize("stage", ["simulate_wealth", "optimality_test", "martingale_profile", "stationarity_report"])
    def test_stage_allocates_at_most_one_full_array(self, big_bundle, sol_power, stage):
        h = lambda t: np.ones((2, np.asarray(t).size))
        calls = {
            "simulate_wealth": lambda: simulate_wealth(big_bundle, sol_power.spec.util, lambda t: optimal_rule(sol_power, t)),
            "optimality_test": lambda: optimality_test(big_bundle, sol_power, [PerturbationSpec(e, h) for e in (0.1, 0.2, 0.4)]),
            "martingale_profile": lambda: martingale_profile(big_bundle, sol_power),
            "stationarity_report": lambda: stationarity_report(big_bundle),
        }
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            calls[stage]()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (self.N + 1) * self.P * 8


class TestFold:
    """The time-blocked fold against the path-chunk reductions it replaced,
    and cli's verify, simulate and all, which fold the paths as they are
    made, against the public functions on the stored bundle of the same seed."""

    # 45 paths in path blocks of 20 (the last 5) and 70 steps: time blocks of 32, 32 and 6
    N, P, BLOCK = 70, 45, 20

    @staticmethod
    def perturbations(d):
        """cli's optimality perturbations: +-1 on every asset at three epsilons."""
        return [
            PerturbationSpec(eps, lambda t, sign=sign: np.full((d, np.atleast_1d(t).size), sign), label)
            for sign, label in ((1.0, "uniform"), (-1.0, "-uniform"))
            for eps in (0.1, 0.2, 0.4)
        ]

    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_fold_matches_path_chunk_oracles(self, stab4, piecewise_market, kind):
        p, sols = piecewise_market
        sol = sols[kind]
        b = simulate_variance(p, stab4, SimGrid(T=1.0, n_steps=self.N), self.P, seed=12, block_size=self.BLOCK)
        rules = [lambda t: optimal_rule(sol, t)] + list(TestProductPass.RULES)
        x_T = np.stack([run.x_T for run in simulate_wealth(b, [sol.spec.util] * len(rules), rules)])
        assert np.allclose(x_T, chunked_terminal_wealth(b, sol.spec.util, rules), rtol=1e-12, atol=0.0)
        J = chunked_profile(b, sol)
        prof = martingale_profile(b, sol)
        assert np.allclose(prof["j_mean"], J.mean(axis=1), rtol=1e-12, atol=0.0)
        se = np.std(J - J[0], axis=1, ddof=1) / math.sqrt(self.P)
        # row 0's paired SE is 0 in both
        assert np.allclose(prof["se_paired"], se, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_profile_folds_one_row_per_checkpoint(self, piecewise_market, kind):
        # J = +-exp(row) / gamma: the wealth state rides in the exponent's row,
        # so every weight array has one row per checkpoint, dBperp's included
        p, sols = piecewise_market
        reducer = verify._profile_reducer(p, SimGrid(T=1.0, n_steps=self.N).times, sols[kind])
        m = len(_checkpoint_rows(self.N))
        assert reducer.start.shape == (m,) and reducer.slope.shape == (p.d, m)
        for weights in (reducer.on_v, reducer.on_db, reducer.on_perp):
            assert weights.shape == (p.d, m, self.N)

    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_live_fold_equals_stored_bundle(self, kind):
        config = dataclasses.replace(
            load_config(_default_config_path()),
            n_sim=self.N, n_riccati=50, paths=self.P, block_size=self.BLOCK, utility_kind=kind,
        )
        report, _, profile = cli._verify_gates(config)
        params = config.params
        tabs = cli._stab_tables(config)
        sols = {g: cli._solve(config, tabs, g) for g in config.gammas}
        sol = sols[config.gammas[0]]
        b = simulate_variance(params, tabs, SimGrid(params.T, self.N), self.P, config.seed, block_size=self.BLOCK)
        runs = simulate_wealth(
            b, [s.spec.util for s in sols.values()], [lambda t, s=s: optimal_rule(s, t) for s in sols.values()]
        )
        for (g, s), run in zip(sols.items(), runs):
            entry = report["value_agreement"][f"gamma_{g:g}"]
            assert (entry["mc_mean"], entry["mc_se"]) == (run.mean, run.se)
            assert entry["target"] == value_function(s, v0=b.v0)
        assert report["optimality"]["report"] == optimality_test(b, sol, self.perturbations(params.d))
        prof = martingale_profile(b, sol)
        assert np.array_equal(profile, np.column_stack([prof["times"], prof["j_mean"], prof["se_paired"]]))
        for key in ("flat_stat", "value", "terminal_mean_utility"):
            assert report["martingale_profile"][key] == prof[key]
        assert report["stationarity"]["report"] == stationarity_report(b)
        # simulate and all take their curves from the same pass without reducers
        _, outputs, curves = cli._fold_paths(config, tabs)
        assert outputs == []
        assert np.array_equal(curves, moment_curves(b))
        assert verify._stationarity(params, curves) == stationarity_report(b)

    def test_verify_holds_one_assets_paths(self):
        # cli's verify holds one asset's V, (n+1, M), and no (d, n, M) array of
        # V, dB or dBperp: its traced peak is bounded by terms stated from the sizes
        n, M, block = 1000, 3000, 250
        config = dataclasses.replace(load_config(_default_config_path()), n_sim=n, paths=M, block_size=block)
        d, tb = config.params.d, _TIME_BLOCK
        q = max(integral_factor(config.params.kernel_spec(i), 1.0 / n, n).shape[1] for i in range(d))
        one_asset = (n + 1) * M * 8
        # the simulator's buffers: the normals of a time block and path block,
        # drawn one ahead into two buffers, and a push's panel and W @ pushed
        normals = 2 * tb * (q + 1) * block * 8
        push = min(simulate._PANEL_BYTES, n * block * 8) + tb * q * block * 8
        # the fold's rows: one per gamma, the optimal rule and six perturbations, and K + 1 of the profile
        rows = len(config.gammas) + 7 + verify._CHECKPOINTS + 1
        # per path: the accumulators and a product's result; a time block's
        # dB and dBperp and two temporaries of its rows
        per_path = (2 * rows + 4 * tb) * M * 8
        # per step: the reducers' weights against V, sqrt(V) dB and sqrt(V) dBperp
        per_step = 3 * d * rows * n * 8
        # the moment curves' two temporaries of a time block's tb + 1 rows
        # (row 0 comes with the first), and 4 MB for what grows with neither
        # n nor M (the Riccati solutions, the factors, imports)
        moments = 2 * (tb + 1) * M * 8
        rest = 4 << 20
        bound = one_asset + normals + push + per_path + per_step + moments + rest
        # no room for a second asset's V, let alone a (d, n, M) array
        assert bound < d * one_asset
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._verify_gates(config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_simulate_holds_one_assets_paths(self, tmp_path):
        # simulate (and all) fold the paths with no reducer: one asset's V,
        # (n+1, M), and no (d, n, M) array of V or dB
        n, M, block = 1000, 3000, 250
        config = dataclasses.replace(
            load_config(_default_config_path()), n_sim=n, paths=M, block_size=block, out_dir=str(tmp_path)
        )
        d, tb = config.params.d, _TIME_BLOCK
        q = max(integral_factor(config.params.kernel_spec(i), 1.0 / n, n).shape[1] for i in range(d))
        one_asset = (n + 1) * M * 8
        # the simulator's buffers, as in verify's bound
        normals = 2 * tb * (q + 1) * block * 8
        push = min(simulate._PANEL_BYTES, n * block * 8) + tb * q * block * 8
        # a time block's dB and dBperp and two temporaries of its rows; the
        # moment curves' two temporaries of a time block's tb + 1 rows
        per_path = (4 * tb + 2 * (tb + 1)) * M * 8
        # 4 MB for what grows with neither n nor M, and the curves and CSV
        # lines, which grow with n alone
        rest = 4 << 20
        bound = one_asset + normals + push + per_path + rest
        assert bound < d * one_asset
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli._cmd_simulate(config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestGates:
    """Each gate passes iff its statistic is within its threshold, and each
    elementary gate's record fails under a named wrong model (5 000 paths x 60 steps)."""

    UNIFORM = [PerturbationSpec(e, lambda t: np.ones((2, np.asarray(t).size)), "uniform") for e in (0.1, 0.2, 0.4)]
    TWO_SIDED = UNIFORM + [
        PerturbationSpec(e, lambda t: -np.ones((2, np.asarray(t).size)), "-uniform") for e in (0.1, 0.2, 0.4)
    ]

    def test_verdict(self):
        assert Gate("g", 3.0, 3.0).passed and not Gate("g", 3.0 + 1e-15, 3.0).passed
        assert not Gate("g", float("nan"), 3.0).passed
        # a NaN z fails both optimality gates
        nan_z = {"perturbations": [{"epsilon": 0.1, "z": 5.0}, {"epsilon": 0.4, "z": float("nan")}]}
        assert [g.passed for g in optimality_gates(nan_z, TOLERANCES)] == [False, False]

    def test_each_family_reads_its_own_tolerance(self):
        tol = {key: float(k + 1) for k, key in enumerate(TOLERANCES)}
        run = verify.WealthRun(None, None, mean=1.0, se=0.25)
        assert value_gate("v", run, -2.0, tol).threshold == 0.5 + 2.0 * tol["value_rel_allowance"]
        opt = {"perturbations": [{"epsilon": 0.1, "z": 1.0}, {"epsilon": 0.4, "z": 2.0}]}
        assert [g.threshold for g in optimality_gates(opt, tol)] == [tol["optimality_z"], -tol["optimality_z"]]
        assert profile_gate({"flat_stat": 0.0}, tol).threshold == tol["profile_z"]
        report = [{"asset": 0, "mean_stat": 0.0, "var_stat": 0.0}]
        assert {g.threshold for g in stationarity_gates(report, tol)} == {tol["stationarity_z"]}
        residual = residual_gates("asset_1", 0.0, 0.0, tol)
        assert [g.threshold for g in residual] == [tol["stabilizer_residual"], tol["resolvent_residual"]]

    def test_stationarity_fails_with_stabilizers_at_0_8_c(self, params4):
        # varsigma^2 scales with c: tables built at 0.8 c let Var(V_t) drift
        # below its stationary level
        grid = np.linspace(0.0, params4.T, 201)
        low = [build_stabilizer(params4.kernel_spec(i), 0.8 * params4.c[i], grid) for i in range(params4.d)]
        b = simulate_variance(params4, low, SimGrid(T=1.0, n_steps=60), n_paths=5000, seed=0)
        report = stationarity_report(b)
        gates = stationarity_gates(report, TOLERANCES)
        assert [g.name for g in gates] == [f"stationarity.asset_{i}.{m}" for i in (1, 2) for m in ("mean", "var")]
        assert [g.stat for g in gates] == [r[f"{m}_stat"] for r in report for m in ("mean", "var")]
        failed = {g.name for g in gates if not g.passed}
        assert "stationarity.asset_2.var" in failed
        assert max(g.stat for g in gates) > 6.0

    def test_value_agreement_fails_under_wrong_psi(self, bundle, params4, stab4, sol_power):
        wrong = wrong_theta_psi(sol_power, params4, stab4, 0.3)
        gates = {}
        for name, sol in (("right", sol_power), ("wrong", wrong)):
            run = simulate_wealth(bundle, sol.spec.util, lambda t: optimal_rule(sol, t))
            target = value_function(sol, v0=bundle.v0)
            gates[name] = value_gate(name, run, target, TOLERANCES)
            assert gates[name].threshold == 2.0 * run.se + 0.005 * abs(target)
        assert gates["right"].passed
        assert not gates["wrong"].passed and gates["wrong"].stat > 2.0 * gates["wrong"].threshold

    def test_no_gain_fails_for_a_rule_that_ignores_the_risk_premium(self, bundle, params4, stab4):
        # the rule solved at theta = 0 holds no risky asset; more of it gains
        p0 = make_params(params4, theta=[0.0, 0.0])
        sol0 = solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), p0, stab4, n=200))
        gates = optimality_gates(optimality_test(bundle, sol0, self.UNIFORM), TOLERANCES)
        assert [g.name for g in gates] == ["optimality.no_gain", "optimality.detects"]
        assert not gates[0].passed and gates[0].stat > 3.0

    def test_no_gain_fails_for_a_rule_that_overshoots(self, bundle, params4, stab4):
        # the rule solved at theta = 0.3 holds three times the optimal
        # multiplier: it passes both gates on +eps alone, and less of every
        # asset gains
        p3 = make_params(params4, theta=[0.3, 0.3])
        sol3 = solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), p3, stab4, n=200))
        one_sided = optimality_gates(optimality_test(bundle, sol3, self.UNIFORM), TOLERANCES)
        assert [g.passed for g in one_sided] == [True, True]
        report = optimality_test(bundle, sol3, self.TWO_SIDED)
        no_gain, detects = optimality_gates(report, TOLERANCES)
        zs = {(e["label"], e["epsilon"]): e["z"] for e in report["perturbations"]}
        assert no_gain.stat == -min(zs.values()) > 3.0 and not no_gain.passed
        # detects takes the worse of the two eps = 0.4 sides: -0.4 gains too
        assert detects.stat == -zs["-uniform", 0.4] > 0.0 and not detects.passed

    def test_detects_fails_when_the_largest_perturbation_crosses_the_optimum(self, params4, stab4):
        # at theta = 0.16 the optimal multiplier is 0.2: the rule solved at
        # theta = 0 is 0.2 short, so eps = 0.4 lands as far past the optimum
        # and loses nothing
        p = make_params(params4, theta=[0.16, 0.16])
        b = simulate_variance(p, stab4, SimGrid(T=1.0, n_steps=60), n_paths=5000, seed=0)
        p0 = make_params(params4, theta=[0.0, 0.0])
        sol0 = solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), p0, stab4, n=200))
        report = optimality_test(b, sol0, self.UNIFORM)
        detects = optimality_gates(report, TOLERANCES)[1]
        assert detects.stat == -report["perturbations"][-1]["z"] and detects.threshold == -3.0
        assert not detects.passed

    @pytest.mark.parametrize("i", [0, 1])
    def test_functional_residual_fails_for_a_series_solved_at_the_wrong_alpha(self, params4, i):
        spec = params4.kernel_spec(i)
        grid = np.linspace(0.0, params4.T, 201)
        wrong = build_stabilizer(KernelSpec(spec.alpha - 0.05, spec.lam), params4.c[i], grid)
        right = build_stabilizer(spec, params4.c[i], grid)
        for table, ok in ((right, True), (dataclasses.replace(wrong, spec=spec), False)):
            gate = residual_gates("asset", functional_equation_residual(table), 0.0, TOLERANCES)[0]
            assert gate.name == "stabilizer.asset.functional_residual" and gate.passed == ok

    @pytest.mark.parametrize("i", [0, 1])
    def test_resolvent_residual_fails_for_a_resolvent_at_the_wrong_rate(self, params4, monkeypatch, i):
        spec = params4.kernel_spec(i)
        sample = np.linspace(params4.T / 50.0, params4.T, 50)
        right = float(np.max(resolvent_residual(spec, sample)))
        real = kernels.resolvent
        monkeypatch.setattr(kernels, "resolvent", lambda s, t: real(KernelSpec(s.alpha, 0.8 * s.lam), t))
        wrong = float(np.max(resolvent_residual(spec, sample)))
        gates = [residual_gates("asset", 0.0, r, TOLERANCES)[1] for r in (right, wrong)]
        assert gates[0].name == "stabilizer.asset.resolvent_residual"
        assert [g.passed for g in gates] == [True, False]
