import dataclasses
import math

import numpy as np
import pytest

from roughmerton.riccati import RiccatiSpec, solve_riccati
from roughmerton.simulate import ModelParams, RateCurve, SimGrid, simulate_variance
from roughmerton.stabilizer import build_stabilizer
from roughmerton.strategy import UtilitySpec, optimal_rule, value_function
from roughmerton.verify import (
    PerturbationSpec,
    _terminal_wealth,
    _wealth_path,
    martingale_profile,
    optimality_test,
    simulate_wealth,
    stationarity_report,
)


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
        X = _wealth_path(b, util, zero_rule(2))
        bank = np.array([math.exp(rate.integral(0.0, t)) for t in b.times])
        assert np.allclose(X, p.x0 * bank[:, None], rtol=1e-15, atol=0.0)
        run = simulate_wealth(b, util, zero_rule(2))
        assert np.allclose(run.x_T, p.x0 * bank[-1], rtol=1e-15, atol=0.0)

    def test_power_wealth_positive_and_stats(self, bundle, params4, sol_power):
        util = UtilitySpec("power", 0.2)
        rule = lambda t: np.ones((2, np.asarray(t).size))
        run = simulate_wealth(bundle, util, rule)
        X = _wealth_path(bundle, util, rule)
        assert np.all(run.x_T > 0.0)
        assert np.all(X > 0.0)
        assert np.allclose(X[-1], run.x_T, rtol=1e-12)
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
    """The stacked product pass and the wealth path against the step-by-step march."""

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

        x_T = _terminal_wealth(b, util, list(self.RULES))
        assert x_T.shape == (3, 700)
        for k, rule in enumerate(self.RULES):
            ref = march_wealth(b, util, rule)
            assert close(x_T[k], ref[-1])
            assert close(simulate_wealth(b, util, rule).x_T, ref[-1])
            assert close(_wealth_path(b, util, rule), ref)

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


class TestMartingaleProfile:
    @pytest.mark.parametrize("kind,variant", [("power", "power_general"),
                                              ("exponential", "exponential_general")])
    def test_profile_flat_and_endpoints(self, bundle, params4, stab4, kind, variant):
        sol = solve_riccati(RiccatiSpec(UtilitySpec(kind, 0.2), params4, stab4, n=200))
        assert sol.variant == variant
        prof = martingale_profile(bundle, sol)
        # J_0 is deterministic (V_0 pinned at its mean) and equals the value
        assert prof["se_paired"][0] == 0.0
        assert prof["j_mean"][0] == pytest.approx(prof["value"], rel=1e-6)
        # J_T = U(X_T) exactly: the exponent integral vanishes at t = T
        assert prof["j_mean"][-1] == pytest.approx(prof["terminal_mean_utility"], rel=1e-12)
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
        assert prof["j_mean"][0] == pytest.approx(target, rel=1e-6)
        assert value_function(sol, v0=p.x_inf) == at_mean

    def test_profile_not_flat_under_wrong_psi(self, bundle, params4, stab4, sol_power):
        # feeding the profile psi solved under a mismatched theta should break flatness
        p_wrong = make_params(params4, theta=[0.3, 0.3])
        sol_wrong = solve_riccati(RiccatiSpec(UtilitySpec("power", 0.2), p_wrong, stab4, n=200))
        wrong_psi = dataclasses.replace(sol_power, psi=sol_wrong.psi, rhs_values=sol_wrong.rhs_values)
        prof = martingale_profile(bundle, wrong_psi)
        assert prof["flat_stat"] > 5.0

    def test_requires_dbperp(self, params4, stab4, sol_power):
        grid = SimGrid(T=1.0, n_steps=20)
        b = simulate_variance(params4, stab4, grid, n_paths=10, seed=1, store_bperp=False)
        with pytest.raises(ValueError):
            martingale_profile(b, sol_power)


class TestStationarity:
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
