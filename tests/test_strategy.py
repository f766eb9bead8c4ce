import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from roughmerton.riccati import RiccatiSpec, solve_riccati
from roughmerton.simulate import ModelParams, RateCurve
from roughmerton.strategy import UtilitySpec, g0_curve, optimal_rule, value_function


def make_params(params4, **overrides):
    kw = dict(
        alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
        rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
    )
    kw.update(overrides)
    return ModelParams(**kw)


def rate_integral_by_pieces(rate, t0, t1):
    """int_{t0}^{t1} r, summed piece by piece between the knots inside (t0, t1)."""
    edges = np.concatenate([[t0], rate.knots[(rate.knots > t0) & (rate.knots < t1)], [t1]])
    return float(np.sum(rate(edges[:-1]) * np.diff(edges)))


def solve(kind, gamma, params, stabs, n=200, degenerate=False):
    return solve_riccati(RiccatiSpec(UtilitySpec(kind, gamma), params, stabs, n, degenerate))


@pytest.fixture(scope="module")
def sol_power(params4, stab4):
    return solve("power", 0.2, params4, stab4)


@pytest.fixture(scope="module")
def sol_exp(params4, stab4):
    return solve("exponential", 0.2, params4, stab4)


class TestUtilitySpec:
    def test_u_values(self):
        pw = UtilitySpec("power", 0.5)
        assert pw.u(4.0) == pytest.approx(4.0, rel=1e-15)
        ex = UtilitySpec("exponential", 2.0)
        assert ex.u(0.0) == -0.5
        assert ex.u(1.0) == pytest.approx(-math.exp(-2.0) / 2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilitySpec("log", 0.5)
        with pytest.raises(ValueError):
            UtilitySpec("power", 1.0)
        with pytest.raises(ValueError):
            UtilitySpec("exponential", 0.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["power", "exponential"])
    def test_non_finite_gamma_rejected(self, kind, gamma):
        with pytest.raises(ValueError):
            UtilitySpec(kind, gamma)


class TestG0Curve:
    def test_values_and_guard(self, params4):
        s = np.array([0.0, 0.5, 1.0])
        g0 = g0_curve(params4, s)
        assert g0.shape == (2, 3)
        assert np.allclose(g0[:, 0], params4.x_inf)
        for i in range(2):
            ref = params4.x_inf[i] + params4.mu0[i] * s ** params4.alpha[i] / sp_gamma(
                params4.alpha[i] + 1.0
            )
            assert np.allclose(g0[i], ref, rtol=1e-14)
        with pytest.raises(ValueError):
            g0_curve(params4, -0.1)


class TestOptimalRule:
    def test_terminal_rule_is_myopic(self, params4, sol_power, sol_exp):
        # psi(0) = 0, so the hedging demand vanishes at t = T
        assert np.allclose(optimal_rule(sol_power, 1.0), params4.theta / 0.8)
        assert np.allclose(optimal_rule(sol_exp, 1.0), params4.theta / 0.2)
        # the same on the solver grid
        rules = optimal_rule(sol_power, sol_power.times)
        assert rules.shape == (2, 201)
        assert np.allclose(rules[:, -1], params4.theta / 0.8)

    def test_exponential_rule_exceeds_myopic_for_negative_rho(self, params4, sol_exp):
        # rho < 0 and psi <= 0 make the hedging term positive
        pi = optimal_rule(sol_exp, np.linspace(0.0, 1.0, 21))
        assert np.all(pi >= params4.theta[:, None] / 0.2 - 1e-15)
        # strict on (0, T): varsigma(0) = 0 and psi(0) = 0 kill the endpoints
        assert np.all(pi[:, 1:-1] > params4.theta[:, None] / 0.2)

    def test_degenerate_matches_general(self, params4, stab4):
        p = make_params(params4, rho=[-0.6, -0.6])
        sol_g = solve("power", 0.2, p, stab4, n=150)
        sol_d = solve("power", 0.2, p, stab4, n=150, degenerate=True)
        t = np.linspace(0.0, 1.0, 13)
        assert np.allclose(optimal_rule(sol_g, t), optimal_rule(sol_d, t), atol=1e-10)

    def test_degenerate_rule_hand_formula(self, params4, stab4):
        # (theta + delta(gamma) rho nu varsigma psi_deg(T - t)) / (1 - gamma), gamma from the spec
        p = make_params(params4, rho=[-0.6, -0.6])
        sol = solve("power", 0.5, p, stab4, n=150, degenerate=True)
        g = sol.spec.util.gamma
        delta = (1.0 - g) / (1.0 - g + g * 0.36)
        t = np.linspace(0.0, 1.0, 151)
        for i in range(2):
            sig = np.asarray(stab4[i](t))
            hand = (p.theta[i] + delta * p.rho[i] * p.nu[i] * sig * sol.psi[i][::-1]) / (1.0 - g)
            assert np.allclose(optimal_rule(sol, t)[i], hand, rtol=1e-14, atol=0.0)

    def test_exponential_discounting(self, params4, stab4):
        rate = RateCurve(knots=[0.0], values=[0.05])
        p = make_params(params4, rate=rate)
        sol = solve("exponential", 0.2, p, stab4, n=100)
        pi0 = optimal_rule(sol, 0.0)
        # at t = 0 the discount over [0, T] is e^{-0.05}
        base = p.theta + p.rho * p.nu * np.array(
            [float(stab4[i](0.0)) for i in range(2)]
        ) * sol.psi[:, -1]
        assert np.allclose(pi0, math.exp(-0.05) * base / 0.2, rtol=1e-12)

    def test_exponential_discount_matches_per_t_integrals(self, params4, stab4):
        rate = RateCurve(knots=[0.0, 0.3, 0.7], values=[0.02, 0.05, 0.01])
        p = make_params(params4, rate=rate)
        t = np.linspace(0.0, 1.0, 41)
        pi = optimal_rule(solve("exponential", 0.5, p, stab4, n=100), t)
        # the rate does not enter the Riccati equation, only the discount
        flat = optimal_rule(solve("exponential", 0.5, make_params(params4), stab4, n=100), t)
        disc = np.array([math.exp(-rate_integral_by_pieces(rate, ti, 1.0)) for ti in t])
        assert np.allclose(pi, disc[None, :] * flat, rtol=1e-14, atol=0.0)

    def test_rule_domain_and_variant_checks(self, params4, stab4, sol_power):
        with pytest.raises(ValueError):
            optimal_rule(sol_power, -0.1)
        with pytest.raises(ValueError):
            optimal_rule(sol_power, 1.5)
        # the divisor 1 - gamma is the solved utility's
        sol = solve("power", 0.5, params4, stab4, n=50)
        assert np.allclose(optimal_rule(sol, 1.0), params4.theta / 0.5)


class TestValueFunction:
    def test_power_homogeneity(self, params4, sol_power):
        v1 = value_function(sol_power, x0=1.0)
        v3 = value_function(sol_power, x0=3.0)
        assert v3 == pytest.approx(3.0**0.2 * v1, rel=1e-14)

    def test_exponential_translation(self, params4, sol_exp):
        # with r = 0, V(x0 + h) = e^{-gamma h} V(x0)
        v1 = value_function(sol_exp, x0=1.0)
        v2 = value_function(sol_exp, x0=2.5)
        assert v2 == pytest.approx(math.exp(-0.2 * 1.5) * v1, rel=1e-13)

    def test_theta_zero_closed_form(self, params4, stab4):
        # theta = 0: psi = 0, exponent = 0, so the value is U(e^{int r} x0)
        p = make_params(params4, theta=[0.0, 0.0], rate=RateCurve(knots=[0.0], values=[0.03]))
        sol = solve("power", 0.2, p, stab4, n=100)
        assert value_function(sol, x0=2.0) == pytest.approx(
            2.0**0.2 / 0.2 * math.exp(0.2 * 0.03), rel=1e-13
        )
        sol_e = solve("exponential", 0.4, p, stab4, n=100)
        assert value_function(sol_e, x0=2.0) == pytest.approx(
            -1.0 / 0.4 * math.exp(-0.4 * math.exp(0.03) * 2.0), rel=1e-13
        )

    def test_value_exceeds_merton_line(self, params4, sol_power):
        # optimal investment beats holding the bank account alone
        assert value_function(sol_power, x0=1.0) > sol_power.spec.util.u(1.0)

    def test_errors(self, params4, stab4, sol_power):
        with pytest.raises(ValueError):
            value_function(sol_power, x0=0.0)
        p = make_params(params4, rho=[-0.6, -0.6])
        sol_d = solve("power", 0.2, p, stab4, n=100, degenerate=True)
        with pytest.raises(ValueError):
            value_function(sol_d)

