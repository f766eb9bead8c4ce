import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from roughmerton.riccati import RiccatiSpec, solve_riccati
from roughmerton.simulate import ModelParams, RateCurve
from roughmerton.strategy import (
    UtilitySpec,
    g0_curve,
    optimal_rule,
    strategy_profile,
    value_function,
)


def make_params(params4, **overrides):
    kw = dict(
        alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
        rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0, gamma=0.2,
    )
    kw.update(overrides)
    return ModelParams(**kw)


def rate_integral_by_pieces(rate, t0, t1):
    """int_{t0}^{t1} r, summed piece by piece between the knots inside (t0, t1)."""
    edges = np.concatenate([[t0], rate.knots[(rate.knots > t0) & (rate.knots < t1)], [t1]])
    return float(np.sum(rate(edges[:-1]) * np.diff(edges)))


@pytest.fixture(scope="module")
def sol_power(params4, stab4):
    return solve_riccati(RiccatiSpec("power_general", params4, stab4, T=1.0, n=200))


@pytest.fixture(scope="module")
def sol_exp(params4, stab4):
    return solve_riccati(RiccatiSpec("exponential_general", params4, stab4, T=1.0, n=200))


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
        util = UtilitySpec("power", 0.2)
        assert np.allclose(optimal_rule(util, params4, sol_power, 1.0), params4.theta / 0.8)
        ue = UtilitySpec("exponential", 0.2)
        assert np.allclose(optimal_rule(ue, params4, sol_exp, 1.0), params4.theta / 0.2)

    def test_exponential_rule_exceeds_myopic_for_negative_rho(self, params4, sol_exp):
        # rho < 0 and psi <= 0 make the hedging term positive
        util = UtilitySpec("exponential", 0.2)
        pi = optimal_rule(util, params4, sol_exp, np.linspace(0.0, 1.0, 21))
        assert np.all(pi >= params4.theta[:, None] / 0.2 - 1e-15)
        # strict on (0, T): varsigma(0) = 0 and psi(0) = 0 kill the endpoints
        assert np.all(pi[:, 1:-1] > params4.theta[:, None] / 0.2)

    def test_degenerate_matches_general(self, params4, stab4):
        p = make_params(params4, rho=[-0.6, -0.6])
        sol_g = solve_riccati(RiccatiSpec("power_general", p, stab4, T=1.0, n=150))
        sol_d = solve_riccati(RiccatiSpec("power_degenerate", p, stab4, T=1.0, n=150))
        util = UtilitySpec("power", 0.2)
        t = np.linspace(0.0, 1.0, 13)
        assert np.allclose(
            optimal_rule(util, p, sol_g, t), optimal_rule(util, p, sol_d, t), atol=1e-10
        )

    def test_exponential_discounting(self, params4, stab4):
        rate = RateCurve(knots=[0.0], values=[0.05])
        p = make_params(params4, rate=rate)
        sol = solve_riccati(RiccatiSpec("exponential_general", p, stab4, T=1.0, n=100))
        util = UtilitySpec("exponential", 0.2)
        pi0 = optimal_rule(util, p, sol, 0.0)
        # at t = 0 the discount over [0, T] is e^{-0.05}
        base = p.theta + p.rho * p.nu * np.array(
            [float(stab4[i](0.0)) for i in range(2)]
        ) * sol.psi[:, -1]
        assert np.allclose(pi0, math.exp(-0.05) * base / 0.2, rtol=1e-12)

    def test_exponential_discount_matches_per_t_integrals(self, params4, stab4):
        rate = RateCurve(knots=[0.0, 0.3, 0.7], values=[0.02, 0.05, 0.01])
        p = make_params(params4, rate=rate)
        sol = solve_riccati(RiccatiSpec("exponential_general", p, stab4, T=1.0, n=100))
        util = UtilitySpec("exponential", 0.5)
        t = np.linspace(0.0, 1.0, 41)
        pi = optimal_rule(util, p, sol, t)
        flat = optimal_rule(util, make_params(params4), sol, t)
        disc = np.array([math.exp(-rate_integral_by_pieces(rate, ti, 1.0)) for ti in t])
        assert np.allclose(pi, disc[None, :] * flat, rtol=1e-14, atol=0.0)

    def test_rule_domain_and_variant_checks(self, params4, sol_power, sol_exp):
        util = UtilitySpec("power", 0.2)
        with pytest.raises(ValueError):
            optimal_rule(util, params4, sol_exp, 0.5)
        with pytest.raises(ValueError):
            optimal_rule(util, params4, sol_power, -0.1)
        with pytest.raises(ValueError):
            optimal_rule(util, params4, sol_power, 1.5)


class TestValueFunction:
    def test_power_homogeneity(self, params4, sol_power):
        util = UtilitySpec("power", 0.2)
        v1 = value_function(util, params4, sol_power, x0=1.0)
        v3 = value_function(util, params4, sol_power, x0=3.0)
        assert v3 == pytest.approx(3.0**0.2 * v1, rel=1e-14)

    def test_exponential_translation(self, params4, sol_exp):
        # with r = 0, V(x0 + h) = e^{-gamma h} V(x0)
        util = UtilitySpec("exponential", 0.2)
        v1 = value_function(util, params4, sol_exp, x0=1.0)
        v2 = value_function(util, params4, sol_exp, x0=2.5)
        assert v2 == pytest.approx(math.exp(-0.2 * 1.5) * v1, rel=1e-13)

    def test_theta_zero_closed_form(self, params4, stab4):
        # theta = 0: psi = 0, exponent = 0, so the value is U(e^{int r} x0)
        p = make_params(params4, theta=[0.0, 0.0], rate=RateCurve(knots=[0.0], values=[0.03]))
        sol = solve_riccati(RiccatiSpec("power_general", p, stab4, T=1.0, n=100))
        util = UtilitySpec("power", 0.2)
        assert value_function(util, p, sol, x0=2.0) == pytest.approx(
            2.0**0.2 / 0.2 * math.exp(0.2 * 0.03), rel=1e-13
        )
        sol_e = solve_riccati(RiccatiSpec("exponential_general", p, stab4, T=1.0, n=100))
        ue = UtilitySpec("exponential", 0.4)
        assert value_function(ue, p, sol_e, x0=2.0) == pytest.approx(
            -1.0 / 0.4 * math.exp(-0.4 * math.exp(0.03) * 2.0), rel=1e-13
        )

    def test_value_exceeds_merton_line(self, params4, sol_power):
        # optimal investment beats holding the bank account alone
        util = UtilitySpec("power", 0.2)
        assert value_function(util, params4, sol_power, x0=1.0) > util.u(1.0)

    def test_errors(self, params4, stab4, sol_power, sol_exp):
        util = UtilitySpec("power", 0.2)
        with pytest.raises(ValueError):
            value_function(util, params4, sol_power, x0=0.0)
        with pytest.raises(ValueError):
            value_function(util, params4, sol_exp)
        p = make_params(params4, rho=[-0.6, -0.6])
        sol_d = solve_riccati(RiccatiSpec("power_degenerate", p, stab4, T=1.0, n=100))
        with pytest.raises(ValueError):
            value_function(util, p, sol_d)


class TestProfile:
    def test_profile_consistency(self, params4, sol_power):
        util = UtilitySpec("power", 0.2)
        prof = strategy_profile(util, params4, sol_power)
        assert prof.pi_star.shape == (2, 201)
        assert prof.value == pytest.approx(value_function(util, params4, sol_power), rel=1e-15)
        assert np.allclose(prof.pi_star[:, -1], params4.theta / 0.8)
