import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betaln, gammaln
from test_kernels import f_l2_sq_unit_quadrature

from roughmerton.kernels import KernelSpec, f_l2_norm, resolvent, resolvent_density
from roughmerton.stabilizer import (
    _K_CAP,
    StabilizerTable,
    _series_convolution,
    _series_sq_scaled,
    _trust_radius,
    build_stabilizer,
    functional_equation_residual,
    stabilizer_coefficients,
    stabilizer_eval,
)

mp.mp.dps = 50


def cauchy_bb(alpha: float, n: int) -> np.ndarray:
    b = np.exp(-gammaln(alpha * (np.arange(n) + 1)))
    return np.array([np.sum(b[: k + 1] * b[k::-1]) for k in range(n)])


def coefficients_loop_reference(alpha: float, n_coeffs: int) -> np.ndarray:
    """The c_k recurrence with every prefactor and Beta value formed inside the k loop."""
    K = n_coeffs - 1
    ks = np.arange(K + 1)
    a = np.exp(-gammaln(alpha * ks + 1.0))
    b = np.exp(-gammaln(alpha * (ks + 1)))
    ab = np.array([np.sum(a[: k + 1] * b[k::-1]) for k in range(K + 1)])
    bb = cauchy_bb(alpha, K + 1)
    log_g2a1, log_ga = gammaln(2.0 * alpha - 1.0), gammaln(alpha)
    c = np.empty(K + 1)
    c[0] = math.exp(2.0 * log_ga - log_g2a1 - gammaln(2.0 - alpha))
    for k in range(1, K + 1):
        pref = math.exp(
            2.0 * log_ga + gammaln(alpha * (k + 1)) - log_g2a1 - gammaln(alpha * k + 2.0 - alpha)
        )
        ells = np.arange(1, k + 1)
        beta_vals = np.exp(betaln(alpha * (ells + 2) - 1.0, alpha * (k - ells - 1) + 2.0))
        conv = np.sum(beta_vals * bb[1 : k + 1] * c[k - 1 :: -1][:k])
        c[k] = pref * (ab[k] - alpha * (k + 1) * conv)
    return c


def series_convolution_einsum(table: StabilizerTable, grid: np.ndarray) -> np.ndarray:
    """(f^2 * varsigma^2)(t) as the double sum sum_{m,j} t^(a m) M[m, j] t^(a j)."""
    alpha, lam, c = table.spec.alpha, table.spec.lam, table.c
    ks = np.arange(table.coeffs.size)
    d = (-lam) ** ks * cauchy_bb(alpha, ks.size)
    e = (-lam) ** ks * table.coeffs
    beta_mat = np.exp(
        betaln(2.0 * alpha - 1.0 + alpha * ks[:, None], 2.0 - alpha + alpha * ks[None, :])
    )
    M = beta_mat * d[:, None] * e[None, :]
    powers = grid[:, None] ** (alpha * ks[None, :])
    return 2.0 * c * lam**3 * grid**alpha * np.einsum("tm,mj,tj->t", powers, M, powers)


def trust_radius_scan(alpha: float, coeffs: np.ndarray) -> float:
    """The trust-radius scan one tau at a time, stopping at the first untrusted tau."""
    k = np.arange(coeffs.size)
    trusted = 1e-4
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in np.geomspace(1e-4, 1e4, 200):
            terms = (-1.0) ** k * coeffs * tau ** (alpha * k)
            total = np.sum(terms)
            if not (total > 0.0 and abs(terms[-1]) < 1e-12 * total):
                break
            trusted = tau
    return trusted


def full_series_table(spec: KernelSpec, c: float, grid: np.ndarray) -> StabilizerTable:
    """The table of a build that always keeps all 200 series coefficients."""
    coeffs = stabilizer_coefficients(spec.alpha, 200)
    limit = math.sqrt(c) * spec.lam / f_l2_norm(spec)
    radius = _trust_radius(spec.alpha, coeffs)
    values = stabilizer_eval(spec, c, coeffs, grid, limit=limit, radius=radius)
    return StabilizerTable(
        spec=spec, c=c, coeffs=coeffs, grid=grid, values=values, limit=limit, radius=radius
    )


def c0_ref(alpha: float) -> float:
    return float(mp.gamma(alpha) ** 2 / (mp.gamma(2 * alpha - 1) * mp.gamma(2 - alpha)))


def c1_ref(alpha: float) -> float:
    """First-order coefficient from the recurrence, evaluated independently."""
    a = mp.mpf(alpha)
    ab1 = 1 / mp.gamma(2 * a) + 1 / (mp.gamma(a + 1) * mp.gamma(a))
    bb1 = 2 / (mp.gamma(a) * mp.gamma(2 * a))
    pref = mp.gamma(a) ** 2 * mp.gamma(2 * a) / (mp.gamma(2 * a - 1) * mp.gamma(2))
    return float(pref * (ab1 - 2 * a * mp.beta(3 * a - 1, 2 - a) * bb1 * c0_ref(alpha)))


class TestCoefficients:
    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    def test_c0_closed_form(self, alpha):
        c = stabilizer_coefficients(alpha, 3)
        assert c[0] == pytest.approx(c0_ref(alpha), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    def test_c1_recurrence_oracle(self, alpha):
        c = stabilizer_coefficients(alpha, 3)
        assert c[1] == pytest.approx(c1_ref(alpha), rel=1e-12)

    def test_c0_tends_to_one_at_alpha_one(self):
        assert stabilizer_coefficients(0.9999, 1)[0] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_out_of_range_alpha(self):
        for alpha in (0.5, 1.0, 1.2):
            with pytest.raises(ValueError):
                stabilizer_coefficients(alpha, 5)

    def test_coefficients_finite_to_cap(self):
        c = stabilizer_coefficients(0.6, 200)
        assert np.all(np.isfinite(c))

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7, 0.75, 0.9, 0.95])
    def test_hoisted_prefactors_match_loop(self, alpha):
        got = stabilizer_coefficients(alpha, 200)
        assert np.allclose(got, coefficients_loop_reference(alpha, 200), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9, 0.95])
    def test_stopped_recurrence_is_a_prefix(self, alpha):
        full = stabilizer_coefficients(alpha, 200)
        for u in (0.01, 0.2, 1.0, 3.0):
            short = stabilizer_coefficients(alpha, 200, u=u)
            assert short.size < 200
            assert np.array_equal(short, full[: short.size])
        sizes = [stabilizer_coefficients(alpha, 200, u=u).size for u in (0.2, 3.0)]
        assert sizes[0] < sizes[1]


class TestStabilizerValues:
    @pytest.mark.parametrize("alpha,lam,c", [(0.9, 0.2, 0.01), (0.6, 0.6, 0.03)])
    def test_convolution_equation_oracle(self, alpha, lam, c):
        # (f^2 * varsigma^2)(t) = c lam^2 (1 - R(t)^2), checked by adaptive
        # quadrature independent of the coefficient recurrence's residual form
        spec = KernelSpec(alpha, lam)
        tab = build_stabilizer(spec, c, np.linspace(0.0, 1.0, 101))
        p = 2.0 * alpha - 1.0
        for t in (0.2, 0.6, 1.0):

            def integrand(w):
                v = w ** (1.0 / p)
                fv = float(resolvent_density(spec, np.array([v]))[0])
                return fv**2 * float(tab(t - v)) ** 2 * v ** (1.0 - p) / p

            lhs, _ = quad(integrand, 0.0, t**p, epsabs=1e-13, epsrel=1e-11, limit=300)
            rhs = c * lam**2 * (1.0 - float(resolvent(spec, t)) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_zero_at_origin_and_nonnegative(self, stab4):
        for tab in stab4:
            assert tab.values[0] == 0.0
            assert np.all(tab.values >= 0.0)

    def test_long_time_limit(self):
        spec = KernelSpec(0.9, 0.2)
        tab = build_stabilizer(spec, 0.01, np.linspace(0.0, 1.0, 11))
        t_far = 2000.0
        assert float(tab(t_far)) == pytest.approx(tab.limit, rel=0.01)
        assert tab.limit == pytest.approx(math.sqrt(0.01) * 0.2 / f_l2_norm(spec), rel=1e-14)

    def test_scaling_law_exact(self):
        # varsigma_{a,lam,c}(t) = sqrt(c) lam^(1 - 1/(2a)) varsigma_{a,1,1}(lam^(1/a) t)
        alpha, lam, c = 0.6, 0.6, 0.03
        coeffs = stabilizer_coefficients(alpha, 60)
        t = np.linspace(0.0, 1.0, 41)
        lhs = stabilizer_eval(KernelSpec(alpha, lam), c, coeffs, t)
        rhs = (
            math.sqrt(c)
            * lam ** (1.0 - 1.0 / (2.0 * alpha))
            * stabilizer_eval(KernelSpec(alpha, 1.0), 1.0, coeffs, lam ** (1.0 / alpha) * t)
        )
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_alpha_one_constant(self):
        tab = build_stabilizer(KernelSpec(1.0, 0.7), 0.02, np.linspace(0.0, 1.0, 11))
        assert np.allclose(tab.values, math.sqrt(2.0 * 0.02 * 0.7), rtol=1e-14)
        assert functional_equation_residual(tab) < 1e-12

    def test_c_zero(self):
        tab = build_stabilizer(KernelSpec(0.9, 0.2), 0.0, np.linspace(0.0, 1.0, 11))
        assert np.all(tab.values == 0.0)
        assert functional_equation_residual(tab) == 0.0

    def test_input_validation(self, stab4):
        with pytest.raises(ValueError):
            build_stabilizer(KernelSpec(0.9, 0.2), -1.0, np.linspace(0.0, 1.0, 11))
        with pytest.raises(ValueError):
            build_stabilizer(KernelSpec(0.9, 0.2), 0.01, np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            stab4[0](-0.5)

    @pytest.mark.parametrize("asset", [0, 1])
    def test_functional_equation_residual(self, stab4, asset):
        assert functional_equation_residual(stab4[asset]) < 5e-4

    @pytest.mark.parametrize("alpha,lam,c", [(0.9, 0.2, 0.01), (0.6, 0.6, 0.03), (0.75, 1.3, 0.02)])
    def test_horner_convolution_matches_double_sum(self, alpha, lam, c):
        tab = build_stabilizer(KernelSpec(alpha, lam), c, np.linspace(0.0, 1.0, 801))
        grid = tab.grid[1:]
        ref = series_convolution_einsum(tab, grid)
        assert np.allclose(_series_convolution(tab, grid), ref, rtol=1e-12, atol=0.0)

    def test_horner_convolution_matches_double_sum_on_stab4(self, stab4):
        for tab in stab4:
            grid = tab.grid[1:]
            ref = series_convolution_einsum(tab, grid)
            got = _series_convolution(tab, grid)
            assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
            lhs = tab.c * tab.spec.lam**2 * (1.0 - resolvent(tab.spec, grid) ** 2)
            ref_res = np.max(np.abs(lhs - ref)) / (tab.c * tab.spec.lam**2)
            assert functional_equation_residual(tab) == pytest.approx(ref_res, abs=1e-14)

    @pytest.mark.parametrize("alpha", np.linspace(0.52, 0.995, 25))
    def test_stored_trust_radius(self, alpha):
        tab = build_stabilizer(KernelSpec(alpha, 0.6), 0.03, np.linspace(0.0, 1.0, 11))
        assert tab.radius == _trust_radius(alpha, tab.coeffs)
        t = np.linspace(0.0, 3.0, 31)
        assert np.array_equal(tab(t), stabilizer_eval(tab.spec, tab.c, tab.coeffs, t))

    def test_trust_radius_matches_scan(self):
        # one vectorised pass over the 200 tau gives the scan's radius bit for bit
        for alpha in np.linspace(0.505, 0.9995, 250):
            coeffs = stabilizer_coefficients(alpha, 200)
            assert _trust_radius(alpha, coeffs) == trust_radius_scan(alpha, coeffs), alpha

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    def test_series_horner_against_mpmath(self, alpha):
        # Horner's rule against the same coefficients summed in 50 digits; a
        # grid x K powers product lost up to 3e-12 relative here (alpha = 0.55)
        coeffs = stabilizer_coefficients(alpha, 200)
        tau = np.linspace(0.0, 8.0, 41)
        got = _series_sq_scaled(alpha, coeffs, tau)
        a = mp.mpf(alpha)
        for t, g in zip(tau[1:], got[1:]):
            T = mp.mpf(t)
            ref = 2 * T ** (1 - a) * mp.fsum((-1) ** k * mp.mpf(c) * T ** (a * k) for k, c in enumerate(coeffs))
            assert g == pytest.approx(float(ref), rel=1e-13)
        assert got[0] == 0.0

    @pytest.mark.parametrize("alpha", [0.975, 0.99, 0.999])
    def test_build_near_alpha_one_is_warning_free(self, alpha):
        # the c_k underflow to subnormals here, and the radius scan reaches
        # taus where tau^(alpha k) overflows; that must stop the scan quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = build_stabilizer(KernelSpec(alpha, 1.0), 0.03, np.linspace(0.0, 1.0, 11))
        assert math.isfinite(tab.radius) and tab.radius > 1.0

    def test_no_trust_radius_without_series(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert build_stabilizer(KernelSpec(1.0, 0.7), 0.02, grid).radius is None
        assert build_stabilizer(KernelSpec(0.9, 0.2), 0.0, grid).radius is None

    @pytest.mark.parametrize("alphas", [(0.9, 0.6), (0.75, 0.55), (0.95, 0.7)])
    def test_values_on_sweep_grids_match_quadrature_build(self, alphas):
        # the benchmark's analytic sweep: packaged lam and c, three alpha pairs;
        # the reference forms the coefficients in the k loop and takes the
        # long-time limit from the quadrature norm
        for alpha, lam, c in zip(alphas, (0.2, 0.6), (0.01, 0.03)):
            spec = KernelSpec(alpha, lam)
            coeffs = coefficients_loop_reference(alpha, 200)
            limit = math.sqrt(c) * lam / math.sqrt(lam ** (1.0 / alpha) * f_l2_sq_unit_quadrature(alpha))
            for n in (200, 800, 1600):
                grid = np.linspace(0.0, 1.0, n + 1)
                tab = build_stabilizer(spec, c, grid)
                assert tab.limit == pytest.approx(limit, rel=1e-9)
                ref = stabilizer_eval(spec, c, coeffs, grid, limit=limit)
                assert np.allclose(tab.values, ref, rtol=1e-12, atol=0.0)
                t_sim = np.linspace(0.0, 1.0, 601)
                ref = stabilizer_eval(spec, c, coeffs, t_sim, limit=limit)
                assert np.allclose(tab(t_sim), ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alphas", [(0.9, 0.6), (0.75, 0.55), (0.95, 0.7)])
    def test_horizon_series_is_the_full_series_on_sweep_grids(self, alphas):
        # the benchmark's analytic sweep: the series stops where the horizon has
        # converged, and every tabulated value, every value at the 601
        # simulation times and the residual are the 200-term build's, bit for bit
        t_sim = np.linspace(0.0, 1.0, 601)
        for alpha, lam, c in zip(alphas, (0.2, 0.6), (0.01, 0.03)):
            spec = KernelSpec(alpha, lam)
            for n in (200, 800, 1600):
                grid = np.linspace(0.0, 1.0, n + 1)
                tab, ref = build_stabilizer(spec, c, grid), full_series_table(spec, c, grid)
                assert tab.coeffs.size < _K_CAP
                assert np.array_equal(tab.coeffs, ref.coeffs[: tab.coeffs.size])
                assert np.array_equal(tab.values, ref.values)
                assert np.array_equal(tab(t_sim), ref(t_sim))
                assert functional_equation_residual(tab) == functional_equation_residual(ref)
                # the shorter series' radius still covers the horizon
                assert lam ** (1.0 / alpha) * grid[-1] < tab.radius <= ref.radius

    def test_unconverged_horizon_keeps_the_cap(self):
        # at tau_T = 35 the 200-term series has not converged: the table keeps
        # every coefficient and the full series' trust radius
        spec, grid = KernelSpec(0.55, 2.0), np.linspace(0.0, 10.0, 201)
        tab, ref = build_stabilizer(spec, 0.03, grid), full_series_table(spec, 0.03, grid)
        assert tab.coeffs.size == _K_CAP
        assert np.array_equal(tab.coeffs, ref.coeffs)
        assert tab.radius == ref.radius < spec.lam ** (1.0 / spec.alpha) * grid[-1]
        assert np.array_equal(tab.values, ref.values)

    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(0.55, 0.95),
        lam=st.floats(0.1, 2.0),
        c=st.floats(1e-4, 0.5),
    )
    def test_residual_small_over_parameter_box(self, alpha, lam, c):
        horizon = min(1.0, 2.0 / lam ** (1.0 / alpha))
        tab = build_stabilizer(KernelSpec(alpha, lam), c, np.linspace(0.0, horizon, 51))
        assert functional_equation_residual(tab) < 1e-8
