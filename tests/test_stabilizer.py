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

import roughmerton.stabilizer as stabilizer
from roughmerton.kernels import KernelSpec, f_l2_norm, resolvent, resolvent_density
from roughmerton.stabilizer import (
    _K_CAP,
    StabilizerDomainError,
    StabilizerTable,
    _log_beta_tables,
    _series_convolution,
    _series_sq_scaled,
    build_stabilizer,
    functional_equation_residual,
    stabilizer_coefficients,
    stabilizer_eval,
)

mp.mp.dps = 50


def cauchy_bb(alpha: float, n: int) -> np.ndarray:
    b = np.exp(-gammaln(alpha * (np.arange(n) + 1)))
    return np.array([np.sum(b[: k + 1] * b[k::-1]) for k in range(n)])


def lgammas(x) -> np.ndarray:
    return np.array([math.lgamma(v) for v in np.ravel(x).tolist()])


def coefficients_loop_reference(alpha: float, n_coeffs: int) -> np.ndarray:
    """The c_k recurrence with every prefactor and Beta value formed inside the
    k loop, from libm's lgamma as the module's tables are: it checks the
    hoisting, not the special-function source."""
    K = n_coeffs - 1
    ks = np.arange(K + 1)
    a = np.exp(-lgammas(alpha * ks + 1.0))
    b = np.exp(-lgammas(alpha * (ks + 1)))
    ab = np.array([np.sum(a[: k + 1] * b[k::-1]) for k in range(K + 1)])
    bb = np.array([np.sum(b[: k + 1] * b[k::-1]) for k in range(K + 1)])
    log_g2a1, log_ga = math.lgamma(2.0 * alpha - 1.0), math.lgamma(alpha)
    c = np.empty(K + 1)
    c[0] = math.exp(2.0 * log_ga - log_g2a1 - math.lgamma(2.0 - alpha))
    for k in range(1, K + 1):
        pref = math.exp(
            2.0 * log_ga + math.lgamma(alpha * (k + 1)) - log_g2a1 - math.lgamma(alpha * (k - 1) + 2.0)
        )
        ells = np.arange(1, k + 1)
        # log B(x, y) = lgamma(x) + lgamma(y) - lgamma(x + y), x + y = alpha (k+1) + 1
        log_beta = lgammas(alpha * (ells + 2) - 1.0) + lgammas(alpha * (k - ells - 1) + 2.0)
        beta_vals = np.exp(log_beta - math.lgamma(alpha * (k + 1) + 1.0))
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


def full_series_table(spec: KernelSpec, c: float, grid: np.ndarray) -> StabilizerTable:
    """The table of a build that always keeps all 200 series coefficients."""
    coeffs = stabilizer_coefficients(spec.alpha, 200)[0]
    limit = math.sqrt(c) * spec.lam / f_l2_norm(spec)
    return StabilizerTable(spec=spec, c=c, coeffs=coeffs, grid=grid, limit=limit)


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
        c = stabilizer_coefficients(alpha, 3)[0]
        assert c[0] == pytest.approx(c0_ref(alpha), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    def test_c1_recurrence_oracle(self, alpha):
        c = stabilizer_coefficients(alpha, 3)[0]
        assert c[1] == pytest.approx(c1_ref(alpha), rel=1e-12)

    def test_c0_tends_to_one_at_alpha_one(self):
        assert stabilizer_coefficients(0.9999, 1)[0][0] == pytest.approx(1.0, abs=1e-3)

    def test_rejects_out_of_range_alpha(self):
        for alpha in (0.5, 1.0, 1.2):
            with pytest.raises(ValueError):
                stabilizer_coefficients(alpha, 5)

    @pytest.mark.parametrize("alpha", [0.51, 0.55, 0.6, 0.75, 0.9, 0.99])
    def test_log_beta_tables_match_scipy(self, alpha):
        # every Beta value of the recurrence and of _series_convolution, l, j < 200:
        # to 1e-13, plus the rounding of a sum of three log Gammas, which
        # reach 1.5e3 here (at l, j ~ 170 scipy and the tables are both
        # ~5e-13 off 40-digit values)
        first, second, total = _log_beta_tables(alpha, 200, 399)
        ls, js = np.arange(200)[:, None], np.arange(200)[None, :]
        got = first[:, None] + second[None, :] - total[ls + js]
        ref = betaln(alpha * (ls + 2) - 1.0, alpha * (js - 1) + 2.0)
        scale = np.abs(first[:, None]) + np.abs(second[None, :]) + np.abs(total[ls + js])
        assert np.all(np.abs(got - ref) <= 1e-13 + 4.0 * np.finfo(float).eps * scale)
        # the sweep configs' tables keep 16 to 36 coefficients; below 30 the plain bound holds
        assert np.max(np.abs(got - ref)[:30, :30]) <= 1e-13

    def test_coefficients_finite_to_cap(self):
        c = stabilizer_coefficients(0.6, 200)[0]
        assert np.all(np.isfinite(c))

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7, 0.75, 0.9, 0.95])
    def test_hoisted_prefactors_match_loop(self, alpha):
        got = stabilizer_coefficients(alpha, 200)[0]
        assert np.allclose(got, coefficients_loop_reference(alpha, 200), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9, 0.95])
    def test_stopped_recurrence_is_a_prefix(self, alpha):
        full, full_spread = stabilizer_coefficients(alpha, 200)
        assert full_spread[0] == 0.0 and np.all(full_spread >= 0.0)
        for u in (0.01, 0.2, 1.0, 3.0):
            short, spread = stabilizer_coefficients(alpha, 200, u=u)
            assert short.size < 200
            assert np.array_equal(short, full[: short.size])
            assert np.array_equal(spread, full_spread[: short.size])
        sizes = [stabilizer_coefficients(alpha, 200, u=u)[0].size for u in (0.2, 3.0)]
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
            values = tab(tab.grid)
            assert values[0] == 0.0
            assert np.all(values >= 0.0)

    def test_long_time_limit(self):
        # the table reports the limit but never returns it past its horizon
        spec = KernelSpec(0.9, 0.2)
        tab = build_stabilizer(spec, 0.01, np.linspace(0.0, 1.0, 11))
        assert tab.limit == pytest.approx(math.sqrt(0.01) * 0.2 / f_l2_norm(spec), rel=1e-14)
        with pytest.raises(StabilizerDomainError):
            tab(2000.0)

    def test_scaling_law_exact(self):
        # varsigma_{a,lam,c}(t) = sqrt(c) lam^(1 - 1/(2a)) varsigma_{a,1,1}(lam^(1/a) t)
        alpha, lam, c = 0.6, 0.6, 0.03
        coeffs = stabilizer_coefficients(alpha, 60)[0]
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
        assert np.allclose(tab(tab.grid), math.sqrt(2.0 * 0.02 * 0.7), rtol=1e-14)
        assert functional_equation_residual(tab) < 1e-12

    def test_c_zero(self):
        tab = build_stabilizer(KernelSpec(0.9, 0.2), 0.0, np.linspace(0.0, 1.0, 11))
        assert np.all(tab(tab.grid) == 0.0)
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
    def test_table_is_the_series_on_its_horizon(self, alpha):
        tab = build_stabilizer(KernelSpec(alpha, 0.6), 0.03, np.linspace(0.0, 1.0, 11))
        t = np.linspace(0.0, 1.0, 31)
        assert np.array_equal(tab(t), stabilizer_eval(tab.spec, tab.c, tab.coeffs, t))
        assert tab(1.0 + 1e-13) == stabilizer_eval(tab.spec, tab.c, tab.coeffs, 1.0 + 1e-13)
        for beyond in (1.0 + 1e-9, 1.5, np.array([0.5, 3.0])):
            with pytest.raises(StabilizerDomainError):
                tab(beyond)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    def test_series_horner_against_mpmath(self, alpha):
        # Horner's rule against the same coefficients summed in 50 digits; a
        # grid x K powers product lost up to 3e-12 relative here (alpha = 0.55)
        coeffs = stabilizer_coefficients(alpha, 200)[0]
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
        # the c_k underflow to subnormals here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = build_stabilizer(KernelSpec(alpha, 1.0), 0.03, np.linspace(0.0, 1.0, 11))
            values = tab(tab.grid)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    def test_no_series_without_use(self):
        # alpha = 1 and c = 0 need no series, so every horizon is in the domain
        grid = np.linspace(0.0, 500.0, 11)
        for spec, c in ((KernelSpec(1.0, 0.7), 0.02), (KernelSpec(0.55, 2.0), 0.0)):
            tab = build_stabilizer(spec, c, grid)
            assert tab.coeffs.size == 0
            assert np.all(np.isfinite(tab(grid)))

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
                ref = stabilizer_eval(spec, c, coeffs, grid)
                assert np.allclose(tab(grid), ref, rtol=1e-12, atol=0.0)
                t_sim = np.linspace(0.0, 1.0, 601)
                ref = stabilizer_eval(spec, c, coeffs, t_sim)
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
                assert np.array_equal(tab(grid), ref(grid))
                assert np.array_equal(tab(t_sim), ref(t_sim))
                assert functional_equation_residual(tab) == functional_equation_residual(ref)

    def test_unconverged_horizon_raises(self):
        # at tau_T = 35 the 200-term series has not converged: no table
        spec, grid = KernelSpec(0.55, 2.0), np.linspace(0.0, 10.0, 401)
        assert stabilizer_coefficients(0.55, _K_CAP, u=2.0 * 10.0**0.55)[0].size == _K_CAP
        with pytest.raises(StabilizerDomainError) as exc:
            build_stabilizer(spec, 0.03, grid)
        assert all(s in str(exc.value) for s in ("alpha=0.55", "lam=2", "T=10", "tau_T", "35.26"))

    @pytest.mark.parametrize("T", [24.0, 30.0])
    def test_inaccurate_horizon_raises(self, T):
        # at (0.9, 1) the series converges at T = 24 and 30 but solves the
        # equation there only to ~1e4 and ~1e9: the rounding spread of its
        # coefficients passes 1e-6 of the series near t = 10
        spec, grid = KernelSpec(0.9, 1.0), np.linspace(0.0, T, 401)
        assert stabilizer_coefficients(0.9, _K_CAP, u=T**0.9)[0].size < _K_CAP
        with pytest.raises(StabilizerDomainError) as exc:
            build_stabilizer(spec, 0.03, grid)
        msg = str(exc.value)
        assert all(s in msg for s in ("alpha=0.9", "lam=1", f"T={T:g}", "only up to t=10.0"))

    @pytest.mark.parametrize(
        "alpha,lam,last", [(0.9, 1.0, 10.0), (0.6, 0.6, 24.5), (0.75, 1.0, 10.0), (0.55, 2.0, 3.0), (0.9, 0.2, 60.5)]
    )
    def test_accuracy_radius_edges(self, alpha, lam, last):
        # README's valid domain: the last horizon that builds, in steps of 0.25;
        # there the series solves the equation to about the radius' 1e-6
        spec = KernelSpec(alpha, lam)
        tab = build_stabilizer(spec, 0.03, np.linspace(0.0, last, 401))
        assert functional_equation_residual(tab) < 1e-6
        with pytest.raises(StabilizerDomainError, match="only up to t="):
            build_stabilizer(spec, 0.03, np.linspace(0.0, last + 0.5, 401))

    def test_negative_series_on_the_grid_raises(self):
        # c_0 - c_1 u turns negative at u = 0.1: t = 0.1^(1/0.9) = 0.077 at lam = 1
        spec, grid = KernelSpec(0.9, 1.0), np.linspace(0.0, 1.0, 101)
        assert stabilizer_eval(spec, 0.03, np.array([1.0, 10.0]), grid[:7]).min() >= 0.0
        with pytest.raises(StabilizerDomainError, match="went negative at t=0.08"):
            stabilizer_eval(spec, 0.03, np.array([1.0, 10.0]), grid)

    def test_build_refuses_a_negative_series_from_its_accuracy_sum(self, monkeypatch):
        # constructed coefficients with no rounding spread: the build reuses its
        # accuracy sum for the negative check, and refuses where stabilizer_eval does
        coeffs = {}
        monkeypatch.setattr(
            stabilizer, "stabilizer_coefficients", lambda *args, **kwargs: (coeffs["c"], np.zeros(coeffs["c"].size))
        )
        spec, c, grid = KernelSpec(0.9, 1.0), 0.03, np.linspace(0.0, 1.0, 101)

        def refusals(c_k):
            coeffs["c"] = np.array(c_k)
            messages = []
            for build in (lambda: build_stabilizer(spec, c, grid), lambda: stabilizer_eval(spec, c, coeffs["c"], grid)):
                with pytest.raises(StabilizerDomainError) as exc:
                    build()
                messages.append(str(exc.value))
            return messages

        # c_0 - c_1 u turns negative at u = 0.1: t = 0.1^(1/0.9) = 0.077; t <= 0.06 builds
        assert refusals([1.0, 10.0]) == ["stabilizer series (alpha=0.9, lam=1) went negative at t=0.08"] * 2
        assert np.all(build_stabilizer(spec, c, grid[:7])(grid[:7]) >= 0.0)
        # a constant series -delta: varsigma^2 = -2 c delta t^0.1 here, against -1e-10 limit^2
        delta = 1e-10 * stabilizer._limit(spec, c) ** 2 / (2.0 * c)
        assert refusals([-1.1 * delta]) == ["stabilizer series (alpha=0.9, lam=1) went negative at t=0.39"] * 2
        coeffs["c"] = np.array([-0.9 * delta])
        assert np.all(build_stabilizer(spec, c, grid)(grid) == 0.0)

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


class TestDomain:
    """The table's domain contract: a build either raises StabilizerDomainError
    or gives a table that holds on its grid and refuses every other time."""

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        lam=st.floats(0.1, 3.0),
        c=st.floats(1e-4, 0.5),
        T=st.floats(0.1, 60.0),
    )
    def test_build_raises_or_holds_on_its_grid(self, alpha, lam, c, T):
        grid = np.linspace(0.0, T, 51)
        try:
            tab = build_stabilizer(KernelSpec(alpha, lam), c, grid)
        except StabilizerDomainError:
            return
        values = tab(grid)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        for t in (T * (1.0 + 1e-9) + 1e-9, 2.0 * T, math.nan, np.array([0.0, math.nan])):
            with pytest.raises(StabilizerDomainError):
                tab(t)

    def test_covers_has_the_call_slack(self, stab4):
        # RiccatiSpec and simulate_variance accept a table iff it covers their T
        for tab in stab4:
            assert tab.covers(1.0) and tab.covers(1.0 + 1e-13) and not tab.covers(1.0 + 1e-9)
