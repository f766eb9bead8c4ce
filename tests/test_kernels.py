import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as sp_gamma
from scipy.special import gammaln, roots_jacobi

from roughmerton.kernels import (
    KernelSpec,
    _f_smooth,
    _gamma,
    _gammaln,
    _roots_jacobi,
    f_l2_norm,
    mittag_leffler,
    resolvent,
    resolvent_density,
    resolvent_residual,
)

mp.mp.dps = 60


def f_l2_sq_unit_quadrature(alpha: float) -> float:
    """||f_{alpha,1}||^2 over (0, inf), by split quadrature + analytic tail.

    Near 0 the substitution u = w^(1/(2 alpha - 1)) absorbs the t^(2 alpha - 2)
    singularity exactly; the far field uses dyadic panels until the asymptotic
    tail (f ~ alpha t^(-alpha-1)/Gamma(1-alpha)) is negligible, then the tail's
    leading term is added in closed form.
    """
    p = 1.0 / (2.0 * alpha - 1.0)
    spec1 = KernelSpec(alpha, 1.0)

    nodes, weights = np.polynomial.legendre.leggauss(120)
    # [0, 1]: integral = p * int_0^1 S(w^p)^2 dw
    w = 0.5 * (nodes + 1.0)
    near = p * 0.5 * np.sum(weights * _f_smooth(spec1, w**p) ** 2)

    # [1, inf): dyadic panels
    far = 0.0
    lo = 1.0
    tail_coef = (alpha / sp_gamma(1.0 - alpha)) ** 2 / (2.0 * alpha + 1.0)
    for _ in range(80):
        hi = 2.0 * lo
        t = lo + (hi - lo) * 0.5 * (nodes + 1.0)
        far += (hi - lo) * 0.5 * np.sum(weights * resolvent_density(spec1, t) ** 2)
        lo = hi
        if tail_coef * lo ** (-2.0 * alpha - 1.0) < 1e-13 * (near + far):
            break
    return near + far + tail_coef * lo ** (-2.0 * alpha - 1.0)


def resolvent_residual_per_t(spec: KernelSpec, t, n_nodes: int = 60) -> np.ndarray:
    """|R(t) + lam (K * R)(t) - 1|, one Gauss-Jacobi rule and two resolvent calls per t."""
    xi, w = _roots_jacobi(n_nodes, spec.alpha - 1.0, 0.0)
    out = np.empty_like(t)
    for i, ti in enumerate(t):
        s = ti * 0.5 * (1.0 + xi)
        conv = (ti / 2.0) ** spec.alpha / math.gamma(spec.alpha) * np.sum(w * resolvent(spec, s))
        out[i] = abs(resolvent(spec, ti) + spec.lam * conv - 1.0)
    return out


def ml_series_ref(alpha: float, x: float) -> float:
    """High-precision E_alpha(-x) by direct summation (moderate x only)."""
    return float(mp.nsum(lambda k: (-mp.mpf(x)) ** k / mp.gamma(alpha * k + 1), [0, mp.inf], workprec=800))


def ml_asymptotic_ref(alpha: float, x: float, terms: int = 6) -> float:
    """E_alpha(-x) ~ sum_{k>=1} (-1)^(k+1) x^(-k)/Gamma(1-alpha k), large x.

    Truncation error is O(x^(-terms-1)), negligible relative to the leading
    x^(-1) term for x >= 1e3.
    """
    return float(
        sum((-1) ** (k + 1) * mp.mpf(x) ** (-k) * mp.rgamma(1 - alpha * k) for k in range(1, terms + 1))
    )


def ml_ref(alpha: float, beta: float, x) -> mp.mpf:
    """High-precision E_{alpha,beta}(-x), x > 0.

    x <= 40: the defining series, with enough digits for its cancellation
    (the terms reach about exp(x^(1/alpha))); beyond, the asymptotic expansion
    -sum_{k>=1} (-x)^(-k) / Gamma(beta - alpha k).
    """
    a, b, X = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
    if X > 40:
        with mp.workdps(50):
            return -mp.fsum((-X) ** (-k) * mp.rgamma(b - a * k) for k in range(1, 30))
    dps = 40 + int(float(X) ** (1.0 / alpha) / 2.3)
    with mp.workdps(dps):
        total, k = mp.mpf(0), 0
        while True:
            term = (-X) ** k * mp.rgamma(a * k + b)
            total += term
            if k > 10 and abs(term) < mp.mpf(10) ** (5 - dps):
                return +total
            k += 1


def density_ref(alpha: float, lam: float, t: float) -> float:
    """f(t) = lam t^(alpha-1) E_{alpha,alpha}(-lam t^alpha) in high precision."""
    T = mp.mpf(t)
    x = lam * T ** mp.mpf(alpha)
    return float(lam * T ** (mp.mpf(alpha) - 1) * ml_ref(alpha, alpha, x))


class TestMittagLeffler:
    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 1.999, 2.0, 2.001, 5.0, 50.0, 500.0])
    def test_moderate_arguments(self, alpha, x):
        ref = ml_series_ref(alpha, x)
        got = mittag_leffler(alpha, -x)
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9])
    @pytest.mark.parametrize("x", [1e3, 1e4, 1e5])
    def test_large_arguments(self, alpha, x):
        ref = ml_asymptotic_ref(alpha, x)
        assert mittag_leffler(alpha, -x) == pytest.approx(ref, rel=1e-10)

    def test_alpha_one_is_exp(self):
        z = -np.linspace(0.0, 30.0, 7)
        assert np.allclose(mittag_leffler(1.0, z), np.exp(z), rtol=1e-14)

    def test_value_at_zero_and_range(self):
        assert mittag_leffler(0.7, 0.0) == 1.0
        vals = mittag_leffler(0.7, -np.geomspace(1e-8, 1e6, 40))
        assert np.all((vals > 0.0) & (vals < 1.0))

    def test_rejects_bad_alpha_and_positive_z(self):
        with pytest.raises(ValueError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.7, 0.5)

    @pytest.mark.parametrize("z", [math.nan, np.array([-1.0, math.nan]), np.array([-50.0, math.nan])])
    def test_rejects_nan_before_quadrature(self, z):
        # NaN used to pass the z > 0 check and reach quad, with three IntegrationWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z to be a number"):
                mittag_leffler(0.6, z)

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 1.0])
    def test_limit_at_minus_infinity(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mittag_leffler(alpha, -math.inf) == 0.0
            assert np.array_equal(mittag_leffler(alpha, np.array([-math.inf, 0.0])), [0.0, 1.0])

    @pytest.mark.parametrize("alpha", [0.999, 0.9999, 0.999999, 1 - 1e-8, 1 - 1e-10])
    @pytest.mark.parametrize("x", [2.001, 5.0, 20.0, 40.0])
    def test_integral_branch_near_alpha_one(self, alpha, x):
        # the spectral density's peak narrows to width ~pi (1 - alpha) here;
        # both E_{alpha,1} and f must resolve it, and without a quadrature warning
        t = x ** (1.0 / alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = mittag_leffler(alpha, -x)
            f = resolvent_density(KernelSpec(alpha, 1.0), t)
        assert r == pytest.approx(float(ml_ref(alpha, 1.0, x)), rel=1e-10)
        assert f == pytest.approx(density_ref(alpha, 1.0, t), rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.51, 1.0),
        x1=st.floats(1e-6, 50.0),
        ratio=st.floats(1.001, 5.0),
    )
    def test_monotone_decreasing(self, alpha, x1, ratio):
        a, b = mittag_leffler(alpha, -x1), mittag_leffler(alpha, -x1 * ratio)
        assert b < a <= 1.0


class TestKernelAndResolvent:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(alpha=0.5, lam=1.0)
        with pytest.raises(ValueError):
            KernelSpec(alpha=0.9, lam=0.0)

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6), (1.0, 0.7)])
    def test_resolvent_shape(self, alpha, lam):
        spec = KernelSpec(alpha=alpha, lam=lam)
        t = np.linspace(0.0, 5.0, 200)
        r = resolvent(spec, t)
        assert r[0] == 1.0
        assert np.all(np.diff(r) < 0.0)
        assert np.all((r > 0.0) & (r <= 1.0))
        if alpha == 1.0:
            assert np.allclose(r, np.exp(-lam * t), atol=1e-12)

    @pytest.mark.parametrize("fn", [resolvent, resolvent_density])
    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])])
    def test_nan_t_rejected(self, fn, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t to be a number"):
                fn(KernelSpec(alpha=0.6, lam=1.0), t)

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 1.0])
    def test_limits_at_infinity(self, alpha):
        # f(inf) used to be inf * 0 = nan, with a RuntimeWarning
        spec = KernelSpec(alpha=alpha, lam=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolvent(spec, math.inf) == 0.0
            assert resolvent_density(spec, math.inf) == 0.0

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6)])
    def test_density_integrates_to_resolvent_drop(self, alpha, lam):
        # int_0^T f = 1 - R(T): f is the density of the resolvent decrement
        spec = KernelSpec(alpha=alpha, lam=lam)
        T = 2.0
        val, _ = quad(
            lambda u: float(resolvent_density(spec, np.array([u ** (1.0 / alpha)]))[0])
            * u ** (1.0 / alpha - 1.0)
            / alpha,
            0.0,
            T**alpha,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        assert val == pytest.approx(1.0 - resolvent(spec, T), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("x", [0.3, 1.0, 1.999, 2.0, 2.001, 5.0, 50.0, 500.0])
    def test_density_against_mpmath(self, alpha, x):
        # x = lam t^alpha: the series branch up to 2, the integral branch beyond
        lam = 0.6
        t = (x / lam) ** (1.0 / alpha)
        assert resolvent_density(KernelSpec(alpha, lam), t) == pytest.approx(
            density_ref(alpha, lam, t), rel=1e-10
        )

    def test_density_positive_and_singular_at_zero(self):
        spec = KernelSpec(alpha=0.9, lam=0.2)
        assert np.isinf(resolvent_density(spec, 0.0))
        assert np.all(resolvent_density(spec, np.geomspace(1e-6, 100.0, 50)) > 0.0)
        assert resolvent_density(KernelSpec(1.0, 0.5), 0.0) == 0.5

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6), (0.75, 1.3)])
    def test_f_l2_norm_against_plancherel(self, alpha, lam):
        # Fourier transform of f is lam / (lam + (i w)^alpha); Plancherel gives
        # ||f||^2 = (1/pi) int_0^inf |lam / (lam + (i w)^alpha)|^2 dw
        def dens(w):
            iw_a = mp.mpc(0, w) ** alpha
            return abs(lam / (lam + iw_a)) ** 2

        val = mp.quad(dens, [0, lam ** (1 / alpha), mp.inf]) / mp.pi
        assert f_l2_norm(KernelSpec(alpha, lam)) == pytest.approx(float(mp.sqrt(val)), rel=1e-8)

    def test_f_l2_norm_alpha_one(self):
        assert f_l2_norm(KernelSpec(1.0, 0.8)) == pytest.approx(math.sqrt(0.4), rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.7, 0.75, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_f_l2_norm_closed_form_against_quadrature(self, alpha, lam):
        # scaling law ||f_{alpha,lam}||^2 = lam^(1/alpha) ||f_{alpha,1}||^2
        ref = lam ** (1.0 / alpha) * f_l2_sq_unit_quadrature(alpha)
        assert f_l2_norm(KernelSpec(alpha, lam)) ** 2 == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.2, 0.6, 1.3])
    def test_f_l2_norm_continuous_at_alpha_one(self, lam):
        assert f_l2_norm(KernelSpec(0.9999, lam)) ** 2 == pytest.approx(lam / 2.0, abs=1e-4)
        # the unit-rate value is 1/2 + O(1 - alpha); lam^(1/alpha) carries the rest
        assert f_l2_norm(KernelSpec(0.9999, 1.0)) ** 2 == pytest.approx(0.5, rel=1e-7)
        assert f_l2_norm(KernelSpec(1.0, lam)) ** 2 == pytest.approx(lam / 2.0, rel=1e-15)

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6), (1.0, 0.5)])
    def test_resolvent_residual_small(self, alpha, lam):
        res = resolvent_residual(KernelSpec(alpha, lam), np.linspace(0.02, 1.0, 50))
        assert np.max(res) < 1e-7
        if alpha < 1.0:
            # quadrature refinement tightens the residual
            res200 = resolvent_residual(KernelSpec(alpha, lam), np.linspace(0.02, 1.0, 50), n_nodes=200)
            assert np.max(res200) < np.max(res)

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6), (0.55, 0.6), (0.75, 3.0), (1.0, 0.5)])
    def test_resolvent_residual_matches_per_t_loop(self, alpha, lam):
        # (0.75, 3.0) puts nodes past the series radius, on the integral branch
        spec = KernelSpec(alpha, lam)
        t = np.linspace(0.02, 1.0, 50)
        assert np.array_equal(resolvent_residual(spec, t), resolvent_residual_per_t(spec, t))
        assert resolvent_residual(spec, 0.5) == resolvent_residual_per_t(spec, np.array([0.5]))[0]


def jacobi_weight_moments(a: float, degree: int) -> np.ndarray:
    """int_{-1}^1 x^d (1-x)^a dx for d <= degree, without scipy.

    Integration by parts gives J_d = ((-1)^d 2^(a+1) + d J_(d-1)) / (a+1+d),
    J_0 = 2^(a+1)/(a+1); each step scales the error by d/(a+1+d) < 1.
    """
    out = [2.0 ** (a + 1.0) / (a + 1.0)]
    for d in range(1, degree + 1):
        out.append(((-1.0) ** d * 2.0 ** (a + 1.0) + d * out[-1]) / (a + 1.0 + d))
    return np.array(out)


class TestSpecialFunctions:
    """libm's Gamma and log Gamma and the Golub-Welsch rule, against scipy,
    on the arguments src/ gives them."""

    ALPHAS = np.linspace(0.5, 1.0, 51)[1:]

    def src_arguments(self) -> np.ndarray:
        # _ml_coefficients and _ml_series: alpha (k + m) + 1 - m; the
        # stabilizer's tables: alpha (k+2) - 1, alpha (k-1) + 2, alpha (k+1)
        # and alpha (k+1) + 1; Adams and the forward curve: alpha + 1, alpha + 2
        a, k = self.ALPHAS[:, None], np.arange(400)[None, :]
        args = [a * k + 1.0, a * (k + 1), a * (k + 2) - 1.0, a * (k - 1) + 2.0, a * (k + 1) + 1.0, a + 2.0]
        return np.concatenate([np.ravel(x) for x in args])

    def test_gamma_and_gammaln_match_scipy(self):
        # near its zeros at 1 and 2 log Gamma is O(ulp) in both libraries, and
        # 40-digit values put both ~1e-13 relative off there: a floor of 1e-15
        # absolute, which is what the exp of a log Gamma sum sees
        x = self.src_arguments()
        np.testing.assert_allclose(_gammaln(x), gammaln(x), rtol=1e-14, atol=1e-15)
        small = x[x < 170.0]
        np.testing.assert_allclose(_gamma(small), sp_gamma(small), rtol=1e-14, atol=0.0)
        assert _gamma(np.array([[1.5, 2.0]])).shape == (1, 2) and _gammaln(np.array(3.0)).shape == ()

    def test_gauss_jacobi_matches_scipy(self):
        # scipy's own end-node weights are up to ~1e-11 off 40-digit values,
        # where ours hold 5e-13 (test_gauss_jacobi_weights_against_mpmath), so
        # the weights are compared at scipy's level and the nodes at rounding level
        for alpha in self.ALPHAS:
            x_ref, w_ref = roots_jacobi(60, alpha - 1.0, 0.0)
            x, w = _roots_jacobi(60, alpha - 1.0, 0.0)
            np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(w, w_ref, rtol=2e-11, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.55, 0.95, 1.0])
    def test_gauss_jacobi_weights_against_mpmath(self, alpha):
        # 40-digit roots of P_60^(a,0) and w_i = 2^(a+1) / ((1 - x_i^2) P_60'(x_i)^2)
        n, a = 60, mp.mpf(alpha) - 1
        x, w = _roots_jacobi(n, alpha - 1.0, 0.0)
        with mp.workdps(40):
            for xi, wi in zip(x.tolist(), w.tolist()):
                root = mp.findroot(lambda t: mp.jacobi(n, a, 0, t), mp.mpf(xi), tol=mp.mpf(10) ** -35)
                slope = (n + a + 1) / 2 * mp.jacobi(n - 1, a + 1, 1, root)
                assert abs(xi - root) <= 2.3e-16
                assert wi == pytest.approx(float(2 ** (a + 1) / ((1 - root**2) * slope**2)), rel=5e-13)

    @pytest.mark.parametrize("alpha", np.linspace(0.5, 1.0, 11)[1:])
    def test_gauss_jacobi_integrates_monomials(self, alpha):
        # exact to degree 2n - 1 = 119, with no scipy in the check
        x, w = _roots_jacobi(60, alpha - 1.0, 0.0)
        got = np.array([np.sum(w * x**d) for d in range(120)])
        np.testing.assert_allclose(got, jacobi_weight_moments(alpha - 1.0, 119), rtol=0.0, atol=1e-13)
