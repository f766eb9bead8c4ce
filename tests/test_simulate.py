import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import roughmerton.simulate as simulate
from roughmerton.kernels import KernelSpec, _f_smooth, resolvent, resolvent_density
from roughmerton.simulate import (
    _EIG_CUT,
    _FAR_CUT,
    _PSD_TOL,
    _QUAD_NODES,
    ModelParams,
    PathBundle,
    RateCurve,
    SimGrid,
    _block_push,
    _gl_nodes,
    _lag_covariance_pieces,
    _lag_entry_00,
    _toeplitz_gather,
    integral_factor,
    simulate_variance,
)
from roughmerton.stabilizer import build_stabilizer


def gaussian_integral_covariance(spec, grid, ell, k1, k2):
    """Cov(I^ell_{k1}, I^ell_{k2}) = int_{t_{ell-1}}^{t_ell} f(t_k1 - s) f(t_k2 - s) ds.

    Entry-wise oracle of lag_covariance_matrix.  Requires
    1 <= ell <= k1 <= k2 <= n; only the lags j = k1 - ell and m = k2 - ell
    enter.  The j = m = 0 entry uses a power substitution, the j = 0 < m row
    the substitution w = u^alpha, and the rest Gauss-Legendre on a smooth
    integrand.
    """
    n = grid.n_steps
    if not (1 <= ell <= k1 <= k2 <= n):
        raise ValueError("indices must satisfy 1 <= ell <= k1 <= k2 <= n_steps")
    dt = grid.dt
    alpha, lam = spec.alpha, spec.lam
    j, m = k1 - ell, k2 - ell
    if alpha == 1.0:
        return lam * math.exp(-lam * (j + m) * dt) * (1.0 - math.exp(-2.0 * lam * dt)) / 2.0
    if j == 0 and m == 0:
        return _lag_entry_00(spec, dt)
    if j == 0:
        # with w = u^a, f(u) du = (lam/a) S(w^(1/a)) dw and S is analytic in w
        w, wts = _gl_nodes(_QUAD_NODES, 0.0, dt**alpha)
        u = w ** (1.0 / alpha)
        g = _f_smooth(spec, u) * resolvent_density(spec, m * dt + u)
        return lam / alpha * float(np.sum(wts * g))
    u, w = _gl_nodes(_QUAD_NODES, 0.0, dt)
    return float(np.sum(w * resolvent_density(spec, j * dt + u) * resolvent_density(spec, m * dt + u)))


def signed_by_largest_entry(A):
    """True when each column's first entry of largest magnitude is positive."""
    return bool(np.all(A[np.argmax(np.abs(A), axis=0), np.arange(A.shape[1])] > 0.0))


def lag_covariance_matrix(spec: KernelSpec, dt: float, n: int) -> np.ndarray:
    """Joint covariance of (DW_l, I^l_l, ..., I^l_{l+n-1}) on a uniform grid.

    Returns the (n+1) x (n+1) matrix C with C[0,0] = dt,
    C[0, 1+j] = R(j dt) - R((j+1) dt) and C[1+j, 1+m] the lag-(j,m) integral
    covariance; the same matrix serves every step column by leading-submatrix
    restriction.  ``integral_factor`` never forms it; it is the dense
    reference of that factor.
    """
    alpha, lam = spec.alpha, spec.lam
    if alpha == 1.0:
        C = np.empty((n + 1, n + 1))
        C[0, 0] = dt
        rv = resolvent(spec, dt * np.arange(n + 1))
        C[0, 1:] = rv[:-1] - rv[1:]
        C[1:, 0] = C[0, 1:]
        e = np.exp(-lam * dt * np.arange(n))
        C[1:, 1:] = np.outer(e, e) * (lam * (1.0 - math.exp(-2.0 * lam * dt)) / 2.0)
        return C
    c0, c1, G = _lag_covariance_pieces(spec, dt, n)
    C = G @ G.T
    C[:, 0] = C[0] = c0
    C[:, 1] = C[1] = c1
    return C


def dense_integral_factor(spec, dt, n):
    """The factor by a dense eigensolve of lag_covariance_matrix: the same
    PSD check, cut, column order and sign convention as integral_factor."""
    C = lag_covariance_matrix(spec, dt, n)
    evals, evecs = np.linalg.eigh(C)
    top = evals[-1]
    if evals[0] < -_PSD_TOL * max(top, 1.0):
        raise ValueError("integral covariance is not positive semidefinite")
    keep = evals > _EIG_CUT * top
    A = evecs[:, keep] * np.sqrt(evals[keep])
    A *= np.where(A[np.argmax(np.abs(A), axis=0), np.arange(A.shape[1])] < 0.0, -1.0, 1.0)
    return A


def cov_quad_ref(spec: KernelSpec, dt: float, j: int, m: int) -> float:
    """Cov(I^l_{l+j}, I^l_{l+m}) by adaptive quadrature (substitution at u=0)."""
    alpha = spec.alpha
    if j == 0 or m == 0:
        # absorb the u^(a-1) (or u^(2a-2)) singularity with u = w^(1/p)
        p = 2.0 * alpha - 1.0 if (j == 0 and m == 0) else alpha

        def integrand(w):
            u = w ** (1.0 / p)
            f1 = float(resolvent_density(spec, np.array([j * dt + u]))[0])
            f2 = float(resolvent_density(spec, np.array([m * dt + u]))[0])
            return f1 * f2 * u ** (1.0 - p) / p

        val, _ = quad(integrand, 0.0, dt**p, epsabs=1e-15, epsrel=1e-13, limit=200)
        return val
    val, _ = quad(
        lambda u: float(resolvent_density(spec, np.array([j * dt + u]))[0])
        * float(resolvent_density(spec, np.array([m * dt + u]))[0]),
        0.0,
        dt,
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    return val


def variance_driver(bundle, i):
    """dW^i = rho_i dB^i + sqrt(1 - rho_i^2) dBperp^i, the increments that drove V^i."""
    r = bundle.params.rho[i]
    return r * bundle.dB[i] + math.sqrt(max(1.0 - r * r, 0.0)) * bundle.dBperp[i]


def step_by_step_reference(params, stab, grid, n_paths, seed, block_size):
    """The integrated Euler scheme one step at a time: at step l the joint draw
    G = A[:n-l+2] @ xi gives (DW_l, I^l_l, ..., I^l_n), and u_l G[1:] is added
    to the Volterra sums of steps l..n.  Same streams as simulate_variance
    with Gaussian V_0; returns (V, dB, dBperp, integrals)."""
    d, n, times = params.d, grid.n_steps, grid.times
    rho = params.rho
    rho_c = np.sqrt(np.maximum(1.0 - rho**2, 0.0))
    V = np.empty((d, n + 1, n_paths))
    dB, dBperp, integrals = (np.empty((d, n, n_paths)) for _ in range(3))
    n_blocks = (n_paths + block_size - 1) // block_size
    for b, bss in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        lo, hi = b * block_size, min((b + 1) * block_size, n_paths)
        P = hi - lo
        subs = bss.spawn(d + 2)
        z = np.random.default_rng(subs[d]).standard_normal((d, P))
        v0 = np.maximum(params.x_inf[:, None] + np.sqrt(params.v0_var)[:, None] * z, 1e-12)
        bperp_rng = np.random.default_rng(subs[d + 1])
        for i in range(d):
            rng = np.random.default_rng(subs[i])
            A = integral_factor(params.kernel_spec(i), grid.dt, n)
            s = np.asarray(stab[i](times))
            r = resolvent(params.kernel_spec(i), times)
            h = params.x_inf[i] + (v0[i][None, :] - params.x_inf[i]) * r[:, None]
            acc = np.zeros((n, P))
            dW = np.empty((n, P))
            Vi = V[i, :, lo:hi]
            Vi[0] = v0[i]
            for ell in range(1, n + 1):
                G = A[: n - ell + 2] @ rng.standard_normal((A.shape[1], P))
                dW[ell - 1] = G[0]
                u = params.nu[i] / params.lam[i] * s[ell] * np.sqrt(Vi[ell - 1])
                acc[ell - 1 :] += u[None, :] * G[1:]
                Vi[ell] = np.maximum(h[ell] + acc[ell - 1], 0.0)
                integrals[i, ell - 1, lo:hi] = G[1]
            what = math.sqrt(grid.dt) * bperp_rng.standard_normal((n, P))
            dB[i, :, lo:hi] = rho[i] * dW + rho_c[i] * what
            dBperp[i, :, lo:hi] = rho_c[i] * dW - rho[i] * what
    return V, dB, dBperp, integrals


class TestRateCurve:
    def test_defaults_and_primitive(self):
        r = RateCurve()
        assert r(0.3) == 0.0
        assert r.primitive(2.0) == 0.0

    def test_piecewise(self):
        r = RateCurve(knots=[0.0, 1.0, 2.0], values=[0.02, 0.04, 0.01])
        assert r(0.5) == 0.02
        assert r(1.0) == 0.04
        assert r(5.0) == 0.01
        ref = 0.5 * 0.02 + 1.0 * 0.04 + 0.5 * 0.01
        assert r.primitive(2.5) - r.primitive(0.5) == pytest.approx(ref, rel=1e-14)

    def test_primitive_matches_piecewise_sums(self):
        r = RateCurve(knots=[0.0, 0.3, 0.7], values=[0.02, 0.05, 0.01])
        t = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 4.0])
        ref = [0.0, 0.002, 0.006, 0.016, 0.026, 0.029, 0.059]
        assert np.allclose(r.primitive(t), ref, rtol=1e-14, atol=0.0)
        assert r.primitive(0.5) == pytest.approx(0.016, rel=1e-14)
        assert r.primitive(1.0) - r.primitive(0.1) == pytest.approx(0.027, rel=1e-14)
        # value_function reads primitive(T) as the integral from 0: primitive(0) is exactly 0
        assert r.primitive(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateCurve(knots=[0.5], values=[0.0])
        with pytest.raises(ValueError):
            RateCurve(knots=[0.0, 0.0], values=[0.0, 0.0])
        with pytest.raises(ValueError):
            RateCurve(knots=[0.0], values=[-0.01])
        with pytest.raises(ValueError):
            RateCurve(knots=[0.0], values=[math.nan])
        with pytest.raises(ValueError):
            RateCurve(knots=[0.0, math.inf], values=[0.0, 0.01])


class TestModelParams:
    def test_derived_quantities(self, params4):
        assert params4.d == 2
        assert np.allclose(params4.x_inf, [1.0, 0.25 / 0.6])
        assert np.allclose(params4.v0_var, params4.c * params4.nu**2 * params4.x_inf)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", [0.5, 0.6]),
            ("alpha", [0.9, 1.1]),
            ("lam", [0.0, 0.6]),
            ("nu", [-0.1, 0.2]),
            ("theta", [-0.1, 0.1]),
            ("rho", [-1.2, 0.0]),
            ("c", [-0.01, 0.03]),
            ("mu0", [-0.2, 0.25]),
        ],
    )
    def test_rejects_bad_arrays(self, params4, field, value):
        kw = dict(
            alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
            rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
        )
        kw[field] = value
        with pytest.raises(ValueError):
            ModelParams(**kw)

    def test_rejects_bad_scalars_and_lengths(self, params4):
        kw = dict(
            alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
            rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
        )
        with pytest.raises(ValueError):
            ModelParams(**{**kw, "T": 0.0})
        with pytest.raises(ValueError):
            ModelParams(**{**kw, "lam": [0.2]})
        for T in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ModelParams(**{**kw, "T": T})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "lam", "nu", "theta", "rho", "mu0", "c", "x0"])
    def test_rejects_non_finite_entries(self, params4, field, bad):
        # a NaN passes every range comparison, so finiteness is checked first;
        # a non-finite x0 would otherwise fail only after a whole Monte Carlo pass
        kw = dict(
            alpha=params4.alpha, lam=params4.lam, nu=params4.nu, theta=params4.theta,
            rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0, x0=1.0,
        )
        if field == "x0":
            value = bad
        else:
            value = list(kw[field])
            value[1] = bad
        with pytest.raises(ValueError, match=f"parameter {field} must be finite"):
            ModelParams(**{**kw, field: value})


class TestCovariance:
    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6)])
    def test_entries_against_quadrature(self, alpha, lam):
        spec = KernelSpec(alpha, lam)
        grid = SimGrid(T=1.0, n_steps=10)
        for j, m in [(0, 0), (0, 1), (0, 4), (1, 1), (1, 3), (2, 7)]:
            got = gaussian_integral_covariance(spec, grid, 1, 1 + j, 1 + m)
            assert got == pytest.approx(cov_quad_ref(spec, grid.dt, j, m), rel=1e-10)

    def test_lag_stationarity_and_index_guards(self):
        spec = KernelSpec(0.75, 0.5)
        grid = SimGrid(T=1.0, n_steps=8)
        a = gaussian_integral_covariance(spec, grid, 2, 3, 6)
        b = gaussian_integral_covariance(spec, grid, 4, 5, 8)
        assert a == pytest.approx(b, rel=1e-14)
        for ell, k1, k2 in [(0, 1, 2), (3, 2, 4), (2, 5, 4), (1, 2, 9)]:
            with pytest.raises(ValueError):
                gaussian_integral_covariance(spec, grid, ell, k1, k2)

    def test_alpha_one_closed_form(self):
        spec = KernelSpec(1.0, 0.7)
        dt, n = 0.1, 6
        C = lag_covariance_matrix(spec, dt, n)
        assert C[0, 0] == dt
        jj = np.arange(n)
        assert np.allclose(C[0, 1:], np.exp(-0.7 * dt * jj) - np.exp(-0.7 * dt * (jj + 1)), rtol=1e-14)
        ref = 0.7 / 2.0 * (1.0 - math.exp(-2 * 0.7 * dt)) * np.exp(-0.7 * dt * np.add.outer(jj, jj))
        assert np.allclose(C[1:, 1:], ref, rtol=1e-14)

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6), (1.0, 0.7)])
    def test_factor_reconstructs_covariance(self, alpha, lam):
        spec = KernelSpec(alpha, lam)
        dt, n = 1.0 / 40.0, 40
        C = lag_covariance_matrix(spec, dt, n)
        A = integral_factor(spec, dt, n)
        assert np.max(np.abs(A @ A.T - C)) < 1e-12 * max(np.max(np.abs(C)), 1.0)
        # cross-covariance row is consistent with Cov(DW, I) = R(j dt) - R((j+1) dt)
        rv = resolvent(spec, dt * np.arange(n + 1))
        assert np.allclose((A @ A.T)[0, 1:], rv[:-1] - rv[1:], atol=1e-13)

    @pytest.mark.parametrize("alpha,lam", [(0.9, 0.2), (0.6, 0.6), (1.0, 0.7)])
    def test_matrix_matches_entrywise_oracle(self, alpha, lam):
        spec = KernelSpec(alpha, lam)
        grid = SimGrid(T=1.0, n_steps=12)
        C = lag_covariance_matrix(spec, grid.dt, 12)
        assert np.array_equal(C, C.T)
        rv = resolvent(spec, grid.dt * np.arange(13))
        assert C[0, 0] == grid.dt and np.array_equal(C[0, 1:], rv[:-1] - rv[1:])
        ref = np.array(
            [
                [gaussian_integral_covariance(spec, grid, 1, 1 + min(j, m), 1 + max(j, m)) for m in range(12)]
                for j in range(12)
            ]
        )
        assert np.max(np.abs(C[1:, 1:] - ref)) <= 1e-14 * np.max(np.abs(ref))


def _factor_cases():
    for alpha in (0.51, 0.55, 0.6, 0.75, 0.9, 0.99):
        for lam in (0.2, 0.6, 2.0):
            yield alpha, lam


class TestFactorAgainstDenseOracle:
    @pytest.mark.parametrize("alpha,lam", list(_factor_cases()))
    def test_matches_dense_eigensolve(self, alpha, lam):
        spec = KernelSpec(alpha, lam)
        for n in (1, 2, 3, 37, 600):
            dt = 1.0 / n
            A = integral_factor(spec, dt, n)
            ref = dense_integral_factor(spec, dt, n)
            C = lag_covariance_matrix(spec, dt, n)
            assert A.shape == ref.shape, (n, A.shape, ref.shape)
            assert np.max(np.abs(A @ A.T - C)) < 1e-12 * max(np.max(np.abs(C)), 1.0)
            assert np.max(np.abs(A - ref)) <= 1e-8 * np.max(np.abs(A))
            assert signed_by_largest_entry(A)
            assert np.array_equal(A, integral_factor(spec, dt, n))

    def test_psd_check_fires(self, monkeypatch):
        monkeypatch.setattr(simulate, "_lag_entry_00", lambda *args, **kwargs: -1.0)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            integral_factor(KernelSpec(0.6, 0.6), 1.0 / 50, 50)

    def test_memory_stays_below_dense_covariance(self):
        # C at n = 2400 is 2401^2 doubles, 46 MB; the factor never forms it
        n = 2400
        tracemalloc.start()
        try:
            A = integral_factor(KernelSpec(0.6, 0.6), 1.0 / n, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape[0] == n + 1
        assert peak < 23e6


class TestSampling:
    @staticmethod
    def gaussian_v0(params, stab, n_paths, seed):
        grid = SimGrid(T=params.T, n_steps=1)
        return simulate_variance(params, stab, grid, n_paths, seed, v0_mode="gaussian").v0

    def test_sample_v0_stats_and_floor(self, params4, stab4):
        v0 = self.gaussian_v0(params4, stab4, 200_000, seed=7)
        assert v0.shape == (2, 200_000)
        assert np.all(v0 >= 1e-12)
        se_mean = np.sqrt(params4.v0_var / 200_000)
        assert np.all(np.abs(v0.mean(axis=1) - params4.x_inf) < 4 * se_mean)
        assert np.allclose(v0.var(axis=1), params4.v0_var, rtol=0.05)

    def test_sample_v0_degenerate(self, params4, stab4):
        p = ModelParams(
            alpha=params4.alpha, lam=params4.lam, nu=[0.0, 0.0], theta=params4.theta,
            rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
        )
        v0 = self.gaussian_v0(p, stab4, 100, seed=1)
        assert np.allclose(v0, p.x_inf[:, None], rtol=0.0, atol=0.0)


@pytest.fixture(scope="module", params=[0.6, 0.9, 1.0])
def oracle_model(request, params4):
    """params4 with both kernel exponents set to alpha, and its stabilizers."""
    alpha = request.param
    p = ModelParams(
        alpha=[alpha, alpha], lam=params4.lam, nu=params4.nu, theta=params4.theta,
        rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
    )
    tabs = [build_stabilizer(p.kernel_spec(i), p.c[i], np.linspace(0.0, 1.0, 51)) for i in range(2)]
    return p, tabs


def dense_push(A, n, b):
    """``_block_push`` with U = F and W = I: every push is the dense product F @ terms, exactly."""
    K = _toeplitz_gather(A, n, b)
    return K[:b], K[b:], np.eye(K.shape[1])


class TestFarField:
    # n = 45: a full block and a partial one, so F has 13 rows, fewer than its rank elsewhere
    @pytest.mark.parametrize("n", [45, 130, 600, 2400])
    @pytest.mark.parametrize("alpha,lam", [(0.6, 0.6), (0.9, 0.2), (1.0, 0.7)])
    def test_factor_reproduces_the_push_operator(self, alpha, lam, n):
        A = integral_factor(KernelSpec(alpha, lam), 1.0 / n, n)
        tb = simulate._TIME_BLOCK
        F = _toeplitz_gather(A, n, tb)[tb:]
        K, U, W = _block_push(A, n, tb)
        r, cols = W.shape
        # |F - U W|_2 within the cut, in far fewer than the b q columns
        sigma = np.linalg.norm(F, 2)
        assert np.linalg.norm(F - U @ W, 2) <= _FAR_CUT * sigma
        assert np.allclose(W @ W.T, np.eye(r), rtol=0.0, atol=1e-14)
        assert r == 1 if alpha == 1.0 else min(40, F.shape[0]) <= r <= 52
        # K keeps the in-block rows only: every push goes through U W
        assert K.shape == (tb, cols)
        assert np.array_equal(K, _toeplitz_gather(A, n, tb)[:tb])

    @pytest.mark.parametrize("n,n_paths", [(600, 2000), (2400, 1000)])
    def test_far_field_push_matches_dense_push(self, params4, stab4, monkeypatch, n, n_paths):
        # the packaged kernels at both benchmark grids: every push through U W, then
        # every push dense, the last pushes of each asset (24 and 56 rows at n = 600,
        # 32 and 64 at 2400) included
        grid = SimGrid(T=1.0, n_steps=n)
        far = simulate_variance(params4, stab4, grid, n_paths, seed=6)
        monkeypatch.setattr(simulate, "_block_push", dense_push)
        dense = simulate_variance(params4, stab4, grid, n_paths, seed=6)
        assert np.max(np.abs(far.V - dense.V)) <= 1e-14 * np.max(np.abs(dense.V))
        assert not np.array_equal(far.V, dense.V)
        for name in ("dB", "dBperp"):
            assert np.array_equal(getattr(far, name), getattr(dense, name))


# a slot budget of 8 steps of a 20-path block at q = 6 (9 at q = 5, 18 at
# alpha = 1's q = 2), so that sub-blocks are shorter than a time block;
# the 5-path block's slot still holds a whole one
SUB_BLOCK_SLOT = 8 * 7 * 20 * 8


@pytest.fixture(params=["whole", "sub"])
def slot_budget(request, monkeypatch):
    """Run a test with the packaged slot budget, then with SUB_BLOCK_SLOT."""
    if request.param == "sub":
        monkeypatch.setattr(simulate, "_SLOT_BYTES", SUB_BLOCK_SLOT)
        assert simulate._slot_steps(6, 20, simulate._TIME_BLOCK) == 8


# one step, one full time block and a partial one (at SUB_BLOCK_SLOT, the
# last block of n = 45 holds one full sub-block and a partial one), several
# time blocks
@pytest.mark.parametrize("n", [1, 37, 45, 130, 300])
def test_matches_step_by_step_oracle(oracle_model, n, slot_budget):
    p, tabs = oracle_model
    grid = SimGrid(T=1.0, n_steps=n)
    # 45 paths in blocks of 20: three path blocks, the last one partial
    b = simulate_variance(p, tabs, grid, n_paths=45, seed=19, block_size=20)
    # the lag-0 integrals feed V, so the V check covers them
    V, dB, dBperp, _ = step_by_step_reference(p, tabs, grid, 45, 19, block_size=20)
    assert np.max(np.abs(b.V - V)) <= 1e-13 * np.max(np.abs(V))
    assert np.max(np.abs(b.dB - dB)) <= 1e-15
    assert np.max(np.abs(b.dBperp - dBperp)) <= 1e-15


@pytest.fixture(scope="module")
def small_bundle(params4, stab4):
    grid = SimGrid(T=1.0, n_steps=50)
    return simulate_variance(params4, stab4, grid, n_paths=4000, seed=11)


class TestSimulate:
    def test_shapes_and_nonnegativity(self, small_bundle):
        b = small_bundle
        assert b.V.shape == (2, 51, 4000)
        assert b.dB.shape == (2, 50, 4000)
        assert np.all(b.V >= 0.0)
        assert np.allclose(b.V[:, 0, :], b.v0)

    def test_seed_determinism_and_block_invariance(self, params4, stab4, small_bundle):
        grid = SimGrid(T=1.0, n_steps=50)
        again = simulate_variance(params4, stab4, grid, n_paths=4000, seed=11)
        assert np.array_equal(again.V, small_bundle.V)
        assert np.array_equal(again.dB, small_bundle.dB)
        assert np.array_equal(again.dBperp, small_bundle.dBperp)
        # block streaming is itself reproducible for a fixed block size
        blocked = [
            simulate_variance(params4, stab4, grid, n_paths=4000, seed=11, block_size=1000)
            for _ in range(2)
        ]
        assert np.array_equal(blocked[0].V, blocked[1].V)
        assert np.array_equal(blocked[0].dB, blocked[1].dB)

    def test_driver_statistics(self, small_bundle):
        b = small_bundle
        dt = 1.0 / 50.0
        tol = 4.0 / math.sqrt(50 * 4000)
        for i in range(2):
            dW = variance_driver(b, i)
            assert abs(dW.var() / dt - 1.0) < 3 * tol
            assert abs(b.dB[i].var() / dt - 1.0) < 3 * tol
            corr = np.mean(b.dB[i] * dW) / dt
            assert abs(corr - b.params.rho[i]) < tol
            cross = np.mean(b.dB[i] * b.dBperp[i]) / dt
            assert abs(cross) < tol

    def test_deterministic_when_nu_zero(self, params4, stab4):
        p = ModelParams(
            alpha=params4.alpha, lam=params4.lam, nu=[0.0, 0.0], theta=params4.theta,
            rho=params4.rho, mu0=params4.mu0, c=params4.c, T=1.0,
        )
        grid = SimGrid(T=1.0, n_steps=20)
        b = simulate_variance(p, stab4, grid, n_paths=3, seed=5)
        for i in range(2):
            ref = p.x_inf[i] + (b.v0[i][None, :] - p.x_inf[i]) * resolvent(
                p.kernel_spec(i), grid.times
            )[:, None]
            assert np.allclose(b.V[i], ref, atol=1e-15)

    def test_alpha_one_matches_markov_recursion(self, stab4):
        # for alpha = 1 the scheme telescopes: with g_l = varsigma(t_l) sqrt(V_{l-1}) I^l_l,
        # V_k = x_inf + (V_0 - x_inf) e^(-lam t_k) + (nu/lam) acc_k,
        # acc_k = e^(-lam dt) acc_{k-1} + g_k, since f is a pure exponential
        p = ModelParams(
            alpha=[1.0, 1.0], lam=[0.2, 0.6], nu=[0.4, 0.2], theta=[0.1, 0.1],
            rho=[-0.7, -0.55], mu0=[0.2, 0.25], c=[0.01, 0.03], T=1.0,
        )
        grid = SimGrid(T=1.0, n_steps=30)
        tabs = [build_stabilizer(p.kernel_spec(i), p.c[i], np.linspace(0, 1, 11)) for i in range(2)]
        b = simulate_variance(p, tabs, grid, n_paths=200, seed=3)
        # the lag-0 integrals I^l_l of the same streams (one path block)
        integrals = step_by_step_reference(p, tabs, grid, 200, 3, block_size=25000)[3]
        dt = grid.dt
        for i in range(2):
            s = np.asarray(tabs[i](grid.times))
            e = math.exp(-p.lam[i] * dt)
            acc = np.zeros(200)
            V = b.v0[i].copy()
            for ell in range(1, 31):
                g = s[ell] * np.sqrt(V) * integrals[i, ell - 1]
                acc = e * acc + g
                V = np.maximum(
                    p.x_inf[i]
                    + (b.v0[i] - p.x_inf[i]) * math.exp(-p.lam[i] * grid.times[ell])
                    + p.nu[i] / p.lam[i] * acc,
                    0.0,
                )
                assert np.max(np.abs(V - b.V[i, ell])) < 1e-12

    def test_v0_mean_mode_and_storage(self, params4, stab4):
        grid = SimGrid(T=1.0, n_steps=10)
        b = simulate_variance(params4, stab4, grid, n_paths=5, seed=2, v0_mode="mean")
        assert np.allclose(b.v0, params4.x_inf[:, None])
        assert b.dBperp.shape == b.dB.shape == (2, 10, 5) and b.integrals is None
        with pytest.raises(ValueError):
            simulate_variance(params4, stab4, grid, n_paths=5, seed=2, v0_mode="median")

    @pytest.mark.parametrize(
        "name,sizes",
        [
            ("n_paths", {"n_paths": 0}),
            ("n_paths", {"n_paths": -3}),
            ("block_size", {"block_size": 0}),
            ("block_size", {"block_size": -1}),
        ],
    )
    def test_non_positive_sizes_rejected(self, params4, stab4, name, sizes):
        # before any draw: block_size -1 used to hand back uninitialised V_0,
        # 0 failed inside range(), and 0 paths gave NaN moments
        kw = {"n_paths": 5, "block_size": 2, **sizes}
        grid = SimGrid(T=1.0, n_steps=10)
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {sizes[name]}"):
            simulate._asset_blocks(params4, stab4, grid, seed=2, **kw)
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {sizes[name]}"):
            simulate_variance(params4, stab4, grid, seed=2, **kw)

    def test_helper_thread_ends_with_the_call(self, params4, stab4):
        before = threading.active_count()
        simulate_variance(params4, stab4, SimGrid(T=1.0, n_steps=70), n_paths=45, seed=4, block_size=20)
        assert threading.active_count() == before

    def test_draw_error_reaches_caller_and_ends_helper_thread(self, params4, stab4, monkeypatch):
        real_rng = np.random.default_rng
        calls = {"n": 0}

        class FailingGenerator:
            """A generator whose fourth standard_normal call, over all instances, raises."""

            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 4:
                    raise RuntimeError("draw failed")
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate_variance(params4, stab4, SimGrid(T=1.0, n_steps=70), n_paths=45, seed=4, block_size=20)
        assert calls["n"] >= 4
        assert threading.active_count() == before

    def test_pass_holds_a_ring_of_normals(self, params4, stab4):
        # few steps and one large path block, where the normals dominate: the
        # pass holds one asset's V, the ring's slots of eta and z, one time
        # block's dB and dBperp, the far projection and one push panel
        n, M, tb = 64, 20_000, simulate._TIME_BLOCK
        factors = [integral_factor(params4.kernel_spec(i), 1.0 / n, n) for i in range(params4.d)]
        ranks = [A.shape[1] for A in factors]
        r = max(_block_push(A, n, tb)[2].shape[0] for A in factors)
        ring = simulate._RING_SLOTS * max((q + 1) * simulate._slot_steps(q, M, tb) for q in ranks) * M * 8
        # and 4 MB for what grows with neither n nor M (the factors, the stabilizer values)
        bound = (n + 1) * M * 8 + ring + 2 * tb * M * 8 + r * M * 8 + simulate._PANEL_BYTES + (4 << 20)
        # two time blocks of normals, drawn one block ahead, would not fit
        assert 2 * tb * (max(ranks) + 1) * M * 8 > bound
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, blocks = simulate._asset_blocks(params4, stab4, SimGrid(T=1.0, n_steps=n), M, seed=9)
            for _ in blocks:
                pass
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_closing_the_pass_early_ends_the_producer(self, params4, stab4):
        # seven time blocks of three path blocks: after two time blocks the
        # producer waits on a full ring, and closing must wake and end it
        before = threading.active_count()
        _, blocks = simulate._asset_blocks(params4, stab4, SimGrid(T=1.0, n_steps=200), 45, seed=4, block_size=20)
        next(blocks), next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before

    def test_drivers_match_serial_draws(self, params4, stab4, slot_budget):
        # three time blocks (the last partial) and three path blocks (the last partial)
        grid, n_paths, block_size, seed = SimGrid(T=1.0, n_steps=70), 45, 20, 8
        b = simulate_variance(params4, stab4, grid, n_paths, seed, block_size=block_size)
        n, d = grid.n_steps, params4.d
        rho = params4.rho
        rho_c = np.sqrt(np.maximum(1.0 - rho**2, 0.0))
        for blk, bss in enumerate(np.random.SeedSequence(seed).spawn(3)):
            lo, hi = blk * block_size, min((blk + 1) * block_size, n_paths)
            subs = bss.spawn(d + 2)
            bperp_rng = np.random.default_rng(subs[d + 1])
            for i in range(d):
                A = integral_factor(params4.kernel_spec(i), grid.dt, n)
                eta = np.random.default_rng(subs[i]).standard_normal((n, A.shape[1], hi - lo))
                dW = A[0] @ eta
                what = math.sqrt(grid.dt) * bperp_rng.standard_normal((n, hi - lo))
                assert np.array_equal(b.dB[i, :, lo:hi], rho[i] * dW + rho_c[i] * what)
                assert np.array_equal(b.dBperp[i, :, lo:hi], rho_c[i] * dW - rho[i] * what)

    @pytest.mark.parametrize("rows", [5, 40])
    def test_panelled_push_equals_one_product(self, params4, stab4, monkeypatch, rows):
        # five time blocks, so pushes of 98, 66, 34 and 2 rows.  Equality holds
        # while every panel is a full matrix product: at 2000 paths even the
        # smallest panels (3 rows) stay out of BLAS's small-matrix kernels
        grid, n_paths = SimGrid(T=1.0, n_steps=130), 2000
        run = lambda: simulate_variance(params4, stab4, grid, n_paths, seed=4)
        monkeypatch.setattr(simulate, "_PANEL_BYTES", 1 << 62)  # one panel per push
        whole = run()
        monkeypatch.setattr(simulate, "_PANEL_BYTES", 8 * n_paths * rows)
        panelled = run()
        assert np.array_equal(panelled.V, whole.V)
        assert np.array_equal(panelled.dB, whole.dB)
        assert np.array_equal(panelled.dBperp, whole.dBperp)

    @pytest.mark.parametrize(
        "T,n_steps", [(float("nan"), 10), (float("inf"), 10), (0.0, 10), (1.0, 0), (1.0, 2.5), (1.0, 10.0)]
    )
    def test_grid_rejects_bad_horizon_and_steps(self, T, n_steps):
        # a float n_steps would otherwise fail inside the pass with a TypeError
        with pytest.raises(ValueError, match="SimGrid requires a finite T > 0 and an integer n_steps >= 1"):
            SimGrid(T, n_steps)

    def test_grid_accepts_numpy_integer_steps(self):
        grid = SimGrid(1.0, np.int64(4))
        assert np.array_equal(grid.times, SimGrid(1.0, 4).times)

    def test_stabilizer_coverage_checked(self, params4):
        short = [
            build_stabilizer(params4.kernel_spec(i), params4.c[i], np.linspace(0, 0.5, 11))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            simulate_variance(params4, short, SimGrid(T=1.0, n_steps=10), n_paths=2, seed=0)
