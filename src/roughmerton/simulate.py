"""Path simulation of the multivariate fake-stationary Volterra square-root process.

The variance of asset i follows the integrated Euler--Maruyama scheme

    V^i_{t_k} = h^i(t_k) + (nu_i / lam_i) sum_{l=1..k}
                varsigma^i(t_l) sqrt(max(V^i_{t_{l-1}}, 0)) I^{i,l}_k,

    h^i(t_k) = x_inf^i + (V_0^i - x_inf^i) R_{lam_i}(t_k),   x_inf = mu0 / lam,

where I^{l}_k = int_{t_{l-1}}^{t_l} f(t_k - s) dW_s are Gaussian integrals of
the resolvent density f.  On a uniform grid their covariance is lag
stationary: with j = k1 - l, m = k2 - l,

    Cov(I^l_{k1}, I^l_{k2}) = int_0^D f(j D + u) f(m D + u) du,
    Cov(I^l_k, DW_l)        = R(j D) - R((j+1) D),      Var(DW_l) = D,

so a single (n+1) x (n+1) covariance C per asset (row 0 = the Brownian
increment, rows 1..n = lags 0..n-1) gives, through one symmetric factor A
of rank q, the joint draw (DW_l, I^l_l, ..., I^l_n) at every step l from
fresh standard normals xi_l.  The stock drivers are B^i with
W^i = rho_i B^i + sqrt(1-rho_i^2) B^{perp,i}; the same W drives both V and
the wealth equation.

The factor needs no dense eigensolve.  With Gauss-Legendre nodes u_r and
weights w_r on (0, D), the block of lags >= 1 is the Gram product G G^T,
G[j, r] = f(j D + u_r) sqrt(w_r), and only rows and columns 0 and 1 are
outside it.  So range(C) lies in span(e_0, e_1, C[:, 0], C[:, 1], G), of
dimension at most _QUAD_NODES + 4 = 68 whatever n is.  ``integral_factor``
takes an orthonormal basis Q of that span and eigensolves the small
Q^T C Q (Rayleigh-Ritz, exact here because the span holds range(C)), with
C Q formed from G and the two border columns, so C is never built (the
tests build it densely, as the factor's reference).  Each column of A is
signed so that its entry of largest magnitude is positive.

The Volterra sum is a causal convolution over steps: with
eta_l = (nu/lam) varsigma(t_l) sqrt(V_{l-1}) xi_l, step k needs
sum_{l<=k} A[k-l+1] @ eta_l.  ``simulate_variance`` evaluates it in time
blocks of a few dozen steps.  Each step adds the terms of its own block, and
each finished block adds its terms to all later steps with one matrix
product against a Toeplitz gather of A.  That is O(n^2 q P) flops per asset
and block of P paths, spent in BLAS-3 products, and O(n P) memory.  The
push runs in row panels of at most ``_PANEL_BYTES`` of product rows, so
its temporary stays a few MB instead of (n, P).  The panels of one push
have equal heights (within one row), so none is a sliver that BLAS would
send to another kernel (gemv for one row) summing in another order; at the
packaged sizes the paths are those of the unpanelled push bit for bit.

The standard normals are drawn one time block ahead: while the calling
thread runs a block's products, one helper thread (a pool scoped to the
call) fills the next block's normals into the other of two preallocated
buffers.  Each asset stream still makes one (m, q, P) draw per time block,
and the orthogonal driver is drawn per time block as (m, P), which is the
same stream as one (n, P) draw.  Every generator is used by the helper
thread alone, in the serial order, so the paths are those of a serial loop
bit for bit.  The helper thread is not a BLAS thread: BLAS thread limits do
not count it.

Provides:
  - ``ModelParams`` / ``SimGrid`` / ``PathBundle`` / ``RateCurve`` types.
  - ``integral_factor``: the per-asset joint factor A (exact rank-2 when alpha = 1).
  - ``simulate_variance``: block-streamed, seed-deterministic path generation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field

import numpy as np

from .kernels import KernelSpec, _f_smooth, resolvent, resolvent_density
from .stabilizer import StabilizerTable

__all__ = [
    "RateCurve",
    "ModelParams",
    "SimGrid",
    "PathBundle",
    "integral_factor",
    "simulate_variance",
]

# Floor applied to truncated Gaussian initial-variance draws.
_V0_FLOOR = 1e-12
# PSD tolerance on the smallest covariance eigenvalue.
_PSD_TOL = 1e-10
# Relative eigenvalue cutoff for the truncated factor.
_EIG_CUT = 1e-13
# Quadrature nodes per covariance integral.
_QUAD_NODES = 64
# Steps per time block of the Volterra convolution in simulate_variance.
_TIME_BLOCK = 32
# Bytes of the product rows that one panel of a block push holds.
_PANEL_BYTES = 4 << 20


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant short rate r(t) >= 0.

    ``values[j]`` applies on [knots[j], knots[j+1]), with knots[0] = 0 and the
    last value extended to infinity.  The default is r = 0.
    """

    knots: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    values: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.shape != values.shape or knots.ndim != 1 or knots.size == 0:
            raise ValueError("knots and values must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("knots and values must be finite")
        if knots[0] != 0.0 or np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must start at 0 and be strictly increasing")
        if np.any(values < 0.0):
            raise ValueError("rates must be >= 0")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, None)
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out

    def integral(self, t0: float, t1: float) -> float:
        """int_{t0}^{t1} r(s) ds (t0 <= t1)."""
        if t1 < t0:
            raise ValueError("integral requires t0 <= t1")
        return float(self.primitive(t1) - self.primitive(t0))

    def primitive(self, t) -> np.ndarray:
        """int_0^t r(s) ds for each t >= 0 (vectorised)."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, None)
        at_knots = np.concatenate([[0.0], np.cumsum(self.values[:-1] * np.diff(self.knots))])
        return at_knots[idx] + self.values[idx] * (t - self.knots[idx])


@dataclass(frozen=True)
class ModelParams:
    """Market and variance-process parameters for d assets.

    Per-asset arrays (length d, finite entries): kernel exponent ``alpha``
    in (1/2, 1], mean reversion ``lam`` > 0, vol-of-vol ``nu`` >= 0, market
    price of risk ``theta`` >= 0, leverage ``rho`` in [-1, 1], mean-level
    drive ``mu0``, and variance scale ``c`` >= 0 (so Var(V_0) = c nu^2 x_inf).

    ``rate`` is the piecewise-constant short rate, ``T`` the horizon and
    ``x0`` the initial wealth.  Risk aversion belongs to the utility
    (``strategy.UtilitySpec``), which the Riccati solution carries; a
    ``gamma`` keyword is accepted for older callers and ignored.
    """

    alpha: np.ndarray
    lam: np.ndarray
    nu: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    mu0: np.ndarray
    c: np.ndarray
    T: float
    x0: float = 1.0
    rate: RateCurve = field(default_factory=RateCurve)
    gamma: InitVar[float | None] = None

    def __post_init__(self, gamma):
        arrays = {}
        for name in ("alpha", "lam", "nu", "theta", "rho", "mu0", "c"):
            arrays[name] = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
        d = arrays["alpha"].size
        for name, arr in arrays.items():
            if arr.shape != (d,):
                raise ValueError(f"parameter {name} must have length {d}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name} must be finite, got {arr.tolist()}")
            object.__setattr__(self, name, arr)
        if np.any((arrays["alpha"] <= 0.5) | (arrays["alpha"] > 1.0)):
            raise ValueError("alpha must lie in (1/2, 1]")
        if np.any(arrays["lam"] <= 0.0):
            raise ValueError("lam must be > 0")
        if np.any(arrays["nu"] < 0.0) or np.any(arrays["theta"] < 0.0):
            raise ValueError("nu and theta must be >= 0")
        if np.any(np.abs(arrays["rho"]) > 1.0):
            raise ValueError("|rho| must be <= 1")
        if np.any(arrays["c"] < 0.0):
            raise ValueError("c must be >= 0")
        if np.any(arrays["mu0"] < 0.0):
            raise ValueError("mu0 must be >= 0")
        if not 0.0 < self.T < math.inf:
            raise ValueError("horizon T must be finite and > 0")

    @property
    def d(self) -> int:
        return self.alpha.size

    @property
    def x_inf(self) -> np.ndarray:
        """Stationary mean x_inf = mu0 / lam = E[V_0]."""
        return self.mu0 / self.lam

    @property
    def v0_var(self) -> np.ndarray:
        """Var(V_0) = c nu^2 x_inf."""
        return self.c * self.nu**2 * self.x_inf

    def kernel_spec(self, i: int) -> KernelSpec:
        return KernelSpec(alpha=float(self.alpha[i]), lam=float(self.lam[i]))


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid t_k = k T / n on [0, T]."""

    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0.0 or self.n_steps < 1:
            raise ValueError("SimGrid requires T > 0 and n_steps >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass(frozen=True)
class PathBundle:
    """Simulated variance paths and the Brownian increments that drove them.

    Attributes
    ----------
    times : np.ndarray
        Grid times t_0..t_n.
    V : np.ndarray
        Variance paths, shape (d, n+1, n_paths), truncated at 0.
    dB : np.ndarray
        Stock-driver increments, shape (d, n, n_paths).
    dBperp : np.ndarray or None
        Orthogonal increments; the variance driver is reconstructed as
        dW = rho dB + sqrt(1 - rho^2) dBperp.
    integrals : np.ndarray or None
        Lag-zero Gaussian integral draws I^{i,l}_l per step, shape (d, n, n_paths).
    v0 : np.ndarray
        Initial variance per asset and path, shape (d, n_paths).
    params : ModelParams
        The parameters the bundle was simulated under.
    """

    times: np.ndarray
    V: np.ndarray
    dB: np.ndarray
    dBperp: np.ndarray | None
    integrals: np.ndarray | None
    v0: np.ndarray
    params: "ModelParams"

    @property
    def n_paths(self) -> int:
        return self.V.shape[2]

    def dW(self, i: int) -> np.ndarray:
        """Variance-driver increments dW^i = rho_i dB^i + sqrt(1-rho_i^2) dBperp^i."""
        if self.dBperp is None:
            raise ValueError("bundle was built without dBperp storage")
        r = self.params.rho[i]
        dW = r * self.dB[i]
        dW += math.sqrt(max(1.0 - r * r, 0.0)) * self.dBperp[i]
        return dW


def _gl_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes/weights on (a, b)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return a + (b - a) * (x + 1.0) / 2.0, (b - a) / 2.0 * w


def _lag_entry_00(spec: KernelSpec, dt: float) -> float:
    """int_0^dt f(u)^2 du via the power substitution u = w^(1/(2a-1))."""
    alpha, lam = spec.alpha, spec.lam
    if alpha == 1.0:
        return lam * (1.0 - math.exp(-2.0 * lam * dt)) / 2.0
    # u^(2a-2) du = dw / (2a-1) with w = u^(2a-1): the integrand becomes smooth
    w, wts = _gl_nodes(_QUAD_NODES, 0.0, dt ** (2.0 * alpha - 1.0))
    u = w ** (1.0 / (2.0 * alpha - 1.0))
    s = _f_smooth(spec, u)
    return lam**2 / (2.0 * alpha - 1.0) * float(np.sum(wts * s**2))


def _lag_covariance_pieces(spec: KernelSpec, dt: float, n: int):
    """Border columns and Gram factor of the lag covariance C (alpha < 1).

    Returns (c0, c1, G): c0 = C[:, 0] and c1 = C[:, 1], each of length n + 1,
    and G of shape (n + 1, _QUAD_NODES) with zero rows 0 and 1 and
    G[2 + j] = F(j + 1) sqrt(w), F the resolvent density at the Gauss-Legendre
    nodes of lag j + 1 and w their weights.  Then C[2:, 2:] = (G G^T)[2:, 2:],
    and C is G G^T plus the rank-2 border held by c0 and c1.
    """
    alpha, lam = spec.alpha, spec.lam
    rv = resolvent(spec, dt * np.arange(n + 1))
    c0 = np.empty(n + 1)
    c0[0] = dt
    c0[1:] = rv[:-1] - rv[1:]
    c1 = np.empty(n + 1)
    c1[0] = c0[1]
    c1[1] = _lag_entry_00(spec, dt)
    G = np.zeros((n + 1, _QUAD_NODES))
    if n >= 2:
        # lag-0 row against smooth lags: substitution w = u^alpha absorbs the
        # singularity and leaves the smooth factor analytic in w
        w0, wts0 = _gl_nodes(_QUAD_NODES, 0.0, dt**alpha)
        u0 = w0 ** (1.0 / alpha)
        s0 = lam / alpha * _f_smooth(spec, u0) * wts0
        lags = dt * np.arange(1, n)
        c1[2:] = resolvent_density(spec, lags[:, None] + u0[None, :]) @ s0
        # smooth block as a Gram product over the nodes
        u, wts = _gl_nodes(_QUAD_NODES, 0.0, dt)
        G[2:] = resolvent_density(spec, lags[:, None] + u[None, :]) * np.sqrt(wts)
    return c0, c1, G


def integral_factor(spec: KernelSpec, dt: float, n: int) -> np.ndarray:
    """Factor A with A A^T = C, the (n+1) x (n+1) lag covariance, shape (n+1, q).

    At step l the joint draw (DW_l, I^l_l, ..., I^l_n) is A[:n-l+2] @ xi with
    xi ~ N(0, I_q).  For alpha = 1 the integral rows are exactly proportional
    (e^(-lam j dt)), so an exact rank-2 factor is built from the closed-form
    2 x 2 covariance of (DW, I^l_l).

    Otherwise C = G G^T + border (see ``_lag_covariance_pieces``), so
    range(C) lies in span(e_0, e_1, c_0, c_1, G), at most _QUAD_NODES + 4
    dimensions.  With Q an orthonormal basis of that span (a QR), C = Q H Q^T
    with H = Q^T C Q, and the eigenpairs of C with nonzero eigenvalue are
    those of H carried by Q: a Rayleigh-Ritz solve that is exact, not an
    approximation.  C Q is formed from the pieces, so C itself is never
    built and memory is O(n _QUAD_NODES).  The smallest eigenvalue of C is
    min(0, lambda_min(H)) (lambda_min(H) itself when Q spans all n + 1
    dimensions), so the positive-semidefiniteness check on H is the check on
    C; eigenvalues at or below ``_EIG_CUT`` times the largest are dropped and
    the kept columns are in ascending eigenvalue order.  Each column is
    signed so that its entry of largest magnitude (the first such on a tie)
    is positive, since an eigenvector's sign is otherwise arbitrary.
    """
    lam = spec.lam
    if spec.alpha == 1.0:
        e = math.exp(-lam * dt)
        C2 = np.array(
            [[dt, 1.0 - e], [1.0 - e, lam * (1.0 - e * e) / 2.0]]
        )
        L = np.linalg.cholesky(C2)
        A = np.empty((n + 1, 2))
        A[0] = L[0]
        A[1:] = np.exp(-lam * dt * np.arange(n))[:, None] * L[1]
        return A
    c0, c1, G = _lag_covariance_pieces(spec, dt, n)
    U = np.column_stack([c0, c1])
    Q = np.linalg.qr(np.column_stack([np.eye(n + 1, 2), U, G]))[0]
    # C Q = G (G^T Q) + B Q, B = E U^T + U E^T - E U[:2] E^T with E = [e_0, e_1]
    CQ = G @ (G.T @ Q) + U @ Q[:2]
    CQ[:2] += U.T @ Q - U[:2] @ Q[:2]
    H = Q.T @ CQ
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))
    top = evals[-1]
    if evals[0] < -_PSD_TOL * max(top, 1.0):
        raise ValueError(
            f"integral covariance is not positive semidefinite "
            f"(min eigenvalue {evals[0]:.3e}); check kernel parameters and grid"
        )
    keep = evals > _EIG_CUT * top
    A = (Q @ evecs[:, keep]) * np.sqrt(evals[keep])
    A *= np.where(A[np.argmax(np.abs(A), axis=0), np.arange(A.shape[1])] < 0.0, -1.0, 1.0)
    return A


def _toeplitz_gather(A: np.ndarray, n: int, b: int) -> np.ndarray:
    """K[i, j q + r] = A[i - j + 1, r], shape (n, b q); entries with i < j are never read.

    Against the eta of a time block starting at step L, row i < b gives the
    block's own sum at step L + i, and rows i >= b its push to later steps.
    """
    lag = np.arange(n)[:, None] - np.arange(b)[None, :] + 1
    return A[np.maximum(lag, 0)].reshape(n, b * A.shape[1])


def _normals_ahead(pool: ThreadPoolExecutor, draws, max_shape: tuple):
    """Yield the standard normals (eta, z) of each draw of ``draws``, in order.

    Each draw is (rng, bperp_rng, (m, q, P)): eta of shape (m, q, P) comes
    from rng and z of shape (m, P) from bperp_rng, none larger than
    ``max_shape``.  The one worker of ``pool`` fills the next draw into the
    other of two buffers while the caller works on the current one, so a
    yielded pair is valid until the next is requested.  The worker is the
    only user of every generator and draws in order, so the values are
    those of a serial loop.
    """
    m_max, q_max, p_max = max_shape
    bufs = [(np.empty(m_max * q_max * p_max), np.empty(m_max * p_max)) for _ in range(2)]

    def fill(k, rng, bperp_rng, shape):
        m, q, P = shape
        eta_buf, z_buf = bufs[k % 2]
        eta = rng.standard_normal(out=eta_buf[: m * q * P].reshape(shape))
        z = bperp_rng.standard_normal(out=z_buf[: m * P].reshape(m, P))
        return eta, z

    current = None
    for k, draw in enumerate(draws):
        ahead = pool.submit(fill, k, *draw)
        if current is not None:
            yield current.result()
        current = ahead
    if current is not None:
        yield current.result()


def simulate_variance(
    params: ModelParams,
    stab: list[StabilizerTable],
    grid: SimGrid,
    n_paths: int,
    seed: int,
    v0_mode: str = "gaussian",
    store_bperp: bool = True,
    store_integrals: bool = False,
    block_size: int = 25000,
) -> PathBundle:
    """Simulate variance paths and correlated Brownian drivers.

    With eta_l = (nu/lam) varsigma(t_l) sqrt(V_{l-1}) xi_l, the Volterra sum
    of the scheme at step k is sum_{l<=k} A[k-l+1] @ eta_l, a causal
    convolution over steps.  It is evaluated in time blocks of
    ``_TIME_BLOCK`` steps: inside a block each step adds the block's own
    terms (one product of length at most ``_TIME_BLOCK * q``), and a finished
    block pushes its terms to every later step with one BLAS-3 product.
    Per asset this is O(n^2 q P) flops in matrix products and O(n P) memory
    for a block of P paths; the normals and the sums are those of the
    step-by-step scheme, summed in another order.

    The normals of each time block, (m, q, P) from the asset's stream and
    (m, P) from the orthogonal driver's, are drawn by one helper thread a
    block ahead, into two buffers reused for the whole call, while this
    thread runs the block's products; dB and dBperp are formed block by
    block.  The helper thread ends before the call returns or raises, and
    an error it meets is raised here.

    Parameters
    ----------
    params : ModelParams
    stab : list of StabilizerTable
        One per asset, covering [0, T].
    grid : SimGrid
    n_paths : int
    seed : int
        Master seed.  Streams are spawned per path block and, within a block,
        per asset plus one for V_0 and one for the orthogonal driver (drawn
        for asset 0's steps, then asset 1's, ...), so the result is
        bit-reproducible and blocks are independent.
    v0_mode : {"gaussian", "mean"}
        Draw V_0 from its stationary Gaussian, or pin it at E[V_0] = x_inf.
    store_bperp, store_integrals : bool
        Optional storage (memory: each field is d*n*n_paths doubles).
    block_size : int
        Paths per streamed block.

    Returns
    -------
    PathBundle
    """
    d, n, dt = params.d, grid.n_steps, grid.dt
    times = grid.times
    if len(stab) != d:
        raise ValueError(f"need one stabilizer table per asset ({d}), got {len(stab)}")
    if v0_mode not in ("gaussian", "mean"):
        raise ValueError(f"unknown v0_mode {v0_mode!r}")
    for i, tab in enumerate(stab):
        if tab.grid[-1] < params.T - 1e-12:
            raise ValueError(f"stabilizer table {i} does not cover [0, T]")

    factors = [integral_factor(params.kernel_spec(i), dt, n) for i in range(d)]
    tb = min(_TIME_BLOCK, n)
    gathers = [_toeplitz_gather(A, n, tb) for A in factors]
    r_vals = [resolvent(params.kernel_spec(i), times) for i in range(d)]
    s_vals = [np.asarray(stab[i](times)) for i in range(d)]
    x_inf, v0_sd = params.x_inf, np.sqrt(params.v0_var)
    rho = params.rho
    rho_c = np.sqrt(np.maximum(1.0 - rho**2, 0.0))

    V = np.empty((d, n + 1, n_paths))
    dB = np.empty((d, n, n_paths))
    dBperp = np.empty((d, n, n_paths)) if store_bperp else None
    integrals = np.empty((d, n, n_paths)) if store_integrals else None
    v0_out = np.empty((d, n_paths))

    spans = [(lo, min(lo + block_size, n_paths)) for lo in range(0, n_paths, block_size)]
    # per path block: one stream per asset, then one for V_0 and one for the orthogonal driver
    streams = [bss.spawn(d + 2) for bss in np.random.SeedSequence(seed).spawn(len(spans))]
    sqrt_dt = math.sqrt(dt)

    def draws():
        """The normals of every time block, in the order the loop below consumes them."""
        for subs, (lo, hi) in zip(streams, spans):
            bperp_rng = np.random.default_rng(subs[d + 1])
            for i in range(d):
                rng = np.random.default_rng(subs[i])
                for start in range(0, n, tb):
                    yield rng, bperp_rng, (min(tb, n - start), factors[i].shape[1], hi - lo)

    max_shape = (tb, max(A.shape[1] for A in factors), min(block_size, n_paths))
    with ThreadPoolExecutor(max_workers=1) as pool:
        normals = _normals_ahead(pool, draws(), max_shape)
        for subs, (lo, hi) in zip(streams, spans):
            P = hi - lo
            panel = max(1, _PANEL_BYTES // (8 * P))
            if v0_mode == "gaussian":
                v0_rng = np.random.default_rng(subs[d])
                v0 = np.maximum(
                    x_inf[:, None] + v0_sd[:, None] * v0_rng.standard_normal((d, P)), _V0_FLOOR
                )
            else:
                v0 = np.broadcast_to(x_inf[:, None], (d, P)).copy()
            v0_out[:, lo:hi] = v0

            for i in range(d):
                A, K = factors[i], gathers[i]
                q = A.shape[1]
                scale = params.nu[i] / params.lam[i]
                Vi = V[i, :, lo:hi]
                Vi[0] = v0[i]
                # until step k is reached, Vi[k] holds the pushes of finished blocks
                Vi[1:] = 0.0
                for start in range(0, n, tb):
                    m = min(tb, n - start)
                    # eta: the stream's next m draws of (q, P); z: the orthogonal driver's next m rows
                    eta, z = next(normals)
                    dW = A[0] @ eta
                    # B = rho W + rho_c What, Bperp = rho_c W - rho What: independent
                    # Brownian pair with W = rho B + rho_c Bperp and Corr(B, W) = rho
                    z *= sqrt_dt  # now What
                    dB[i, start : start + m, lo:hi] = rho[i] * dW + rho_c[i] * z
                    if store_bperp:
                        dBperp[i, start : start + m, lo:hi] = rho_c[i] * dW - rho[i] * z
                    if store_integrals:
                        integrals[i, start : start + m, lo:hi] = A[1] @ eta
                    for j in range(m):
                        ell = start + j + 1
                        eta[j] *= scale * s_vals[i][ell] * np.sqrt(Vi[ell - 1])
                        own = K[j, : (j + 1) * q] @ eta[: j + 1].reshape((j + 1) * q, P)
                        h = x_inf[i] + (v0[i] - x_inf[i]) * r_vals[i][ell]
                        Vi[ell] = np.maximum(h + Vi[ell] + own, 0.0)
                    # the push to later steps, in panels of equal height (see the module docstring)
                    rows = n - start - m
                    cuts = -(-rows // panel)
                    pushed = eta.reshape(m * q, P)
                    for c in range(cuts):
                        a, b = m + rows * c // cuts, m + rows * (c + 1) // cuts
                        Vi[start + 1 + a : start + 1 + b] += K[a:b] @ pushed

    return PathBundle(
        times=times,
        V=V,
        dB=dB,
        dBperp=dBperp,
        integrals=integrals,
        v0=v0_out,
        params=params,
    )
