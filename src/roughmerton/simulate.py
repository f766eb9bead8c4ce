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

The Volterra sum is a causal convolution over steps: with eta_l = (nu/lam)
varsigma(t_l) sqrt(V_{l-1}) xi_l, step k needs sum_{l<=k} A[k-l+1] @
eta_l.  ``_asset_blocks`` evaluates it in time blocks of b =
``_TIME_BLOCK`` steps, each split into sub-blocks of s steps (below).
Each step adds the terms of its own sub-block, each finished sub-block adds
its terms to the rest of its time block with one product, and each
finished block adds its terms to all later steps: the push of its (b q, P)
terms is a product against F, the rows of a Toeplitz gather of A at lags >=
2, where the resolvent density is smooth.  So the singular values of F
fall about tenfold per index, and it has numerical rank r ~ 48 at the
packaged sizes, against b q = 160-192 columns: a far-field factor U W = F
up to ``_FAR_CUT`` sigma_1 (the low-rank blocks of hierarchical matrices,
Hackbusch 2015) pushes in r (rows + b q) multiply-adds per path instead of
rows b q, as U[:rows] @ c, where the block's far projection c, (r, P),
sums W[:, cols] @ (terms) over its sub-blocks.  Every push takes this route;
the last block pushes nowhere, and its projection is empty.  So the push
costs O(n (r q + n r / b) P) flops per asset and block of P paths, not
O(n^2 q P), all in BLAS-3 products, and memory stays O(n P); at n = 600
and 2400 the push's multiply-adds fall 2.3x and 3.5x.  The factor
is built once per pass from the SVD of the triangular factor R of F = Q R,
at most (b q)^2: an SVD of F itself forms its (n, b q) left factor, and
left 14 MB more resident after a call at 2400 steps and 1000 paths.  V moves
from the dense push's only by rounding (1.7e-15 of max V at 600 steps,
1.6e-15 at 2400); the normals, dB and dBperp are the same bit for bit.

The push runs in row panels of at most ``_PANEL_BYTES`` of product rows, so
its temporary stays a few MB instead of (n, P).  The panels of one push
have equal heights (within one row), so none is a sliver that BLAS would
send to another kernel (gemv for one row) summing in another order; at the
packaged sizes the paths are those of the unpanelled push bit for bit.

The scheme runs asset by asset (``_asset_blocks``): for each asset, time
block by time block, and inside a time block path block by path block, so
that once a time block is done its rows of V, dB and dBperp are final for
every path and are handed out.  The V_0 draws and the dBperp generators of
every path block are made before the first asset.  Each generator is still
used in its own order (an asset's stream per path block time block by time
block, a path block's dBperp stream for asset 0's steps, then asset 1's,
...), so the paths are those of one path block after another, bit for bit.
This is the scheme's one output: one asset's V, (n+1, M) for M paths, and
one time block's rows of dB and dBperp are held, and a consumer reduces
each time block as it comes (every subcommand of ``cli``).
``simulate_variance`` copies the blocks into a ``PathBundle`` of
(d, n+1, M) and (d, n, M) arrays.

The standard normals are drawn by sub-block: s is the most steps whose
normals, (q + 1) P doubles a step, fit ``_SLOT_BYTES``, so about 8 steps at
10^4 paths and a whole time block at 1000.  One producer thread (a pool
scoped to the pass) runs ahead of the calling thread, drawing each
sub-block's normals into a ring of ``_RING_SLOTS`` preallocated slots until
the ring is full; a slot is free again once the caller has moved to the next
sub-block, whose terms then live on only in V and c.  So the normals cost
three slots, not two time blocks, of memory.  Where three slots would hold
more than two whole time blocks (a slot of more than two thirds of a block,
as at 1000 paths) the ring has two.  Each asset stream makes one
(s, q, P) draw per sub-block and the dBperp stream one (s, P) draw, which
are the same streams as one (n, q, P) and one (n, P) draw.  Every generator
is used by the producer alone, in its serial order, so the normals, dB and
dBperp are those of a serial loop bit for bit, and V moves only by the order
of the sums (3.8e-16 of max V at 10^4 paths and 600 steps; bit for bit
where s is the whole time block).  The producer is not a BLAS thread: BLAS
thread limits do not count it.

Provides:
  - ``ModelParams`` / ``SimGrid`` / ``PathBundle`` / ``RateCurve`` types.
  - ``integral_factor``: the per-asset joint factor A (exact rank-2 when alpha = 1).
  - ``_asset_blocks``: block-streamed, seed-deterministic path generation
    with a low-rank far-field push, handed out one finished time block at a
    time, and ``_bundle_blocks``: a stored bundle's blocks in that order.
  - ``simulate_variance``: the same paths copied into a bundle.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

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
# Bytes of the normals (eta and z) that one slot of the draw ring holds: at
# the packaged q = 5-6, 7-8 steps of a 10^4-path block, a whole time block of
# a 1000-path one.
_SLOT_BYTES = 4 << 20
# Slots of the draw ring: one in use, two drawn ahead (two slots where three
# would hold more than two whole time blocks of normals).
_RING_SLOTS = 3
# Relative singular-value cut of a block push's far-field factor.  The
# singular values of the far field fall about tenfold per index; at the
# packaged sizes (alpha 0.9 and 0.6, n = 600 and 2400) the first dropped one
# is at most 1.4e-14 of the largest, and at alpha = 0.99 a rounding plateau
# near 1.7e-14 lies below the cut, so none of its noise directions is kept.
_FAR_CUT = 2e-14


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

    ``rate`` is the piecewise-constant short rate, ``T`` the finite horizon
    and ``x0`` the finite initial wealth.  Risk aversion belongs to the utility
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
        if not math.isfinite(self.x0):
            raise ValueError(f"parameter x0 must be finite, got {self.x0}")

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
    """Uniform time grid t_k = k T / n on [0, T], for a finite T > 0 and an integer n >= 1."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (0.0 < self.T < math.inf and isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"SimGrid requires a finite T > 0 and an integer n_steps >= 1, got {self}")

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
    dBperp : np.ndarray
        Orthogonal increments, shape (d, n, n_paths); the variance driver is
        dW = rho dB + sqrt(1 - rho^2) dBperp.
    integrals : None
        Always None: no route stores the Gaussian integral draws.  The field
        stays because ``perfbench/spans.py`` reads it after each bundle.
    v0 : np.ndarray
        Initial variance per asset and path, shape (d, n_paths).
    params : ModelParams
        The parameters the bundle was simulated under.
    """

    times: np.ndarray
    V: np.ndarray
    dB: np.ndarray
    dBperp: np.ndarray
    integrals: np.ndarray | None
    v0: np.ndarray
    params: "ModelParams"

    @property
    def n_paths(self) -> int:
        return self.V.shape[2]


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


def _block_push(A: np.ndarray, n: int, b: int):
    """The in-block and push operators of time blocks of ``b`` steps: (K, U, W).

    K, (b, b q), holds the rows of the in-block sums.  A full block pushes
    its (b q, P) terms to the ``rows`` steps after it with F[:rows], F =
    ``_toeplitz_gather(A, n, b)[b:]`` (the lags >= 2).  F has numerical rank
    r far below b q, so with W the r leading right singular vectors of F
    (the singular values above ``_FAR_CUT`` of the largest) and U = F W^T,
    U[:rows] @ (W @ pushed) is that push in r (rows + b q) multiply-adds per
    path instead of rows b q, and |F - U W|_2 <= _FAR_CUT sigma_1(F) up to
    rounding.  The right factor comes from the SVD of the triangular R of
    F = Q R, at most (b q)^2, so no (n, b q) orthogonal factor is ever held.
    """
    K = _toeplitz_gather(A, n, b)
    F = K[b:]
    if F.shape[0] == 0:
        return K, np.empty((0, 0)), np.empty((0, F.shape[1]))
    _, s, W = np.linalg.svd(np.linalg.qr(F, mode="r"))
    W = W[: np.count_nonzero(s > _FAR_CUT * s[0])]
    return K[:b].copy(), F @ W.T, W


def _slot_steps(q: int, P: int, b: int) -> int:
    """Steps per sub-block: the most, up to ``b``, whose normals ((q + 1) P doubles a step) fit ``_SLOT_BYTES``."""
    return max(1, min(b, _SLOT_BYTES // (8 * (q + 1) * P)))


def _normals_ahead(draws, size: int, n_slots: int):
    """Yield the standard normals (eta, z) of each draw of ``draws``, in order.

    Each draw is (rng, bperp_rng, (m, q, P)): eta of shape (m, q, P) comes
    from rng and z of shape (m, P) from bperp_rng, (q + 1) m P <= ``size``
    doubles in all.  One producer thread draws them into a ring of
    ``n_slots`` slots of ``size`` doubles, running ahead of the caller
    until the ring is full, so a yielded pair is valid until the next is
    requested.  The producer is the only user of every generator and draws
    in order, so the values are those of a serial loop.  Closing the
    generator stops the producer and waits for it; an error the producer
    meets is raised to the caller in place of the draw it failed on.
    """
    slots = [np.empty(size) for _ in range(n_slots)]
    free, ready = threading.Semaphore(n_slots), threading.Semaphore(0)
    stop, filled = threading.Event(), deque()

    def produce():
        try:
            for k, (rng, bperp_rng, (m, q, P)) in enumerate(draws):
                free.acquire()
                if stop.is_set():
                    return
                slot = slots[k % n_slots]
                eta = rng.standard_normal(out=slot[: m * q * P].reshape(m, q, P))
                z = bperp_rng.standard_normal(out=slot[m * q * P : m * (q + 1) * P].reshape(m, P))
                filled.append((eta, z))
                ready.release()
        finally:
            # one release past the last draw, so that the caller never waits on an ended producer
            ready.release()

    with ThreadPoolExecutor(max_workers=1) as pool:
        producer = pool.submit(produce)
        try:
            while True:
                ready.acquire()
                if not filled:
                    break
                yield filled.popleft()
                free.release()
        finally:
            # wake a producer that waits on a full ring, and let it end before the pool shuts down
            stop.set()
            free.release()
            error = producer.exception()
    if error is not None:
        raise error


class _TimeBlock(NamedTuple):
    """One finished time block of one asset's paths.

    ``V`` is the asset's (n+1, M) variance paths, final up to row start + m;
    ``dB`` and ``dBperp`` are the block's m rows of the increments, (m, M) each.
    """

    asset: int
    start: int
    V: np.ndarray
    dB: np.ndarray
    dBperp: np.ndarray


def _asset_blocks(
    params: ModelParams,
    stab: list[StabilizerTable],
    grid: SimGrid,
    n_paths: int,
    seed: int,
    v0_mode: str = "gaussian",
    block_size: int = 25000,
):
    """Run the scheme one asset at a time; returns (v0, blocks).

    ``v0`` is the (d, M) initial variance, drawn before the first asset, and
    ``blocks`` a generator of ``_TimeBlock``: asset by asset, each time block
    of b = ``_TIME_BLOCK`` steps once every path block has run it, so that
    its rows of V, dB and dBperp are final for all M paths.  The arguments
    are checked and the factors built by the call, before any draw.

    One asset's V, (n+1, M), and one time block's rows of dB and dBperp are
    held, and each is overwritten by the next asset or block, so a yielded
    block is valid until the next is requested.  Besides them the pass holds
    the ring of two or three slots of one sub-block's normals, and one
    block's far projection c, (r, P).  Closing the generator ends the pass
    and its producer thread.

    Every generator draws in its own order whatever the loop order: one
    stream per asset and path block, the path block's V_0 stream (drawn
    first, (d, P) at once) and its dBperp stream (asset 0's steps, then
    asset 1's, ...).  So the paths are those of one path block after another.
    """
    d, n, dt = params.d, grid.n_steps, grid.dt
    times = grid.times
    if len(stab) != d:
        raise ValueError(f"need one stabilizer table per asset ({d}), got {len(stab)}")
    if v0_mode not in ("gaussian", "mean"):
        raise ValueError(f"unknown v0_mode {v0_mode!r}")
    for name, size in (("n_paths", n_paths), ("block_size", block_size)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    for i, tab in enumerate(stab):
        if not tab.covers(params.T):
            raise ValueError(f"stabilizer table {i} does not cover [0, T]")

    factors = [integral_factor(params.kernel_spec(i), dt, n) for i in range(d)]
    tb = min(_TIME_BLOCK, n)
    pushes = [_block_push(A, n, tb) for A in factors]
    r_vals = [resolvent(params.kernel_spec(i), times) for i in range(d)]
    s_vals = [np.asarray(stab[i](times)) for i in range(d)]
    x_inf, v0_sd = params.x_inf, np.sqrt(params.v0_var)
    rho = params.rho
    rho_c = np.sqrt(np.maximum(1.0 - rho**2, 0.0))
    sqrt_dt = math.sqrt(dt)

    spans = [(lo, min(lo + block_size, n_paths)) for lo in range(0, n_paths, block_size)]
    # per path block: one stream per asset, then one for V_0 and one for dBperp
    streams = [bss.spawn(d + 2) for bss in np.random.SeedSequence(seed).spawn(len(spans))]
    v0 = np.empty((d, n_paths))
    for subs, (lo, hi) in zip(streams, spans):
        if v0_mode == "gaussian":
            z0 = np.random.default_rng(subs[d]).standard_normal((d, hi - lo))
            v0[:, lo:hi] = np.maximum(x_inf[:, None] + v0_sd[:, None] * z0, _V0_FLOOR)
        else:
            v0[:, lo:hi] = x_inf[:, None]
    bperp_rngs = [np.random.default_rng(subs[d + 1]) for subs in streams]

    def draws():
        """The normals of every sub-block, in the order the loop below consumes them."""
        for i in range(d):
            q = factors[i].shape[1]
            rngs = [np.random.default_rng(subs[i]) for subs in streams]
            for start in range(0, n, tb):
                m = min(tb, n - start)
                for rng, bperp_rng, (lo, hi) in zip(rngs, bperp_rngs, spans):
                    s = _slot_steps(q, hi - lo, tb)
                    for j0 in range(0, m, s):
                        yield rng, bperp_rng, (min(s, m - j0), q, hi - lo)

    def run():
        V, held = np.empty((n + 1, n_paths)), np.empty((2, tb, n_paths))
        ranks, sizes = {A.shape[1] for A in factors}, {hi - lo for lo, hi in spans}
        size = max((q + 1) * P * _slot_steps(q, P, tb) for q in ranks for P in sizes)
        # never more than two whole time blocks of normals
        n_slots = _RING_SLOTS if _RING_SLOTS * size <= 2 * tb * (max(ranks) + 1) * max(sizes) else 2
        with closing(_normals_ahead(draws(), size, n_slots)) as normals:
            for i in range(d):
                A, (K, U, W) = factors[i], pushes[i]
                q = A.shape[1]
                scale = params.nu[i] / params.lam[i]
                V[0] = v0[i]
                # until step k is reached, V[k] holds the terms of finished blocks and sub-blocks
                V[1:] = 0.0
                for start in range(0, n, tb):
                    m = min(tb, n - start)
                    dB, dBp = held[:, :m]
                    # the push to the rows after the block, through the far-field factor;
                    # the last block pushes nowhere, so its projection is empty
                    rows = n - start - m
                    r = W.shape[0] if rows else 0
                    after = start + 1 + m
                    for lo, hi in spans:
                        P = hi - lo
                        panel = max(1, _PANEL_BYTES // (8 * P))
                        cuts = -(-rows // panel)
                        panels = [(rows * k // cuts, rows * (k + 1) // cuts) for k in range(cuts)]
                        Vp = V[:, lo:hi]
                        # the block's far projection c = W @ (its terms), summed over its sub-blocks
                        c = np.zeros((r, P))
                        j0 = 0
                        while j0 < m:
                            # eta: the stream's next sub-block of (q, P) draws, steps j0 to j1 of
                            # the block; z: the dBperp stream's next rows
                            eta, z = next(normals)
                            j1 = j0 + eta.shape[0]
                            dW = A[0] @ eta
                            # B = rho W + rho_c What, Bperp = rho_c W - rho What: independent
                            # Brownian pair with W = rho B + rho_c Bperp and Corr(B, W) = rho
                            z *= sqrt_dt  # now What
                            dB[j0:j1, lo:hi] = rho[i] * dW + rho_c[i] * z
                            dBp[j0:j1, lo:hi] = rho_c[i] * dW - rho[i] * z
                            for j in range(j0, j1):
                                ell = start + j + 1
                                eta[j - j0] *= scale * s_vals[i][ell] * np.sqrt(Vp[ell - 1])
                                own = K[j, j0 * q : (j + 1) * q] @ eta[: j - j0 + 1].reshape((j - j0 + 1) * q, P)
                                h = x_inf[i] + (v0[i, lo:hi] - x_inf[i]) * r_vals[i][ell]
                                Vp[ell] = np.maximum(h + Vp[ell] + own, 0.0)
                            # the sub-block's terms, to the rest of its time block and past it
                            terms, cols = eta.reshape((j1 - j0) * q, P), slice(j0 * q, j1 * q)
                            if j1 < m:
                                Vp[start + 1 + j1 : after] += K[j1:m, cols] @ terms
                            c += W[:r, cols] @ terms
                            j0 = j1
                        for a, b in panels:
                            Vp[after + a : after + b] += U[a:b] @ c
                    yield _TimeBlock(i, start, V, dB, dBp)

    return v0, run()


def _bundle_blocks(bundle: PathBundle):
    """A stored bundle's time blocks, in the order and sizes ``_asset_blocks`` yields them."""
    n = bundle.times.size - 1
    tb = min(_TIME_BLOCK, n)
    for i in range(bundle.params.d):
        for start in range(0, n, tb):
            rows = slice(start, start + tb)
            yield _TimeBlock(i, start, bundle.V[i], bundle.dB[i, rows], bundle.dBperp[i, rows])


def simulate_variance(
    params: ModelParams,
    stab: list[StabilizerTable],
    grid: SimGrid,
    n_paths: int,
    seed: int,
    v0_mode: str = "gaussian",
    block_size: int = 25000,
) -> PathBundle:
    """Simulate variance paths and correlated Brownian drivers.

    The paths of ``_asset_blocks``, collected into one bundle.  With eta_l =
    (nu/lam) varsigma(t_l) sqrt(V_{l-1}) xi_l, the Volterra sum of the
    scheme at step k is sum_{l<=k} A[k-l+1] @ eta_l, a causal convolution
    over steps.  It is evaluated in time blocks of b = ``_TIME_BLOCK``
    steps: inside a block each step adds the block's own terms (one product
    of length at most b q), and a finished block pushes its terms to every
    later step through a rank-r far-field factor of the push operator
    (r ~ 48, see ``_block_push``).  Per asset this is O(n (r q + n r / b) P)
    flops in matrix products for a block of P paths; the normals are those
    of the step-by-step scheme, and the sums are its sums in another order,
    with the push operator held to ``_FAR_CUT`` of its norm.  The factor
    comes from the SVD of F's small triangular factor, not of F, so that no
    (n, b q) orthogonal factor stays resident.

    The normals of each sub-block of s steps, (s, q, P) from the asset's
    stream and (s, P) from the orthogonal driver's, are drawn by one
    producer thread running ahead into a ring of three slots (two where a
    slot holds most of a time block) reused for the whole call, while this
    thread runs the products; dB and dBperp are
    formed sub-block by sub-block.  The producer ends before the call
    returns or raises, and an error it meets is raised here.

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
    block_size : int
        Paths per streamed block.

    Returns
    -------
    PathBundle
        Its V, dB and dBperp hold 3 d n n_paths doubles, and ``integrals``
        is None.  Each yielded block's final rows of V, its dB and its dBperp
        are copied in, so the call also holds the live pass's one asset's V
        and one time block's rows while it runs; consumers that reduce as the
        paths are made (every subcommand of ``cli``) hold only those.
    """
    v0, blocks = _asset_blocks(params, stab, grid, n_paths, seed, v0_mode, block_size)
    d, n = params.d, grid.n_steps
    V = np.empty((d, n + 1, n_paths))
    dB = np.empty((d, n, n_paths))
    dBperp = np.empty((d, n, n_paths))
    V[:, 0] = v0
    for blk in blocks:
        i, lo, hi = blk.asset, blk.start, blk.start + blk.dB.shape[0]
        V[i, lo + 1 : hi + 1] = blk.V[lo + 1 : hi + 1]
        dB[i, lo:hi] = blk.dB
        dBperp[i, lo:hi] = blk.dBperp
    return PathBundle(times=grid.times, V=V, dB=dB, dBperp=dBperp, integrals=None, v0=v0, params=params)
