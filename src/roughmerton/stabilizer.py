"""Stabilizer: the time-dependent diffusion modulation making Var(V_t) constant.

The stabilizer sigma = varsigma_{alpha,lam,c} solves the functional equation

    c lam^2 (1 - R(t)^2) = (f^2 * varsigma^2)(t)

(f the resolvent density, R the resolvent), which characterizes the
fake-stationary regime: constant mean and variance of the Volterra
square-root process over time.  For the fractional kernel it admits the
power-series form

    varsigma^2_{alpha,lam,c}(t) = c lam^(2 - 1/alpha) *
                                  varsigma_alpha^2(lam^(1/alpha) t),
    varsigma_alpha^2(tau)       = 2 tau^(1-alpha) sum_k (-1)^k c_k tau^(alpha k)

with coefficients c_k given by a Beta/Cauchy-product recurrence.

A table keeps only the coefficients its horizon T needs.  In u = lam t^alpha
(= tau^alpha) both series the table carries are power series: varsigma^2
with terms c_k u^k and the f^2 of the residual check with terms (b*b)_k u^k.
The recurrence stops at the first k where both have converged at
u = lam T^alpha.  The shorter series is the prefix of the 200-term one, and
its dropped tail is about 1e-17 of the sum, below rounding, so the tabulated
values and the residual come out as those of the 200-term series, bit for
bit on the tables the tests check.

The table's horizon T is its domain.  A build refuses a horizon at which
the series has not converged within ``_K_CAP`` = 200 terms, at which it is
not accurate on the grid, or at which it goes negative there, and a table
refuses every time outside [0, T] (NaN too); each raises
``StabilizerDomainError``.  Nothing extrapolates past T.  Converged is not
accurate: the c_k recurrence is ill-conditioned, so last-bit changes in its
Beta weights move c_k by more than 1e-3 relative past k = 29 to 100,
depending on alpha.  The recurrence therefore runs twice, the second time
under a rounding-level perturbation of those weights, and a build refuses a
grid time at which the spread this leaves reaches 1e-6 of the series (the
accuracy radius).  Only the residual check measures how well the kept
coefficients solve the equation.

Provides:
  - ``stabilizer_coefficients``: the c_k recurrence (extended-range, via
    log Gamma tables) and the spread rounding leaves in it, optionally
    stopped where the series has converged.
  - ``stabilizer_eval``: the series evaluated at any t >= 0.
  - ``build_stabilizer``: grid tabulation as a ``StabilizerTable``.
  - ``functional_equation_residual``: singularity-aware residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _gammaln, _ml_coefficients, f_l2_norm, resolvent

__all__ = [
    "StabilizerDomainError",
    "StabilizerTable",
    "stabilizer_coefficients",
    "stabilizer_eval",
    "build_stabilizer",
    "functional_equation_residual",
]

# Largest number of series coefficients kept (hard cap).
_K_CAP = 200
# Relative size of the last coefficient's term at the table's horizon at which
# the recurrence stops: far enough below rounding that the dropped tail does
# not move a tabulated value.
_SERIES_TOL = 1e-17
# Largest share of the series value that the rounding spread of its
# coefficients may reach on a table's grid (``build_stabilizer``).
_ACCURACY = 1e-6
# Slack by which a time may pass the table's horizon (grid rounding).
_HORIZON_SLACK = 1e-12


class StabilizerDomainError(ValueError):
    """A stabilizer asked for outside the horizon on which its series holds."""


@dataclass(frozen=True)
class StabilizerTable:
    """The stabilizer on [0, T], T = grid[-1], and the series that gives it.

    Attributes
    ----------
    spec : KernelSpec
        Kernel parameters (alpha, lam).
    c : float
        Variance scale c = v0 / (nu^2 x_inf) >= 0.
    coeffs : np.ndarray
        Series coefficients c_0..c_K, K set by the grid's horizon (see
        ``build_stabilizer``); empty when the series is not used (c = 0 or
        alpha = 1).
    grid : np.ndarray
        Times, starting at 0.
    limit : float
        Long-time limit sqrt(c) lam / ||f||_L2.
    """

    spec: KernelSpec
    c: float
    coeffs: np.ndarray
    grid: np.ndarray
    limit: float

    def covers(self, horizon: float) -> bool:
        """Whether the table's domain reaches ``horizon``."""
        return self.grid[-1] >= horizon - _HORIZON_SLACK

    def __call__(self, t):
        """varsigma at times in [0, T]; any other time (NaN too) raises
        ``StabilizerDomainError``."""
        arr = np.asarray(t, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= self.grid[-1] + _HORIZON_SLACK)):
            raise StabilizerDomainError(
                f"stabilizer (alpha={self.spec.alpha:g}, lam={self.spec.lam:g}) is tabulated on "
                f"[0, {self.grid[-1]:g}]; asked at t in [{np.min(arr):g}, {np.max(arr):g}]"
            )
        return stabilizer_eval(self.spec, self.c, self.coeffs, t)


def _log_beta_tables(alpha: float, n: int, n_sum: int):
    """log Gamma tables p, q (length n) and r (length n_sum) with

      log B(alpha (l+2) - 1, alpha (j-1) + 2) = p[l] + q[j] - r[l+j],

    the two arguments adding up to alpha (l+j+1) + 1.  Every Beta value the
    stabilizer takes, in the recurrence and in ``_series_convolution``, has
    this form, so each is three lookups into tables built once.
    """
    ks = np.arange(max(n, n_sum))
    return (
        _gammaln(alpha * (ks[:n] + 2) - 1.0),
        _gammaln(alpha * (ks[:n] - 1) + 2.0),
        _gammaln(alpha * (ks[:n_sum] + 1) + 1.0),
    )


def stabilizer_coefficients(alpha: float, n_coeffs: int, u: float | None = None):
    """Coefficients c_0..c_K of the stabilizer series, K <= n_coeffs - 1, and
    their rounding spread dc_0..dc_K.

    c_0 = Gamma(alpha)^2 / (Gamma(2 alpha - 1) Gamma(2 - alpha)) and, for k >= 1,

      c_k = Gamma(alpha)^2 Gamma(alpha (k+1)) /
            (Gamma(2 alpha - 1) Gamma(alpha k + 2 - alpha)) *
            [ (a*b)_k - alpha (k+1) sum_{l=1..k}
                B(alpha (l+2) - 1, alpha (k-l-1) + 2) (b*b)_l c_{k-l} ]

    with a_k = 1/Gamma(alpha k + 1), b_k = 1/Gamma(alpha (k+1)) the series
    coefficients of E_{alpha,1} and E_{alpha,alpha} (``kernels._ml_coefficients``)
    and (x*y) the Cauchy product.  Gamma ratios and Beta values go through
    log Gamma tables (``_log_beta_tables``) to survive large k.

    In the same loop the recurrence runs a second time with every Beta weight
    scaled by 1 +- 4 eps (the sign alternating in l), a perturbation at
    rounding level of its inputs.  The spread dc_k = |c_k - c'_k| shows how
    far rounding alone moves each coefficient: the recurrence is
    ill-conditioned, and the spread grows fast with k.

    Without ``u`` all n_coeffs coefficients are returned.  With ``u`` (the
    series variable lam t^alpha at the largest time of interest) the
    recurrence stops at the first k where both series a table carries have
    converged at u: the stabilizer series sum_k (-1)^k c_k u^k and the f^2
    series sum_k (-1)^k (b*b)_k u^k of ``_series_convolution``, each with its
    k-th term below ``_SERIES_TOL`` of its partial sum.  Every coefficient
    comes from the same operations whether or not the run stops early, so a
    stopped run is the prefix c_0..c_k of the full one, bit for bit.
    """
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"coefficient recurrence requires alpha in (1/2, 1), got {alpha}")
    if n_coeffs < 1:
        raise ValueError("n_coeffs must be >= 1")
    ks = np.arange(n_coeffs)
    a, b = _ml_coefficients(alpha, n_coeffs, 0), _ml_coefficients(alpha, n_coeffs, 1)
    log_first, log_second, log_sum = _log_beta_tables(alpha, n_coeffs, n_coeffs)

    log_g2a1 = math.lgamma(2.0 * alpha - 1.0)
    log_ga = math.lgamma(alpha)
    log_pref = 2.0 * log_ga + _gammaln(alpha * (ks + 1)) - log_g2a1 - log_second
    jitter = 1.0 + 4.0 * np.finfo(float).eps * (-1.0) ** ks

    c, c_pert, bb = np.empty(n_coeffs), np.empty(n_coeffs), np.empty(n_coeffs)
    c[0] = c_pert[0] = math.exp(2.0 * log_ga - log_g2a1 - math.lgamma(2.0 - alpha))
    bb[0] = b[0] * b[0]
    # running partial sums of both series at u, and (-u)^k, in Python floats:
    # past overflow they turn inf or nan without a warning, and never converge
    sum_c, sum_f, u_k = float(c[0]), float(bb[0]), 1.0
    for k in range(1, n_coeffs):
        ab_k = np.sum(a[: k + 1] * b[k::-1])
        bb[k] = np.sum(b[: k + 1] * b[k::-1])
        # B(alpha (l+2) - 1, alpha (k-l-1) + 2) (b*b)_l for 1 <= l <= k
        weights = np.exp(log_first[1 : k + 1] + log_second[k - 1 :: -1] - log_sum[k]) * bb[1 : k + 1]
        # math.exp: np.exp can differ from it in the last bit, which would move every c_k
        pref = math.exp(log_pref[k])
        c[k] = pref * (ab_k - alpha * (k + 1) * np.sum(weights * c[k - 1 :: -1]))
        c_pert[k] = pref * (ab_k - alpha * (k + 1) * np.sum(weights * jitter[1 : k + 1] * c_pert[k - 1 :: -1]))
        if u is not None:
            u_k *= -float(u)
            term_c, term_f = float(c[k]) * u_k, float(bb[k]) * u_k
            sum_c, sum_f = sum_c + term_c, sum_f + term_f
            if abs(term_c) < _SERIES_TOL * abs(sum_c) and abs(term_f) < _SERIES_TOL * abs(sum_f):
                return c[: k + 1].copy(), np.abs(c[: k + 1] - c_pert[: k + 1])
    return c, np.abs(c - c_pert)


def _cauchy(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cauchy product (u*v)_k = sum_{l<=k} u_l v_{k-l}, k < len(u)."""
    return np.array([np.sum(u[: k + 1] * v[k::-1]) for k in range(u.size)])


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] u^k by Horner's rule."""
    poly = np.full_like(u, coeffs[-1])
    for c_k in coeffs[-2::-1]:
        poly = poly * u + c_k
    return poly


def _series_sq_scaled(alpha: float, coeffs: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """varsigma_alpha^2(tau) = 2 tau^(1-alpha) sum_k (-1)^k c_k tau^(alpha k)."""
    signs = (-1.0) ** np.arange(coeffs.size)
    return 2.0 * tau ** (1.0 - alpha) * _horner(signs * coeffs, tau**alpha)


def _limit(spec: KernelSpec, c: float) -> float:
    """Long-time limit sqrt(c) lam / ||f||_L2 of varsigma."""
    return math.sqrt(c) * spec.lam / f_l2_norm(spec) if c > 0.0 else 0.0


def _raise_if_negative(spec: KernelSpec, sq: np.ndarray, ts: np.ndarray, limit: float) -> None:
    """Raise ``StabilizerDomainError`` where varsigma^2 values ``sq`` at times
    ``ts`` are materially negative: below -1e-10 limit^2."""
    negative = sq < -1e-10 * limit**2
    if np.any(negative):
        raise StabilizerDomainError(
            f"stabilizer series (alpha={spec.alpha:g}, lam={spec.lam:g}) went negative at t={ts[negative][0]:g}"
        )


def stabilizer_eval(spec: KernelSpec, c: float, coeffs: np.ndarray, t):
    """varsigma_{alpha,lam,c}(t) = sqrt(max(series, 0)), t >= 0.

    The series is summed as given, at any t: where it has converged is the
    caller's to know (``StabilizerTable`` keeps to its horizon).  A
    materially negative series value raises ``StabilizerDomainError``.  For
    alpha = 1 varsigma is the constant long-time limit sqrt(c) lam / ||f||_L2.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise ValueError("stabilizer_eval requires t >= 0")
    if c < 0.0:
        raise ValueError("variance scale c must be >= 0")
    alpha, lam, ts, limit = spec.alpha, spec.lam, np.atleast_1d(t), _limit(spec, c)
    if c == 0.0 or alpha == 1.0:
        # no noise, or the classical square-root diffusion: constant modulation
        out = np.full_like(ts, limit)
    else:
        sq = c * lam ** (2.0 - 1.0 / alpha) * _series_sq_scaled(alpha, coeffs, lam ** (1.0 / alpha) * ts)
        _raise_if_negative(spec, sq, ts, limit)
        out = np.sqrt(np.maximum(sq, 0.0))
    return float(out[0]) if t.ndim == 0 else out


def build_stabilizer(spec: KernelSpec, c: float, grid) -> StabilizerTable:
    """Tabulate the stabilizer on ``grid`` (starting at 0).

    The series keeps the coefficients its horizon T = grid[-1] needs: the
    recurrence stops where both series have converged at u = lam T^alpha
    (see ``stabilizer_coefficients``).  ``StabilizerDomainError`` is raised
    when the horizon needs all ``_K_CAP`` terms; when at some grid time the
    rounding spread of the coefficients, sum_k dc_k u^k, exceeds
    ``_ACCURACY`` of the series |sum_k c_k (-u)^k| (the message names the
    accuracy radius, the last grid time before it); or when the series goes
    negative on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must start at 0 and be strictly increasing")
    if c < 0.0:
        raise ValueError("variance scale c must be >= 0")
    coeffs, limit = np.empty(0), _limit(spec, c)
    # the series is used only when c > 0 and alpha < 1
    if c > 0.0 and spec.alpha < 1.0:
        alpha, lam, T = spec.alpha, spec.lam, grid[-1]
        u_T = lam * T**alpha
        coeffs, spread = stabilizer_coefficients(alpha, _K_CAP, u=u_T)
        if coeffs.size == _K_CAP:
            raise StabilizerDomainError(
                f"stabilizer series (alpha={alpha:g}, lam={lam:g}) has not converged in {_K_CAP} "
                f"terms at T={T:g} (tau_T = lam^(1/alpha) T = {u_T ** (1.0 / alpha):.4g})"
            )
        u = lam * grid**alpha
        signs = (-1.0) ** np.arange(coeffs.size)
        series = _horner(signs * coeffs, u)
        inaccurate = _horner(spread, u) > _ACCURACY * np.abs(series)
        if np.any(inaccurate):
            radius = grid[np.argmax(inaccurate) - 1]
            raise StabilizerDomainError(
                f"stabilizer series (alpha={alpha:g}, lam={lam:g}) holds to {_ACCURACY:g} against the "
                f"rounding in its coefficients only up to t={radius:.4g}, short of T={T:g}"
            )
        # the same sum scaled to varsigma^2 = 2 c lam^(2 - 1/alpha) tau^(1 - alpha) series,
        # tau = lam^(1/alpha) t: a series that goes negative on the grid raises here
        sq = 2.0 * c * lam ** (2.0 - 1.0 / alpha) * (lam ** (1.0 / alpha) * grid) ** (1.0 - alpha) * series
        _raise_if_negative(spec, sq, grid, limit)
    return StabilizerTable(spec=spec, c=c, coeffs=coeffs, grid=grid, limit=limit)


def functional_equation_residual(table: StabilizerTable) -> float:
    """sup_t |c lam^2 (1 - R(t)^2) - (f^2 * varsigma^2)(t)| / (c lam^2).

    For alpha < 1 the right side comes from ``_series_convolution``, which is
    exact up to series truncation, so the residual isolates how well the
    recurrence coefficients satisfy the defining equation.
    """
    spec, c = table.spec, table.c
    alpha, lam = spec.alpha, spec.lam
    if c == 0.0:
        return 0.0
    grid = table.grid[table.grid > 0.0]

    if alpha == 1.0:
        # constant varsigma: (f^2 * s^2)(t) = s^2 lam (1 - e^(-2 lam t)) / 2 exactly
        s_sq = table(grid) ** 2
        rhs = s_sq * lam * (1.0 - np.exp(-2.0 * lam * grid)) / 2.0
        lhs = c * lam**2 * (1.0 - np.exp(-2.0 * lam * grid))
        return float(np.max(np.abs(lhs - rhs)) / (c * lam**2))

    rhs = _series_convolution(table, grid)
    lhs = c * lam**2 * (1.0 - resolvent(spec, grid) ** 2)
    return float(np.max(np.abs(lhs - rhs)) / (c * lam**2))


def _series_convolution(table: StabilizerTable, grid: np.ndarray) -> np.ndarray:
    """(f^2 * varsigma^2)(t) on ``grid`` (t > 0, alpha < 1), term by term.

    With f(u)^2 = lam^2 u^(2a-2) sum_m d_m u^(a m)
    (d_m = (-lam)^m (b*b)_m, b_k = 1/Gamma(a(k+1))) and
    varsigma^2(tau) = 2 c lam sum_j e_j tau^(1 - a + a j)
    (e_j = (-lam)^j c_j), each cross term integrates to a Beta function:

      (f^2 * s^2)(t) = 2 c lam^3 sum_{m,j} M[m, j] t^(a (1 + m + j)),
      M[m, j]        = d_m e_j B(2a - 1 + a m, 2 - a + a j).

    The double sum depends on m and j only through m + j.  So M is folded
    onto its anti-diagonals, g_s = sum_{m+j=s} M[m, j], and the polynomial
    sum_s g_s u^s in u = t^a is evaluated by Horner's rule: O(K^2 + grid K)
    work, and no grid x K array.
    """
    alpha, lam, c = table.spec.alpha, table.spec.lam, table.c
    K = table.coeffs.size
    ks = np.arange(K)
    b = _ml_coefficients(alpha, K, 1)
    d = (-lam) ** ks * _cauchy(b, b)
    e = (-lam) ** ks * table.coeffs
    log_first, log_second, log_sum = _log_beta_tables(alpha, K, 2 * K - 1)
    beta_mat = np.exp(log_first[:, None] + log_second[None, :] - log_sum[ks[:, None] + ks[None, :]])
    M = beta_mat * d[:, None] * e[None, :]

    g = np.bincount((ks[:, None] + ks[None, :]).ravel(), weights=M.ravel())
    u = grid**alpha
    return 2.0 * c * lam**3 * u * _horner(g, u)
