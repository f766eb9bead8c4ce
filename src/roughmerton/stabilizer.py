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

Provides:
  - ``stabilizer_coefficients``: the c_k recurrence (extended-range, via gammaln).
  - ``stabilizer_eval``: pointwise evaluation with trust-radius guard.
  - ``build_stabilizer``: grid tabulation as a ``StabilizerTable``.
  - ``functional_equation_residual``: singularity-aware residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .kernels import KernelSpec, _ml_coefficients, f_l2_norm, resolvent

__all__ = [
    "StabilizerTable",
    "stabilizer_coefficients",
    "stabilizer_eval",
    "build_stabilizer",
    "functional_equation_residual",
]

# Largest number of series coefficients kept (hard cap).
_K_CAP = 200
# Relative size under which additional series terms are considered converged.
_TERM_TOL = 1e-12


@dataclass(frozen=True)
class StabilizerTable:
    """Stabilizer values on a grid, plus the series data that produced them.

    Attributes
    ----------
    spec : KernelSpec
        Kernel parameters (alpha, lam).
    c : float
        Variance scale c = v0 / (nu^2 x_inf) >= 0.
    coeffs : np.ndarray
        Series coefficients c_0..c_K (empty when alpha = 1).
    grid : np.ndarray
        Times, starting at 0.
    values : np.ndarray
        varsigma(t) >= 0 per grid point.
    limit : float
        Long-time limit sqrt(c) lam / ||f||_L2.
    radius : float or None
        Series trust radius in tau = lam^(1/alpha) t (see ``_trust_radius``);
        None when the series is not used (c = 0 or alpha = 1).
    """

    spec: KernelSpec
    c: float
    coeffs: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    limit: float
    radius: float | None

    def __call__(self, t):
        """Evaluate varsigma at arbitrary times via the series."""
        return stabilizer_eval(
            self.spec, self.c, self.coeffs, t, limit=self.limit, radius=self.radius
        )


def stabilizer_coefficients(alpha: float, n_coeffs: int) -> np.ndarray:
    """Coefficients c_0..c_K of the stabilizer series, K = n_coeffs - 1.

    c_0 = Gamma(alpha)^2 / (Gamma(2 alpha - 1) Gamma(2 - alpha)) and, for k >= 1,

      c_k = Gamma(alpha)^2 Gamma(alpha (k+1)) /
            (Gamma(2 alpha - 1) Gamma(alpha k + 2 - alpha)) *
            [ (a*b)_k - alpha (k+1) sum_{l=1..k}
                B(alpha (l+2) - 1, alpha (k-l-1) + 2) (b*b)_l c_{k-l} ]

    with a_k = 1/Gamma(alpha k + 1), b_k = 1/Gamma(alpha (k+1)) the series
    coefficients of E_{alpha,1} and E_{alpha,alpha} (``kernels._ml_coefficients``)
    and (u*v) the Cauchy product.  Gamma ratios go through gammaln to survive
    large k.
    """
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"coefficient recurrence requires alpha in (1/2, 1), got {alpha}")
    if n_coeffs < 1:
        raise ValueError("n_coeffs must be >= 1")
    K = n_coeffs - 1
    ks = np.arange(K + 1)
    a, b = _ml_coefficients(alpha, K + 1, 0), _ml_coefficients(alpha, K + 1, 1)
    ab, bb = _cauchy(a, b), _cauchy(b, b)

    log_g2a1 = gammaln(2.0 * alpha - 1.0)
    log_ga = gammaln(alpha)
    log_pref = (
        2.0 * log_ga + gammaln(alpha * (ks + 1)) - log_g2a1 - gammaln(alpha * ks + 2.0 - alpha)
    )
    # math.exp: np.exp can differ from it in the last bit, which would move every c_k
    pref = [math.exp(v) for v in log_pref]
    # weights[k, l] = B(alpha (l+2) - 1, alpha (k-l-1) + 2) (b*b)_l for 1 <= l <= k
    k_idx, l_idx = np.tril_indices(K + 1, -1)
    l_idx = l_idx + 1
    weights = np.zeros((K + 1, K + 1))
    weights[k_idx, l_idx] = (
        np.exp(betaln(alpha * (l_idx + 2) - 1.0, alpha * (k_idx - l_idx - 1) + 2.0)) * bb[l_idx]
    )

    c = np.empty(K + 1)
    c[0] = math.exp(2.0 * log_ga - log_g2a1 - gammaln(2.0 - alpha))
    for k in range(1, K + 1):
        conv = np.sum(weights[k, 1 : k + 1] * c[k - 1 :: -1])
        c[k] = pref[k] * (ab[k] - alpha * (k + 1) * conv)
    return c


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


def _trust_radius(alpha: float, coeffs: np.ndarray) -> float:
    """Largest tau where the partial sums have visibly converged.

    A point tau is trusted when the last kept term is below _TERM_TOL relative
    to the partial sum and the partial sum is positive; the radius is the
    last of 200 geometric tau before the first untrusted one.  Near
    alpha = 1 the c_k underflow to subnormals and tau^(alpha k) overflows at
    the larger tau.  The last term overflows first, to inf or (with c_K = 0)
    nan, so that tau is untrusted; the overflow itself is expected and not
    reported.
    """
    taus = np.geomspace(1e-4, 1e4, 200)
    k = np.arange(coeffs.size)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (-1.0) ** k * coeffs * taus[:, None] ** (alpha * k)
        total = np.sum(terms, axis=1)
        trusted = (total > 0.0) & (np.abs(terms[:, -1]) < _TERM_TOL * total)
    n_lead = int(np.logical_and.accumulate(trusted).sum())
    return taus[max(n_lead - 1, 0)]


def stabilizer_eval(
    spec: KernelSpec,
    c: float,
    coeffs: np.ndarray,
    t,
    limit: float | None = None,
    radius: float | None = None,
):
    """varsigma_{alpha,lam,c}(t) = sqrt(max(series, 0)), t >= 0.

    Beyond the series trust radius the asymptotic limit
    sqrt(c) lam / ||f||_L2 is returned, blended linearly over one decade edge.
    Raises on materially negative series values inside the trust radius.
    ``limit`` and ``radius`` (``_trust_radius(alpha, coeffs)``) are computed
    when not given.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("stabilizer_eval requires t >= 0")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if c < 0.0:
        raise ValueError("variance scale c must be >= 0")
    if c == 0.0:
        out = np.zeros_like(t)
        return float(out[0]) if scalar else out
    if limit is None:
        limit = math.sqrt(c) * spec.lam / f_l2_norm(spec)
    alpha, lam = spec.alpha, spec.lam
    if alpha == 1.0:
        # classical square-root diffusion: constant modulation
        out = np.full_like(t, limit)
        return float(out[0]) if scalar else out

    tau = lam ** (1.0 / alpha) * t
    if radius is None:
        radius = _trust_radius(alpha, coeffs)
    sq = np.zeros_like(tau)
    inside = tau <= radius
    if np.any(inside):
        vals = c * lam ** (2.0 - 1.0 / alpha) * _series_sq_scaled(alpha, coeffs, tau[inside])
        if np.any(vals < -1e-10 * limit**2):
            raise ArithmeticError(
                "stabilizer series went negative inside its trust radius; "
                "increase the number of coefficients or reduce the horizon"
            )
        sq[inside] = np.maximum(vals, 0.0)
    out = np.sqrt(sq)
    if np.any(~inside):
        # blend linearly into the limit over one trust-radius-sized cell
        edge = math.sqrt(
            max(c * lam ** (2.0 - 1.0 / alpha) * _series_sq_scaled(alpha, coeffs, np.array([radius]))[0], 0.0)
        )
        frac = np.clip((tau[~inside] - radius) / max(radius, 1e-12), 0.0, 1.0)
        out[~inside] = (1.0 - frac) * edge + frac * limit
    return float(out[0]) if scalar else out


def build_stabilizer(spec: KernelSpec, c: float, grid) -> StabilizerTable:
    """Tabulate the stabilizer on ``grid`` (starting at 0), with ``_K_CAP`` series coefficients."""
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must start at 0 and be strictly increasing")
    if c < 0.0:
        raise ValueError("variance scale c must be >= 0")
    limit = math.sqrt(c) * spec.lam / f_l2_norm(spec) if c > 0.0 else 0.0
    coeffs = (
        np.empty(0)
        if spec.alpha == 1.0
        else stabilizer_coefficients(spec.alpha, _K_CAP)
    )
    # the series, and so its trust radius, is used only when c > 0 and alpha < 1
    radius = _trust_radius(spec.alpha, coeffs) if c > 0.0 and spec.alpha < 1.0 else None
    values = stabilizer_eval(spec, c, coeffs, grid, limit=limit, radius=radius)
    return StabilizerTable(
        spec=spec, c=c, coeffs=coeffs, grid=grid, values=values, limit=limit, radius=radius
    )


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
    beta_mat = np.exp(
        betaln(2.0 * alpha - 1.0 + alpha * ks[:, None], 2.0 - alpha + alpha * ks[None, :])
    )
    M = beta_mat * d[:, None] * e[None, :]

    g = np.bincount((ks[:, None] + ks[None, :]).ravel(), weights=M.ravel())
    u = grid**alpha
    return 2.0 * c * lam**3 * u * _horner(g, u)
