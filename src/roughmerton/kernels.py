"""Fractional kernels, Mittag-Leffler resolvents and resolvent densities.

Provides:
  - ``KernelSpec``: fractional-kernel parameters (alpha, lam).
  - ``mittag_leffler``: E_alpha(z) for z <= 0, accurate over the whole range.
  - ``resolvent`` / ``resolvent_density``: R(t) = E_alpha(-lam t^alpha) and
    f(t) = -R'(t), the density of the probability measure 1 - R.
  - ``f_l2_norm``: ||f||_L2(0,inf) in closed form (no quadrature).
  - ``resolvent_residual``: Gauss-Jacobi check of the defining convolution
    identity R + lam (K * R) = 1.

The resolvent R solves R + lam * (K * R) = 1 with K the fractional kernel.
For moderate arguments R is evaluated by the defining power series; for large
arguments the series suffers catastrophic cancellation, so the completely
monotone integral representation

    E_alpha(-x) = int_0^inf exp(-r x^(1/alpha)) w_alpha(r) dr,
    w_alpha(r)  = sin(alpha pi)/pi * r^(alpha-1)
                  / (r^(2 alpha) + 2 r^alpha cos(alpha pi) + 1)

is used instead (substituting u = r^alpha to remove the endpoint singularity).

The L2 norm of f needs no quadrature.  The Laplace transform of f_{alpha,1} is
1/(s^alpha + 1); Parseval turns ||f_{alpha,1}||^2 into
(1/pi) int_0^inf dw / (w^(2 alpha) + 2 w^alpha cos(alpha pi/2) + 1); with
x = w^alpha this is the classical integral of x^(mu-1)/(x^2 + 2 x cos(phi) + 1)
over (0, inf) at mu = 1/alpha, phi = alpha pi/2, which gives

    ||f_{alpha,lam}||^2 = lam^(1/alpha) sin((1-alpha) pi/2)
                          / (alpha |sin(pi/alpha)| sin(alpha pi/2)),

which tends to lam/2 (the exponential case) as alpha -> 1; see ``f_l2_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as sp_gamma
from scipy.special import gammaln, roots_jacobi

__all__ = [
    "KernelSpec",
    "mittag_leffler",
    "resolvent",
    "resolvent_density",
    "f_l2_norm",
    "resolvent_residual",
]

# Seam between the defining power series and the integral representation,
# in terms of x = -z = lam * t^alpha.
_SERIES_RADIUS = 2.0


@dataclass(frozen=True)
class KernelSpec:
    """Fractional kernel K(t) = t^(alpha-1)/Gamma(alpha) with mean-reversion lam.

    Parameters
    ----------
    alpha : float
        Kernel exponent, in (1/2, 1].  alpha = 1 gives the classical
        exponential (memoryless) case.
    lam : float
        Mean-reversion rate, > 0.
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not (0.5 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (1/2, 1], got {self.alpha}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


def _ml_series(alpha: float, z: np.ndarray) -> np.ndarray:
    """Defining power series sum_k z^k / Gamma(alpha k + 1), |z| small."""
    out = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, 200):
        coef = math.exp(gammaln(alpha * (k - 1) + 1.0) - gammaln(alpha * k + 1.0))
        term = term * z * coef
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out


def _ml_integral(alpha: float, x: float) -> float:
    """E_alpha(-x) for x > 0 via the completely monotone representation.

    t -> E_alpha(-t^alpha) is the Laplace transform of the spectral density
    w_alpha, so E_alpha(-x) = int_0^inf exp(-r x^(1/a)) w_alpha(r) dr.  After
    u = r^alpha the integrand is smooth at the origin:

      E_alpha(-x) = sin(a pi)/(a pi) *
                    int_0^inf exp(-(u x)^(1/a)) / (u^2 + 2 u cos(a pi) + 1) du.
    """
    theta = alpha * math.pi
    cos_t = math.cos(theta)
    pref = math.sin(theta) / theta
    inv_a = 1.0 / alpha

    def integrand(u: float) -> float:
        return math.exp(-((u * x) ** inv_a)) / (u * u + 2.0 * u * cos_t + 1.0)

    # cut where the exponential reaches e^-50; flag the near-pole of the
    # denominator (at u = -cos(theta)) as a breakpoint when inside the range
    upper = 50.0**alpha / x
    points = [-cos_t] if 0.0 < -cos_t < upper else None
    val, _ = integrate.quad(
        integrand, 0.0, upper, epsabs=1e-15, epsrel=1e-13, limit=400, points=points
    )
    return pref * val


def mittag_leffler(alpha: float, z):
    """Mittag-Leffler function E_alpha(z) for z <= 0, 0 < alpha <= 1.

    Values lie in (0, 1]; relative accuracy ~1e-12 over the full range.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr > 0.0):
        raise ValueError("mittag_leffler requires z <= 0")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if alpha == 1.0:
        out = np.exp(z_arr)
    else:
        out = np.empty_like(z_arr)
        small = np.abs(z_arr) <= _SERIES_RADIUS
        if np.any(small):
            out[small] = _ml_series(alpha, z_arr[small])
        for idx in np.flatnonzero(~small):
            out[idx] = _ml_integral(alpha, -z_arr[idx])
    return float(out[0]) if scalar else out


def resolvent(spec: KernelSpec, t):
    """R(t) = E_alpha(-lam t^alpha); R(0) = 1, completely monotone."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("resolvent requires t >= 0")
    out = mittag_leffler(spec.alpha, -spec.lam * t**spec.alpha)
    return out


def _f_series_smooth(alpha: float, z: np.ndarray) -> np.ndarray:
    """S(z) = sum_k (-1)^k z^k / Gamma(alpha (k+1)), so f = lam t^(alpha-1) S."""
    out = np.full_like(z, 1.0 / sp_gamma(alpha))
    term = np.full_like(z, 1.0 / sp_gamma(alpha))
    for k in range(1, 200):
        coef = math.exp(gammaln(alpha * k) - gammaln(alpha * (k + 1)))
        term = term * (-z) * coef
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out


def _f_integral_smooth(alpha: float, x: float) -> float:
    """f(t)/(lam t^(alpha-1)) for x = lam t^alpha > 0, integral representation.

    Differentiating R(t) = int exp(-r lam^(1/a) t) w_alpha(r) dr in t gives
      f(t) = lam^(1/a) int_0^inf r exp(-r lam^(1/a) t) w_alpha(r) dr,
    and dividing by lam t^(alpha-1), with u = r^alpha, the smooth factor is
      x^(1/a - 1) * sin(a pi)/(a pi) *
      int_0^inf u^(1/a) exp(-(u x)^(1/a)) / (u^2 + 2 u cos(a pi) + 1) du.
    """
    theta = alpha * math.pi
    cos_t = math.cos(theta)
    pref = math.sin(theta) / theta
    inv_a = 1.0 / alpha

    def integrand(u: float) -> float:
        return u**inv_a * math.exp(-((u * x) ** inv_a)) / (u * u + 2.0 * u * cos_t + 1.0)

    upper = 60.0**alpha / x
    points = [-cos_t] if 0.0 < -cos_t < upper else None
    val, _ = integrate.quad(
        integrand, 0.0, upper, epsabs=1e-15, epsrel=1e-13, limit=400, points=points
    )
    return x ** (inv_a - 1.0) * pref * val


def _f_smooth(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """Smooth factor S with f(t) = lam * t^(alpha-1) * S(t), t > 0."""
    alpha, lam = spec.alpha, spec.lam
    if alpha == 1.0:
        return np.exp(-lam * t)
    z = lam * t**alpha
    out = np.empty_like(z)
    small = z <= _SERIES_RADIUS
    if np.any(small):
        out[small] = _f_series_smooth(alpha, z[small])
    for idx in np.flatnonzero(~small):
        out[idx] = _f_integral_smooth(alpha, z[idx])
    return out


def resolvent_density(spec: KernelSpec, t):
    """f(t) = -R'(t) for t > 0; +inf at t = 0 when alpha < 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("resolvent_density requires t >= 0")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    pos = t > 0.0
    out[pos] = spec.lam * t[pos] ** (spec.alpha - 1.0) * _f_smooth(spec, t[pos])
    out[~pos] = spec.lam if spec.alpha == 1.0 else np.inf
    return float(out[0]) if scalar else out


def f_l2_norm(spec: KernelSpec) -> float:
    """||f_{alpha,lam}||_{L2(0,inf)} in closed form; alpha = 1/2 diverges.

    The Laplace transform of f_{alpha,1} is 1/(s^alpha + 1), so by Parseval
    ||f_{alpha,1}||^2 = (1/pi) int_0^inf |1/((i w)^alpha + 1)|^2 dw.  With
    |(i w)^alpha + 1|^2 = x^2 + 2 x cos(phi) + 1, x = w^alpha, phi = alpha pi/2,
    dw = x^(1/alpha - 1) dx / alpha and the classical integral

      int_0^inf x^(mu-1) / (x^2 + 2 x cos(phi) + 1) dx
          = pi sin((1 - mu) phi) / (sin(mu pi) sin(phi))

    at mu = 1/alpha, this gives

      ||f_{alpha,1}||^2 = sin((1-alpha) pi/2) / (alpha |sin(pi/alpha)| sin(alpha pi/2)),

    and the scaling law ||f_{alpha,lam}||^2 = lam^(1/alpha) ||f_{alpha,1}||^2.
    |sin(pi/alpha)| is evaluated as sin(pi (1-alpha)/alpha), which keeps full
    relative accuracy as alpha -> 1, where the value tends to 1/2.
    """
    alpha, lam = spec.alpha, spec.lam
    if alpha == 1.0:
        return math.sqrt(lam / 2.0)
    unit_sq = math.sin((1.0 - alpha) * math.pi / 2.0) / (
        alpha * math.sin(math.pi * (1.0 - alpha) / alpha) * math.sin(alpha * math.pi / 2.0)
    )
    return math.sqrt(lam ** (1.0 / alpha) * unit_sq)


def resolvent_residual(spec: KernelSpec, t, n_nodes: int = 60):
    """|R(t) + lam (K * R)(t) - 1| by Gauss-Jacobi quadrature.

    The convolution int_0^t (t-s)^(alpha-1)/Gamma(alpha) R(s) ds carries the
    kernel singularity into the Jacobi weight, leaving a smooth integrand.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("resolvent_residual requires t > 0")
    xi, w = roots_jacobi(n_nodes, spec.alpha - 1.0, 0.0)
    # one resolvent call for every node of every t, plus the t themselves
    s = t[:, None] * 0.5 * (1.0 + xi)[None, :]
    r_all = resolvent(spec, np.concatenate([s.ravel(), t]))
    r_nodes, r_t = r_all[: s.size].reshape(s.shape), r_all[s.size :]
    # scalar powers: numpy's vector power can differ from them in the last bit
    scale = np.array([(ti / 2.0) ** spec.alpha for ti in t.tolist()])
    conv = scale / sp_gamma(spec.alpha) * np.sum(w * r_nodes, axis=1)
    out = np.abs(r_t + spec.lam * conv - 1.0)
    return out if out.size > 1 else float(out[0])
