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
R and f are two members of the two-parameter family
E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta):

    R(t) = E_{alpha,1}(-lam t^alpha),
    f(t) = lam t^(alpha-1) E_{alpha,alpha}(-lam t^alpha),

and one representation serves both, indexed by m = 0 (beta_0 = 1) and
m = 1 (beta_1 = alpha).  The coefficients are 1/Gamma(alpha (k+m) + 1 - m)
(``_ml_coefficients``, which the stabilizer series also reads).  For
|z| <= 2 the defining series is summed; for larger arguments it suffers
catastrophic cancellation, so the completely monotone (spectral)
representation is integrated instead: t -> E_alpha(-t^alpha) is the
Laplace transform of the spectral density

    w_alpha(r) = sin(alpha pi)/pi * r^(alpha-1)
                 / (r^(2 alpha) + 2 r^alpha cos(alpha pi) + 1),

and differentiating R(t) = int exp(-r lam^(1/alpha) t) w_alpha(r) dr in t
gives f as the same integral with one more factor r.  With x = -z and
u = r^alpha (which removes the endpoint singularity) both read

    E_{alpha,beta_m}(-x) = x^(m (1/alpha - 1)) sin(alpha pi)/(alpha pi)
                           int_0^inf u^(m/alpha) exp(-(u x)^(1/alpha))
                                     / (u^2 + 2 u cos(alpha pi) + 1) du,

which ``_ml_integral`` evaluates.

The L2 norm of f needs no quadrature.  The Laplace transform of f_{alpha,1} is
1/(s^alpha + 1); Parseval turns ||f_{alpha,1}||^2 into
(1/pi) int_0^inf dw / (w^(2 alpha) + 2 w^alpha cos(alpha pi/2) + 1); with
x = w^alpha this is the classical integral of x^(mu-1)/(x^2 + 2 x cos(phi) + 1)
over (0, inf) at mu = 1/alpha, phi = alpha pi/2, which gives

    ||f_{alpha,lam}||^2 = lam^(1/alpha) sin((1-alpha) pi/2)
                          / (alpha |sin(pi/alpha)| sin(alpha pi/2)),

which tends to lam/2 (the exponential case) as alpha -> 1; see ``f_l2_norm``.

The special functions come from libm and numpy, not scipy.special: Gamma
and log Gamma are ``math.gamma`` and ``math.lgamma`` (``_gamma``,
``_gammaln``), and the Gauss-Jacobi rule of ``resolvent_residual`` is
Golub-Welsch on ``numpy.linalg.eigvalsh`` with weights from the Jacobi
three-term recurrence (``_roots_jacobi``).  A run therefore loads neither
scipy.special nor scipy.linalg.

``scipy.integrate`` (and the scipy.optimize, sparse and linalg packages it
imports) is bound as the module attribute ``integrate`` but loads on the
first ``integrate.quad`` call, so importing this module costs none of it; no
packaged config reaches the spectral integral.  NaN arguments are refused
before they reach ``quad``.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "mittag_leffler",
    "resolvent",
    "resolvent_density",
    "f_l2_norm",
    "resolvent_residual",
]


def _lazy_module(name: str):
    """``name`` in ``sys.modules``, executed on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# loads on the first quad call (see the module docstring)
integrate = _lazy_module("scipy.integrate")

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


def _gamma(x: np.ndarray) -> np.ndarray:
    """Gamma(x) from libm's ``math.gamma``, elementwise on an array."""
    x = np.asarray(x, dtype=float)
    return np.array([math.gamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _gammaln(x: np.ndarray) -> np.ndarray:
    """log |Gamma(x)| from libm's ``math.lgamma``, elementwise on an array."""
    x = np.asarray(x, dtype=float)
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _jacobi(n: int, a: float, b: float, x: np.ndarray):
    """P_n^(a,b)(x) and P_n'(x), n >= 1, by the three-term recurrence
    P_(k+1) = (A_k x + B_k) P_k - C_k P_(k-1) (DLMF 18.9.2), differentiated for P_n'."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a + b
    norm = 2.0 * (k + 1.0) * (k + a + b + 1.0) * s
    A = (s + 1.0) * (s + 2.0) * s / norm
    B = (s + 1.0) * (a * a - b * b) / norm
    C = 2.0 * (k + a) * (k + b) * (s + 2.0) / norm
    prev, cur = np.ones_like(x), (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    dprev, dcur = np.zeros_like(x), np.full_like(x, (a + b + 2.0) / 2.0)
    for A_k, B_k, C_k in zip(A.tolist(), B.tolist(), C.tolist()):
        lin = A_k * x + B_k
        prev, cur, dprev, dcur = cur, lin * cur - C_k * prev, dcur, lin * dcur + A_k * cur - C_k * dprev
    return cur, dcur


def _roots_jacobi(n: int, a: float, b: float):
    """Gauss-Jacobi nodes and weights for the weight (1-x)^a (1+x)^b on [-1, 1], n >= 1.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix, polished by one Newton step on P_n.
    Weights from the eigenvectors hold only ~1e-12 relative, so they come
    from the derivative formula w_i ~ 1 / ((1 - x_i^2) P_n'(x_i)^2),
    normalised to mu_0 = 2^(a+b+1) B(a+1, b+1).  P_n' is carried through the
    Newton step to first order, with P_n'' from Jacobi's differential
    equation.  Against 40-digit values the weights hold to ~2e-13 relative
    at n = 60.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_n, dp_n = _jacobi(n, a, b, x)
    ddp_n = ((a - b + (a + b + 2.0) * x) * dp_n - n * (n + a + b + 1.0) * p_n) / ((1.0 - x) * (1.0 + x))
    step = -p_n / dp_n
    x, dp_n = x + step, dp_n + ddp_n * step
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp_n * dp_n)
    mu0 = 2.0 ** (a + b + 1.0) * math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return x, w * (mu0 / np.sum(w))


def _gamma_arg(alpha: float, k, m: int):
    """alpha (k + m) + 1 - m: Gamma's argument in the k-th coefficient of E_{alpha,beta_m}."""
    return alpha * (k + m) + (1 - m)


def _ml_coefficients(alpha: float, n: int, m: int) -> np.ndarray:
    """1/Gamma(alpha (k + m) + 1 - m), k < n: the series coefficients of E_{alpha,beta_m}."""
    return np.exp(-_gammaln(_gamma_arg(alpha, np.arange(n), m)))


def _ml_series(alpha: float, z: np.ndarray, m: int) -> np.ndarray:
    """Defining power series sum_k z^k / Gamma(alpha (k + m) + 1 - m), |z| small.

    Summed forward, each term from the last through the ratio of consecutive
    coefficients (from one log Gamma table), until the terms fall below 1e-18.
    """
    log_gamma = _gammaln(_gamma_arg(alpha, np.arange(200), m)).tolist()
    term = np.full_like(z, 1.0 / math.gamma(_gamma_arg(alpha, 0, m)))
    out = term
    for k in range(1, 200):
        term = term * z * math.exp(log_gamma[k - 1] - log_gamma[k])
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out


def _ml_integral(alpha: float, x: float, m: int) -> float:
    """E_{alpha,beta_m}(-x) for x > 0 from the spectral representation.

    With u0 = cos(pi (1-a)) = -cos(a pi) and s = sin(pi (1-a)) = sin(a pi),
    the denominator u^2 + 2 u cos(a pi) + 1 is v^2 + s^2, v = u - u0: a peak
    of width s, which narrows as a -> 1.  Once it is narrow (h = 100 s
    <= u0/2), |v| <= h is integrated in v = s tan(phi), where the integrand
    is g(u) = u^(m/a) exp(-(u x)^(1/a)) times dphi / s.  The rest of
    u >= u0/2 is integrated in v, with breakpoints at v = +-h 10^j, and
    u < u0/2 in u: each variable is the one in which its nodes keep full
    relative precision.  The exponential reaches e^-60 at u = 60^a / x,
    where the range is cut; at x = inf the value is its limit, 0.
    """
    if x == math.inf:
        return 0.0
    inv_a = 1.0 / alpha
    u0 = math.cos(math.pi * (1.0 - alpha))
    s = math.sin(math.pi * (1.0 - alpha))
    u_cut = 60.0**alpha / x
    h = 100.0 * s if 200.0 * s <= u0 else 0.0
    split = 0.5 * u0 if u0 > 0.0 else u_cut
    breaks = [sign * h * 10.0**j for j in range(1, 20) for sign in (-1.0, 1.0)] if h else []

    def g(u: float) -> float:
        return u ** (m * inv_a) * math.exp(-((u * x) ** inv_a))

    def tail(v: float) -> float:
        return g(u0 + v) / (v * v + s * s)

    def quad(fun, lo: float, hi: float, points=()) -> float:
        if lo >= hi:
            return 0.0
        inside = [p for p in points if lo < p < hi] or None
        return integrate.quad(fun, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400, points=inside)[0]

    v_cut = u_cut - u0
    peak = quad(lambda phi: g(u0 + s * math.tan(phi)), math.atan(-h / s), math.atan(min(h, v_cut) / s))
    near = quad(tail, split - u0, min(-h, v_cut), breaks) + quad(tail, max(h, split - u0), v_cut, breaks)
    far = quad(lambda u: g(u) / ((u - u0) ** 2 + s * s), 0.0, min(split, u_cut))
    return x ** (m * (inv_a - 1.0)) * (peak + s * (near + far)) / (alpha * math.pi)


def _ml(alpha: float, z: np.ndarray, m: int) -> np.ndarray:
    """E_{alpha,1}(z) (m = 0) or E_{alpha,alpha}(z) (m = 1) on an array z <= 0."""
    if alpha == 1.0:
        return np.exp(z)
    out = np.empty_like(z)
    small = np.abs(z) <= _SERIES_RADIUS
    if np.any(small):
        out[small] = _ml_series(alpha, z[small], m)
    for idx in np.flatnonzero(~small):
        out[idx] = _ml_integral(alpha, -z[idx], m)
    return out


def mittag_leffler(alpha: float, z):
    """Mittag-Leffler function E_alpha(z) = E_{alpha,1}(z) for z <= 0, 0 < alpha <= 1.

    Values lie in (0, 1]; relative accuracy ~1e-12 over the full range.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.isnan(z_arr)):
        raise ValueError("mittag_leffler requires z to be a number, got NaN")
    if np.any(z_arr > 0.0):
        raise ValueError("mittag_leffler requires z <= 0")
    out = _ml(alpha, np.atleast_1d(z_arr), 0)
    return float(out[0]) if z_arr.ndim == 0 else out


def resolvent(spec: KernelSpec, t):
    """R(t) = E_alpha(-lam t^alpha); R(0) = 1, completely monotone."""
    t = np.asarray(t, dtype=float)
    if np.any(np.isnan(t)):
        raise ValueError("resolvent requires t to be a number, got NaN")
    if np.any(t < 0.0):
        raise ValueError("resolvent requires t >= 0")
    return mittag_leffler(spec.alpha, -spec.lam * t**spec.alpha)


def _f_smooth(spec: KernelSpec, t: np.ndarray) -> np.ndarray:
    """Smooth factor S = E_{alpha,alpha}(-lam t^alpha) with f(t) = lam t^(alpha-1) S(t), t > 0."""
    return _ml(spec.alpha, -spec.lam * t**spec.alpha, 1)


def resolvent_density(spec: KernelSpec, t):
    """f(t) = -R'(t) for t > 0; +inf at t = 0 when alpha < 1."""
    t = np.asarray(t, dtype=float)
    if np.any(np.isnan(t)):
        raise ValueError("resolvent_density requires t to be a number, got NaN")
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
    xi, w = _roots_jacobi(n_nodes, spec.alpha - 1.0, 0.0)
    # one resolvent call for every node of every t, plus the t themselves
    s = t[:, None] * 0.5 * (1.0 + xi)[None, :]
    r_all = resolvent(spec, np.concatenate([s.ravel(), t]))
    r_nodes, r_t = r_all[: s.size].reshape(s.shape), r_all[s.size :]
    # scalar powers: numpy's vector power can differ from them in the last bit
    scale = np.array([(ti / 2.0) ** spec.alpha for ti in t.tolist()])
    conv = scale / math.gamma(spec.alpha) * np.sum(w * r_nodes, axis=1)
    out = np.abs(r_t + spec.lam * conv - 1.0)
    return out if out.size > 1 else float(out[0])
