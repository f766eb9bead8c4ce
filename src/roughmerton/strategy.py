"""Optimal investment rules, the adjusted forward curve, and analytic value functions.

The optimal fraction-of-wealth strategy is alpha*_t,i = pi_i(t) sqrt(V_t^i)
with deterministic multiplier

  power:        pi_i(t) = (theta_i + rho_i nu_i s_i(t) psi^i(T-t)) / (1-gamma)
  exponential:  pi_i(t) = e^{-int_t^T r} (theta_i + rho_i nu_i s_i(t) psi^i(T-t)) / gamma

(s = varsigma, psi the Riccati--Volterra exponent curve; the exponential rule
is in currency units rather than fractions).  For both utilities the value
process is

  J_t = U(X_t e^{int_t^T r}) exp(expo_t),
  expo_t = sum_i int_t^T (a_i + F_i(s, psi^i(T-s))) g_t^i(s) ds,

with g_t^i the adjusted forward curve at time t (see ``verify``), and the
value function is J_0, where g_0^i(s) = V_0^i + mu0_i s^alpha_i /
Gamma(alpha_i + 1), affine in V_0 with slope 1: the g_0 part of expo_t is
level_t + sum_i slope^i_t (V_0^i - x_inf^i), both from ``value_exponent``,
the one source for ``value_function`` and the martingale profile.  Rules and
values take the utility, gamma and model from the Riccati solution's spec,
so they always match the equation that was solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _gamma
from .riccati import RiccatiSolution
from .simulate import ModelParams

__all__ = [
    "UtilitySpec",
    "g0_curve",
    "optimal_rule",
    "value_exponent",
    "value_function",
]


@dataclass(frozen=True)
class UtilitySpec:
    """Utility family: power U(x) = x^gamma/gamma or exponential U(x) = -(1/gamma)e^(-gamma x)."""

    kind: str
    gamma: float

    def __post_init__(self):
        if self.kind not in ("power", "exponential"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "power" and not (0.0 < self.gamma < 1.0):
            raise ValueError("power utility requires 0 < gamma < 1")
        if self.kind == "exponential" and not 0.0 < self.gamma < math.inf:
            raise ValueError("exponential utility requires a finite gamma > 0")

    def u(self, x):
        """Utility of terminal wealth."""
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return x**self.gamma / self.gamma
        return -np.exp(-self.gamma * x) / self.gamma


def g0_curve(params: ModelParams, s) -> np.ndarray:
    """Adjusted forward curve g_0^i(s) = E[V_0^i] + mu0_i s^alpha_i / Gamma(alpha_i+1).

    Returns shape (d,) + shape(s).
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise ValueError("g0_curve requires s >= 0 (not NaN)")
    alpha = params.alpha
    return (
        params.x_inf[(...,) + (None,) * s.ndim]
        + params.mu0[(...,) + (None,) * s.ndim]
        * s[None, ...] ** alpha[(...,) + (None,) * s.ndim]
        / _gamma(alpha + 1.0)[(...,) + (None,) * s.ndim]
    )


def optimal_rule(sol: RiccatiSolution, t) -> np.ndarray:
    """Deterministic multiplier of sqrt(V^i) in the optimal strategy at time(s) t.

    For the degenerate power solution the hedging term carries the distortion
    coefficient delta (theta + delta rho nu varsigma psi_deg, consistent with
    the general rule through psi_general = delta psi_degenerate).
    """
    util, params = sol.spec.util, sol.spec.params
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    T = params.T
    if not np.all((t >= 0.0) & (t <= T + 1e-12)):
        raise ValueError("t must lie in [0, T] (not NaN)")
    psi_rev = sol.psi_at(T - t)  # (d, len(t))
    sig = np.stack([np.asarray(sol.spec.stabilizers[i](t)) for i in range(params.d)])
    hedge = params.rho[:, None] * params.nu[:, None] * sig * psi_rev
    if sol.variant == "power_degenerate":
        g = util.gamma
        delta = (1.0 - g) / (1.0 - g + g * params.rho**2)
        hedge = delta[:, None] * hedge
    base = params.theta[:, None] + hedge
    if util.kind == "power":
        out = base / (1.0 - util.gamma)
    else:
        disc = np.exp(params.rate.primitive(t) - params.rate.primitive(T))
        out = disc[None, :] * base / util.gamma
    return out[:, 0] if scalar else out


def _running_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_k} y along the last axis, k = 0..n: composite Simpson on an
    increasing grid x (n >= 2 intervals), reproducing
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)`` operation for
    operation.  Each interval's integral comes from the parabola through it and
    its right neighbour (even intervals) or its left neighbour (odd intervals
    and the last one), and the running sum adds them in order."""

    def first_interval(f, h):
        # integral over [x_j, x_{j+1}] of the parabola through x_j, x_{j+1}, x_{j+2}
        r1 = h[:-1] / (h[:-1] + h[1:])
        r2 = r1 * (h[:-1] / h[1:])
        return h[:-1] / 6 * ((3 - r1) * f[..., :-2] + (3 + r2 + r1) * f[..., 1:-1] - r2 * f[..., 2:])

    h = np.diff(x)
    right = first_interval(y, h)
    left = first_interval(y[..., ::-1], h[::-1])[..., ::-1]
    pieces = np.empty(y.shape[:-1] + h.shape)
    pieces[..., :-1:2] = right[..., ::2]
    pieces[..., 1::2] = left[..., ::2]
    pieces[..., -1] = left[..., -1]
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(pieces, axis=-1)
    return out


def value_exponent(sol: RiccatiSolution) -> tuple[np.ndarray, np.ndarray]:
    """The exponent's tail integrals on ``sol.times``, (slope, level), each (d, n+1):
    int_{t_k}^T (a_i + F_i) ds and int_{t_k}^T (a_i + F_i) g_0^i ds at V_0 = x_inf,
    a + F being ``sol.rhs_values`` reversed in time.  One composite-Simpson running
    integral (scipy's ``cumulative_simpson`` formula for a non-uniform grid,
    reproduced bit for bit by ``_running_simpson``) gives both as total minus
    running value, so both are 0 at T exactly."""
    rv = sol.rhs_values[:, ::-1]
    run = _running_simpson(np.stack([rv, rv * g0_curve(sol.spec.params, sol.times)]), sol.times)
    slope, level = run[..., -1:] - run
    return slope, level


def value_function(sol: RiccatiSolution, x0: float | None = None, v0=None) -> float:
    """Analytic value function J_0 at initial wealth x0 and initial variance v0.

    expo_0 is read from ``value_exponent`` at t = 0.  ``v0`` is one initial
    variance per asset, shape (d,), or one per asset and path, shape (d, P),
    for which the result is the mean over paths of the value at each path's
    V_0; ``x0`` defaults to the model's and ``v0`` to x_inf.  The degenerate
    power solution is rejected (the theorem's exponent uses the
    general-correlation forcing).
    """
    util, params = sol.spec.util, sol.spec.params
    if sol.variant == "power_degenerate":
        raise ValueError("value_function requires the general-correlation power solution")
    if x0 is None:
        x0 = params.x0
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    v0 = np.asarray(params.x_inf if v0 is None else v0, dtype=float)
    if v0.ndim not in (1, 2) or v0.shape[0] != params.d or v0.size == 0:
        raise ValueError(f"v0 must have shape ({params.d},) or ({params.d}, P) with P >= 1, got {v0.shape}")
    if not np.all(np.isfinite(v0)):
        raise ValueError("v0 must be finite")
    slope, level = value_exponent(sol)
    expo = float(np.sum(level[:, 0]))
    shift = slope[:, 0] @ (np.reshape(v0, (params.d, -1)) - params.x_inf[:, None])
    v0_factor = float(np.mean(np.exp(shift)))
    if util.kind == "power" and x0 <= 0.0:
        raise ValueError("power utility requires x0 > 0")
    return float(util.u(x0 * math.exp(params.rate.primitive(params.T)))) * math.exp(expo) * v0_factor
