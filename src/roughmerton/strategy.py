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
Gamma(alpha_i + 1).  g_0 is affine in V_0 with slope 1, so the value at any
initial variance is the value at the mean E[V_0] = x_inf times
exp(sum_i beta_i (V_0^i - x_inf^i)), beta_i = int_0^T (a_i + F_i(s,
psi^i(T-s))) ds.  Rules and values take the utility, gamma and model from
the Riccati solution's spec, so they always match the equation that was
solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.special import gamma as sp_gamma

from .riccati import RiccatiSolution
from .simulate import ModelParams

__all__ = [
    "UtilitySpec",
    "g0_curve",
    "optimal_rule",
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
    if np.any(s < 0.0):
        raise ValueError("g0_curve requires s >= 0")
    alpha = params.alpha
    return (
        params.x_inf[(...,) + (None,) * s.ndim]
        + params.mu0[(...,) + (None,) * s.ndim]
        * s[None, ...] ** alpha[(...,) + (None,) * s.ndim]
        / sp_gamma(alpha + 1.0)[(...,) + (None,) * s.ndim]
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
    if np.any((t < 0.0) | (t > T + 1e-12)):
        raise ValueError("t must lie in [0, T]")
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


def value_function(sol: RiccatiSolution, x0: float | None = None, v0=None) -> float:
    """Analytic value function at initial wealth x0 and initial variance v0.

    The exponent integral uses the solver's stored right-hand-side values:
    a_i + F_i(s, psi^i(T-s)) on the grid is the time reversal of
    ``sol.rhs_values[i]``; composite Simpson integrates it against g_0^i at
    V_0 = x_inf, and on its own for the slope beta_i of the exponent in V_0^i.
    ``v0`` is one initial variance per asset, shape (d,), or one per asset
    and path, shape (d, P); for the latter the result is the mean over the
    P paths of the value at each path's V_0.  The degenerate power solution
    is rejected (the theorem's exponent uses the general-correlation
    forcing).  ``x0`` defaults to the model's and ``v0`` to x_inf, where the
    V_0 factor is exactly 1.  The value is J_0 = U(x0 e^{int_0^T r})
    exp(expo_0) (see the module docstring) times that factor.
    """
    util, params = sol.spec.util, sol.spec.params
    if sol.variant == "power_degenerate":
        raise ValueError("value_function requires the general-correlation power solution")
    if x0 is None:
        x0 = params.x0
    if v0 is None:
        v0 = params.x_inf
    T, times = params.T, sol.times
    g0 = g0_curve(params, times)  # (d, n+1)
    integrand = sol.rhs_values[:, ::-1] * g0
    expo = float(sum(simpson(integrand[i], x=times) for i in range(params.d)))
    beta = np.array([simpson(sol.rhs_values[i, ::-1], x=times) for i in range(params.d)])
    shift = beta @ (np.reshape(v0, (params.d, -1)) - params.x_inf[:, None])
    v0_factor = float(np.mean(np.exp(shift)))
    if util.kind == "power" and x0 <= 0.0:
        raise ValueError("power utility requires x0 > 0")
    return float(util.u(x0 * math.exp(params.rate.integral(0.0, T)))) * math.exp(expo) * v0_factor
