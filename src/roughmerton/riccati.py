"""Riccati--Volterra equations for the exponent curve psi, per utility and correlation regime.

For each asset i the scalar curve psi^i solves

    psi^i(t) = int_0^t K_i(t - s) (a_i + F_i(T - s, psi(s))) ds,

with fractional kernel K_i(t) = t^(alpha_i - 1)/Gamma(alpha_i) and variant-
dependent forcing constant a_i and quadratic drift F_i (the mean-reversion
coupling is diagonal, so assets decouple):

  power_general:        a_i = g th^2/2,    F = g th rho nu s(t) x - lam x
                                               + (nu^2/2)(1 + g rho^2)(s x)^2
  power_degenerate:     a_i = g th^2/(2 dl),F = g rho th nu s(t) x - lam x
                                               + (nu^2/2)(s x)^2
  exponential_*:        a_i = -th^2/2,     F = -th rho nu s(t) x - lam x
                                               + (nu^2/2)(1 - rho^2)(s x)^2

where g = gamma/(1-gamma), dl = (1-gamma)/(1-gamma+gamma rho^2) is the
distortion coefficient, s = varsigma^i, th = theta_i.  The solver is the
fractional Adams predictor--corrector with per-asset, lag-indexed weights.
Its history sums cost O(n^2) multiply-adds in all; they are taken a block of
``_HIST_BLOCK`` steps at a time by two ``np.correlate`` calls, so each step
is Python float arithmetic.

Provides ``RiccatiSpec`` (the utility, model and stabilizers solved for) /
``RiccatiSolution``, ``solve_riccati`` (with blowup detection and horizon
bisection) and ``assumption_gate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING

import numpy as np

# not called here: the benchmark's trace points (perfbench/spans.py) still
# name roughmerton.riccati.mittag_leffler
from .kernels import mittag_leffler  # noqa: F401
from .simulate import ModelParams
from .stabilizer import StabilizerTable

if TYPE_CHECKING:
    from .strategy import UtilitySpec

__all__ = [
    "RiccatiSpec",
    "RiccatiSolution",
    "RiccatiBlowup",
    "solve_riccati",
    "assumption_gate",
]

# Blowup cap on |psi| and the relative resolution of the refined horizon.
_PSI_CAP = 1e6
_TMAX_RESOLUTION = 1e-3
# Adams steps per history block: of 8, 12, 16 and 24, marches of n = 200,
# 800 and 1600 took least at 12 and 16 (within 1%), 3% more at 8, 9% at 24.
_HIST_BLOCK = 12


class RiccatiBlowup(RuntimeError):
    """Raised when |psi| exceeds the cap before the requested horizon.

    Attributes
    ----------
    t_max : float
        Largest horizon (to 0.1% relative resolution) on which the solver
        stays below the cap.
    """

    def __init__(self, variant: str, t_max: float, T: float):
        self.t_max = t_max
        super().__init__(
            f"{variant} exponent curve exceeded |psi| = {_PSI_CAP:g} before T = {T:g}; "
            f"largest usable horizon is approximately {t_max:.6g}"
        )


@dataclass(frozen=True)
class RiccatiSpec:
    """Problem statement for the exponent curves of one utility.

    ``util`` is the ``UtilitySpec`` solved for: its family picks the equation
    and its gamma the coefficients, and every rule and value computed from
    the solution reads both from here.  ``degenerate`` selects the
    equal-correlation form; ``stabilizers`` holds one StabilizerTable per
    asset covering [0, T], T = ``params.T`` the horizon solved on; ``n`` is
    the Adams grid size, a Python or NumPy integer >= 2 (not a bool).
    """

    util: UtilitySpec
    params: ModelParams
    stabilizers: list[StabilizerTable]
    n: int
    degenerate: bool = False

    def __post_init__(self):
        p = self.params
        if len(self.stabilizers) != p.d:
            raise ValueError(f"need {p.d} stabilizer tables, got {len(self.stabilizers)}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"RiccatiSpec requires an integer n >= 2, got n = {self.n!r}")
        if self.degenerate and not np.all(p.rho == p.rho[0]):
            raise ValueError("degenerate variants require all rho_i equal")
        for i, tab in enumerate(self.stabilizers):
            if not tab.covers(p.T):
                raise ValueError(f"stabilizer table {i} does not cover [0, T]")

    @property
    def variant(self) -> str:
        """``{kind}_general`` or ``{kind}_degenerate``, kind the utility family."""
        return f"{self.util.kind}_{'degenerate' if self.degenerate else 'general'}"


@dataclass(frozen=True)
class RiccatiSolution:
    """psi on the Adams grid, plus the right-hand-side values for reuse.

    ``rhs_values[i, j]`` is a_i + F_i(T - t_j, psi^i(t_j)); reversing it in j
    gives the value-function integrand a_i + F_i(s, psi^i(T - s)) on the grid.
    """

    spec: RiccatiSpec
    times: np.ndarray
    psi: np.ndarray  # (d, n+1)
    rhs_values: np.ndarray  # (d, n+1)

    @property
    def variant(self) -> str:
        return self.spec.variant

    def psi_at(self, t) -> np.ndarray:
        """psi interpolated (piecewise-linear) at times t; shape (d,) + t.shape."""
        t = np.asarray(t, dtype=float)
        return np.stack([np.interp(t, self.times, self.psi[i]) for i in range(self.psi.shape[0])])


def _variant_coefficients(spec: RiccatiSpec):
    """Forcing constants a_i and the (linear, quadratic) F coefficients.

    Returns (a, lin, quad) with F_i(s, x) = lin_i * s_i(s) * x - lam_i * x
    + quad_i * (s_i(s) * x)^2.
    """
    g = spec.util.gamma
    th, rho, nu = spec.params.theta, spec.params.rho, spec.params.nu
    if spec.variant == "power_general":
        gg = g / (1.0 - g)
        a = g * th**2 / (2.0 * (1.0 - g))
        lin = gg * th * rho * nu
        quad = nu**2 / 2.0 * (1.0 + gg * rho**2)
    elif spec.variant == "power_degenerate":
        delta = (1.0 - g) / (1.0 - g + g * rho**2)
        a = g * th**2 / (2.0 * delta * (1.0 - g))
        lin = (g / (1.0 - g)) * rho * th * nu
        quad = nu**2 / 2.0
    else:  # exponential_general / exponential_degenerate (same equation)
        a = -(th**2) / 2.0
        lin = -th * rho * nu
        quad = nu**2 / 2.0 * (1.0 - rho**2)
    return a, lin, quad


def _adams_weights(alpha: float, dt: float, n: int):
    """Lag-indexed fractional Adams weights.

    Returns (bw, aw, a0, acorr): predictor weights bw[m] (m = k - j), interior
    corrector weights aw[m], the j = 0 corrector weight a0[k], and the
    implicit weight acorr = dt^alpha / Gamma(alpha + 2).
    """
    m = np.arange(n + 1, dtype=float)
    bw = dt**alpha / math.gamma(alpha + 1.0) * ((m + 1.0) ** alpha - m**alpha)
    aw = (
        dt**alpha
        / math.gamma(alpha + 2.0)
        * ((m + 2.0) ** (alpha + 1.0) + m ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0))
    )
    k = np.arange(n + 1, dtype=float)
    a0 = dt**alpha / math.gamma(alpha + 2.0) * (k ** (alpha + 1.0) - (k - alpha) * (k + 1.0) ** alpha)
    return bw, aw, a0, dt**alpha / math.gamma(alpha + 2.0)


def _solve_single(
    alpha: float,
    lam: float,
    a_i: float,
    lin_i: float,
    quad_i: float,
    sig_rev: np.ndarray,
    dt: float,
    n: int,
):
    """Fractional Adams march for one asset.

    ``sig_rev[j]`` = varsigma(T - t_j).  Returns (psi, rhs, blow_step) where
    blow_step is the first index with |psi| > cap, or -1.

    Step k + 1 predicts with sum_{j<=k} bw[k-j] f_j, then corrects with
    a0[k] f_0 + acorr rhs(pred) + sum_{1<=j<=k} aw[k-j] f_j, where
    rhs(x) = a + x (c1 + c2 x), c1 = lin varsigma - lam and c2 = quad varsigma^2.
    The steps go in blocks of ``_HIST_BLOCK`` (the last may be shorter): the
    f_j known when a block starts enter all of its predictor (corrector)
    sums through one ``np.correlate`` against the reversed weights, and the
    block's own f_j are added in Python floats, fewer than ``_HIST_BLOCK``
    terms per sum.  So each step is Python float arithmetic, and the history
    costs two ``np.correlate`` calls per block, not two ``np.dot`` calls per
    step.  The sums are grouped unlike those of a step-by-step march, so psi
    differs from one by rounding only.
    """
    bw, aw, a0, acorr = _adams_weights(alpha, dt, n)
    bwr, awr = bw[::-1].copy(), aw[::-1].copy()
    bwb, awb = bw[:_HIST_BLOCK].tolist(), aw[:_HIST_BLOCK].tolist()
    c1 = (lin_i * sig_rev - lam).tolist()
    c2 = (quad_i * sig_rev * sig_rev).tolist()
    a_i, acorr = float(a_i), float(acorr)

    psi = [0.0]
    fv = np.empty(n + 1)
    fv[0] = a_i  # rhs at psi(0) = 0
    a0f0 = a0 * a_i
    for s in range(0, n, _HIST_BLOCK):
        b = min(_HIST_BLOCK, n - s)
        # at steps s..s+b-1: the predictor's history j <= s, and the
        # corrector's j = 0 term plus its history 1 <= j <= s
        hist_p = np.correlate(bwr[n - s - b + 1 :], fv[: s + 1], "valid")[::-1].tolist()
        hist_c = a0f0[s : s + b]
        if s:
            hist_c = hist_c + np.correlate(awr[n - s - b + 2 :], fv[1 : s + 1], "valid")[::-1]
        recent = []  # the block's f so far, newest first
        for hp, hc, c1k, c2k in zip(hist_p, hist_c.tolist(), c1[s + 1 : s + b + 1], c2[s + 1 : s + b + 1]):
            pred = hp + sum(map(mul, recent, bwb))
            corr = hc + acorr * (a_i + pred * (c1k + c2k * pred)) + sum(map(mul, recent, awb))
            psi.append(corr)
            recent.insert(0, a_i + corr * (c1k + c2k * corr))
            if abs(corr) > _PSI_CAP:
                fv[s + 1 : len(psi)] = recent[::-1]
                return np.array(psi + [0.0] * (n + 1 - len(psi))), fv, len(psi) - 1
        fv[s + 1 : s + b + 1] = recent[::-1]
    return np.array(psi), fv, -1


def _sig_reversed(spec: RiccatiSpec, i: int, T: float, n: int) -> np.ndarray:
    """varsigma^i(T - t) on the n-step grid of [0, T]."""
    times = np.linspace(0.0, T, n + 1)
    return np.asarray(spec.stabilizers[i](T - times))


def solve_riccati(spec: RiccatiSpec) -> RiccatiSolution:
    """Solve the Riccati--Volterra system on the uniform Adams grid.

    Raises ``RiccatiBlowup`` (carrying the refined largest usable horizon)
    when |psi| exceeds 1e6 before T.
    """
    params, T, n = spec.params, spec.params.T, spec.n
    a, lin, quad = _variant_coefficients(spec)
    dt = T / n
    times = np.linspace(0.0, T, n + 1)
    psi = np.empty((params.d, n + 1))
    rhs_values = np.empty((params.d, n + 1))
    t_max = math.inf
    for i in range(params.d):
        sig_rev = _sig_reversed(spec, i, T, n)
        p_i, f_i, blow = _solve_single(
            params.alpha[i], params.lam[i], a[i], lin[i], quad[i], sig_rev, dt, n
        )
        if blow >= 0:
            t_max = min(t_max, _refine_horizon(spec, i, a[i], lin[i], quad[i], times[blow]))
            continue
        psi[i], rhs_values[i] = p_i, f_i
    if math.isfinite(t_max):
        raise RiccatiBlowup(spec.variant, t_max, T)
    return RiccatiSolution(spec=spec, times=times, psi=psi, rhs_values=rhs_values)


def _refine_horizon(spec: RiccatiSpec, i: int, a_i, lin_i, quad_i, t_bad: float) -> float:
    """Bisect the largest horizon on which asset i stays below the cap."""
    params, n = spec.params, spec.n

    def blows(horizon: float) -> bool:
        sig_rev = _sig_reversed(spec, i, horizon, n)
        _, _, blow = _solve_single(
            params.alpha[i], params.lam[i], a_i, lin_i, quad_i, sig_rev, horizon / n, n
        )
        return blow >= 0

    lo, hi = 0.0, min(t_bad, params.T)
    for _ in range(60):
        if hi - lo <= _TMAX_RESOLUTION * hi:
            break
        mid = 0.5 * (lo + hi)
        if blows(mid):
            hi = mid
        else:
            lo = mid
    return lo


def assumption_gate(sol: RiccatiSolution, p: float) -> dict:
    """Exponential-moment level the theorem needs, for this solution.

    The theorem applies under a uniform exponential moment of order a with
    max_i sup_t (theta_i^2 + nu_i^2 varsigma^i(t)^2 psi^i(T-t)^2) <= a / a(p),
    a(p) = max[p(2+|S|), 2(8p^2-2p)(1+|S|^2), p(1+|S|^2)] and
    |S| = sum_i rho_i^2.  Returns a(p) ('a_p'), the supremum ('lhs_sup') and
    the least such level 'a_required' = a(p) * lhs_sup.
    """
    if p <= 1.0:
        raise ValueError("require p > 1")
    spec = sol.spec
    params = spec.params
    s_norm = float(np.sum(params.rho**2))
    a_p = max(
        p * (2.0 + s_norm),
        2.0 * (8.0 * p**2 - 2.0 * p) * (1.0 + s_norm**2),
        p * (1.0 + s_norm**2),
    )
    # psi^i(T - t) sweeps the same grid values as psi^i(t); varsigma at t
    lhs = 0.0
    for i in range(params.d):
        sig = np.asarray(spec.stabilizers[i](sol.times))
        psi_rev = sol.psi[i][::-1]
        lhs = max(lhs, float(np.max(params.theta[i] ** 2 + params.nu[i] ** 2 * sig**2 * psi_rev**2)))
    return {"a_p": a_p, "lhs_sup": lhs, "a_required": a_p * lhs}
