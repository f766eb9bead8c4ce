"""Monte Carlo verification harness: wealth simulation, value agreement, optimality.

Wealth under a candidate rule pi (multiplier of sqrt(V), deterministic in t)
evolves on the bundle's grid with the SAME Brownian increments dB that drove
V.  With a_i = theta_i V_i D + sqrt(V_i) dB_i on the left grid points and
"." the sum over grid steps:

  power (fractions of wealth; exact in log, so X > 0 pathwise):
      log X_T = log x0 + sum_k r_k D + sum_i [pi_i . a_i - (D/2) pi_i^2 . V_i];
  exponential (amounts; discounted Euler, disc = e^{-int_0^t r}):
      X_T = e^{int_0^T r} (x0 + sum_i (disc pi_i) . a_i).

Per asset these are two products along the grid, against sqrt(V_i) dB_i and
against V_i D, whose weights depend on the rule but not on the path: pi_i and
theta_i pi_i - pi_i^2/2 for power, disc pi_i and theta_i disc pi_i for
exponential, so the discounting lives in the weights.  One pass per asset
forms sqrt(V_i) dB_i once and reduces it and V_i for a whole stack of rules
by matrix products; the wealth path of one rule is the running sum of the
same step terms.

The martingale optimality principle is probed two ways: paired common-random-
number comparisons of E[U(X_T)] between the optimal rule and perturbed rules
(suboptimality gap ~ eps^2), and the pathwise profile of

  J_t = U-scaled Gamma_t,
  Gamma_t = exp( [gamma int_t^T r]_power
                 + sum_i int_t^T (a_i + F_i(s, psi^i(T-s))) g^i_t(s) ds ),

with the pathwise adjusted forward curve discretized from the simulated path,
g_0 taken at the path's own V_0:
g_t(s) = g_0(s) + sum_{l <= k} Kbar_l(s) DZ_l, where DZ_l = -lam V_{l-1} D
+ nu varsigma(t_l) sqrt(V_{l-1}) DW_l and Kbar_l is the increment-averaged
fractional kernel (K1(s - t_{l-1}) - K1(s - t_l))/D, K1(t) = t^alpha /
Gamma(alpha + 1) -- the exact average of K over the increment interval, which
avoids the K(0) singularity at grid points.  J should be flat in t for the
optimal rule, with J_0 = value function and J_T = U(X_T).

The market (theta, rates, x0, kernels) is read from the bundle's
``params``; the utility and the exponent curves from the Riccati solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as sp_gamma

from .riccati import RiccatiSolution
from .simulate import PathBundle
from .strategy import UtilitySpec, g0_curve, optimal_rule, value_function

__all__ = [
    "WealthRun",
    "PerturbationSpec",
    "simulate_wealth",
    "optimality_test",
    "martingale_profile",
    "moment_curves",
    "stationarity_report",
]


@dataclass(frozen=True)
class WealthRun:
    """Terminal wealth and utility statistics for one strategy on one bundle."""

    x_T: np.ndarray
    u_T: np.ndarray
    mean: float
    se: float


@dataclass(frozen=True)
class PerturbationSpec:
    """Additive perturbation of the rule: pi(t) -> pi(t) + eps * h(t).

    ``h`` maps a time array (m,) to a direction array (d, m); ``label`` tags
    the direction in reports.
    """

    epsilon: float
    h: object
    label: str = ""

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")


def _increments(v_prev: np.ndarray, drift, vol, dX: np.ndarray, dt: float) -> np.ndarray:
    """drift * v_prev * dt + vol * sqrt(v_prev) * dX, as a new array.

    Built in place with the expression's operations in its order, so it is
    bit-identical to the expression while holding one full-size temporary
    besides the result.
    """
    out = drift * v_prev
    out *= dt
    noise = np.sqrt(v_prev)
    noise *= vol
    noise *= dX
    out += noise
    return out


def _wealth_steps(bundle: PathBundle, util: UtilitySpec, rules: list):
    """The wealth recursion of each rule, evaluated at the left grid points, as weights.

    Its state (log X for power, the discounted X for exponential) starts at
    ``start``, and step k adds ``rate_steps[k] + sum_i B[:, i, k] sqrt(V^i_k) dB^i_k
    + C[:, i, k] V^i_k``.  Returns (start, rate_steps, B, C), B and C of shape
    (len(rules), d, n).
    """
    params, times = bundle.params, bundle.times[:-1]
    shape = (params.d, times.size)
    R = np.empty((len(rules),) + shape)
    for k, rule in enumerate(rules):
        out = np.asarray(rule(times), dtype=float)
        if out.shape != shape:
            raise ValueError(f"rule must return shape {shape}, got {out.shape}")
        R[k] = out
    if not np.all(np.isfinite(R)):
        raise ValueError("rule produced non-finite values")
    dt, theta = bundle.times[1] - bundle.times[0], params.theta[:, None]
    if util.kind == "power":
        return math.log(params.x0), params.rate(times) * dt, R, dt * (theta * R - 0.5 * R**2)
    B = R * np.exp(-params.rate.primitive(times))
    return params.x0, np.zeros(times.size), B, dt * theta * B


def _terminal_wealth(bundle: PathBundle, util: UtilitySpec, rules: list) -> np.ndarray:
    """Terminal wealth (len(rules), P) of each rule.

    One pass per asset: sqrt(V) dB is formed once, and it and V are reduced
    along the grid for every rule at once by one matrix product each.
    """
    params = bundle.params
    start, rate_steps, B, C = _wealth_steps(bundle, util, rules)
    x_T = np.full((len(rules), bundle.n_paths), start + float(np.sum(rate_steps)))
    for i in range(params.d):
        V = bundle.V[i, :-1]
        noise = np.sqrt(V)
        noise *= bundle.dB[i]
        x_T += B[:, i] @ noise
        del noise
        x_T += C[:, i] @ V
    if util.kind == "power":
        np.exp(x_T, out=x_T)
    else:
        x_T *= np.exp(params.rate.primitive(params.T))
    bad = np.flatnonzero(~np.all(np.isfinite(x_T), axis=0))
    if bad.size:
        raise FloatingPointError(f"non-finite terminal wealth at path index {bad[0]}")
    return x_T


def _wealth_path(bundle: PathBundle, util: UtilitySpec, rule) -> np.ndarray:
    """Wealth (n+1, P) at every grid time under ``rule``: the running sum of
    the step terms that ``_terminal_wealth`` reduces."""
    params, times = bundle.params, bundle.times
    start, rate_steps, B, C = _wealth_steps(bundle, util, [rule])
    X = np.empty((times.size, bundle.n_paths))
    X[0] = start
    X[1:] = rate_steps[:, None]
    for i in range(params.d):
        V = bundle.V[i, :-1]
        term = np.sqrt(V)
        term *= bundle.dB[i]
        term *= B[0, i][:, None]
        X[1:] += term
        np.multiply(V, C[0, i][:, None], out=term)
        X[1:] += term
        del term
    np.cumsum(X, axis=0, out=X)
    if util.kind == "power":
        return np.exp(X, out=X)
    X *= np.exp(params.rate.primitive(times))[:, None]
    return X


def _mean_se(u: np.ndarray) -> tuple[float, float]:
    return float(np.mean(u)), float(np.std(u, ddof=1) / math.sqrt(u.size))


def simulate_wealth(bundle: PathBundle, util: UtilitySpec, rule) -> WealthRun:
    """Terminal wealth/utility under ``rule`` on the bundle's paths and market.

    ``rule(t)`` returns the per-asset multiplier of sqrt(V) for a time array
    t, shape (d, len(t)); it is evaluated at the left endpoint of each step.
    """
    x_T = _terminal_wealth(bundle, util, [rule])[0]
    u = util.u(x_T)
    return WealthRun(x_T, u, *_mean_se(u))


def optimality_test(bundle: PathBundle, sol: RiccatiSolution, perturbations: list) -> dict:
    """Paired common-random-number comparison of the optimal rule vs perturbed rules.

    For each PerturbationSpec, Delta = E[U(X^{pi*})] - E[U(X^{pi* + eps h})]
    with the paired-sample standard error; Delta should be >= 0 and scale
    like eps^2.  The optimal rule and every perturbation share one terminal-
    wealth pass.  Returns the base run statistics and one entry per
    perturbation with keys 'label', 'epsilon', 'delta', 'se', 'z',
    'delta_over_eps2'.
    """
    util = sol.spec.util
    rules = [lambda t: optimal_rule(sol, t)] + [
        lambda t, eps=p.epsilon, h=p.h: optimal_rule(sol, t) + eps * np.asarray(h(t)) for p in perturbations
    ]
    u = util.u(_terminal_wealth(bundle, util, rules))
    base_mean, base_se = _mean_se(u[0])
    entries = []
    for pert, u_pert in zip(perturbations, u[1:]):
        eps = pert.epsilon
        delta, se = _mean_se(u[0] - u_pert)
        entries.append(
            {
                "label": pert.label,
                "epsilon": eps,
                "delta": delta,
                "se": se,
                "z": delta / se if se > 0.0 else math.inf if delta > 0 else 0.0,
                "delta_over_eps2": delta / eps**2 if eps > 0.0 else 0.0,
            }
        )
    return {"base_mean": base_mean, "base_se": base_se, "perturbations": entries}


def _reverse_cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    """I[k] = int_{t_k}^{t_n} y via trapezoid; y has n+1 points along axis 0."""
    seg = dt * 0.5 * (y[:-1] + y[1:])
    out = np.zeros_like(y)
    out[:-1] = np.cumsum(seg[::-1], axis=0)[::-1]
    return out


def martingale_profile(bundle: PathBundle, sol: RiccatiSolution) -> dict:
    """Sample-mean profile of the pathwise value process J_t under the optimal rule.

    Requires a bundle with dBperp stored (to reconstruct dW).  Each path's
    g_0 is taken at its own V_0, so mean J_0 matches ``value``, the mean over
    paths of the analytic value at each path's V_0.  Returns a dict with the
    time grid, mean J, the paired standard error of J_t - J_0, the flatness
    statistic max_k |mean_k - mean_0| / SE_k, and the two endpoint
    references.
    """
    params, util = bundle.params, sol.spec.util
    d = params.d
    times = bundle.times
    n = times.size - 1
    dt = times[1] - times[0]
    P = bundle.n_paths
    T = params.T

    rule = lambda t: optimal_rule(sol, t)
    terminal_mean = simulate_wealth(bundle, util, rule).mean
    X = _wealth_path(bundle, util, rule)  # (n+1, P)

    g = util.gamma
    # value integrands a_i + F_i(s, psi(T-s)) interpolated to the bundle grid
    s_nodes = (T - sol.times)[::-1]
    rvs = np.stack([np.interp(times, s_nodes, sol.rhs_values[i][::-1]) for i in range(d)])
    # g_0 is affine in V_0 with slope 1: the V_0 term starts the exponent
    expo = _reverse_cumtrapz(rvs.T, dt) @ (bundle.v0 - params.x_inf[:, None])
    g0 = g0_curve(params, times)  # (d, n+1)
    for i in range(d):
        rv = rvs[i]
        expo += _reverse_cumtrapz(rv * g0[i], dt)[:, None]

        # averaged-kernel weights: kbar[j] = (K1((j+1)D) - K1(j D)) / D
        alpha_i = params.alpha[i]
        k1 = (dt * np.arange(n + 1)) ** alpha_i / sp_gamma(alpha_i + 1.0)
        kbar = (k1[1:] - k1[:-1]) / dt
        M = np.zeros((n + 1, n))
        for ell in range(1, n + 1):
            y = np.zeros(n + 1)
            y[ell:] = rv[ell:] * kbar[: n - ell + 1]
            col = _reverse_cumtrapz(y, dt)
            col[:ell] = 0.0  # increment l not yet observed before t_l
            M[:, ell - 1] = col

        sig = np.asarray(sol.spec.stabilizers[i](times))
        dW = bundle.dW(i)
        dZ = _increments(bundle.V[i, :-1, :], -params.lam[i], params.nu[i] * sig[1:, None], dW, dt)
        del dW
        expo += M @ dZ
        del dZ

    r_tail = params.rate.primitive(T) - params.rate.primitive(times)
    # J is built in place of X, with the operations of X**g / g * exp(g r_tail + expo)
    # and of -exp(-g e^{r_tail} X + expo) / g in their order
    J = X
    if util.kind == "power":
        expo += g * r_tail[:, None]
        np.exp(expo, out=expo)
        J **= g
        J /= g
        J *= expo
    else:
        J *= -g * np.exp(r_tail)[:, None]
        J += expo
        np.exp(J, out=J)
        np.negative(J, out=J)
        J /= g
    del expo
    value = value_function(sol, x0=params.x0, v0=bundle.v0)

    j_mean = J.mean(axis=1)
    J -= J[0].copy()  # J_t - J_0
    se = np.std(J, axis=1, ddof=1) / math.sqrt(P)
    with np.errstate(invalid="ignore", divide="ignore"):
        stats = np.abs(j_mean - j_mean[0]) / se
    stats[0] = 0.0
    flat = float(np.nanmax(stats))
    return {
        "times": times,
        "j_mean": j_mean,
        "se_paired": se,
        "flat_stat": flat,
        "value": value,
        "terminal_mean_utility": terminal_mean,
    }


def moment_curves(bundle: PathBundle) -> np.ndarray:
    """Sample mean and variance of V per asset and grid time, with their SEs.

    Returns (mean, var, se_mean, se_var) stacked, each of shape (d, n+1):
    var = sd^2 with the unbiased sd, se_mean = sd/sqrt(M) and SE(var) from
    the fourth central moment over M paths.
    """
    P = bundle.n_paths
    out = np.empty((4,) + bundle.V.shape[:2])
    for i, Vi in enumerate(bundle.V):
        mean_k = Vi.mean(axis=1)
        sd_k = Vi.std(axis=1, ddof=1)
        var_k = sd_k**2
        dev = Vi - mean_k[:, None]
        dev *= dev  # two squarings: a fraction of the cost of ** 4 through pow
        dev *= dev
        m4 = dev.mean(axis=1)
        out[:, i] = mean_k, var_k, sd_k / math.sqrt(P), np.sqrt(np.maximum(m4 - var_k**2, 0.0) / P)
    return out


def stationarity_report(bundle: PathBundle) -> list[dict]:
    """Per-asset flatness of sample mean and variance of V across the grid.

    Reports max_k |mean_k - x_inf| / SE(mean_k) and
    max_k |var_k - v0| / SE(var_k), with SE(var) from the fourth central
    moment.  Both should be small (<= 3) under fake stationarity.
    """
    params = bundle.params
    curves = moment_curves(bundle)
    out = []
    for i in range(params.d):
        mean_k, var_k, se_mean, se_var = curves[:, i]
        # floor the SEs at rounding-noise scale so degenerate (constant-path)
        # cases yield 0 statistics instead of 0/0
        floor = 8.0 * np.finfo(float).eps * max(params.x_inf[i], 1.0)
        stat_mean = np.abs(mean_k - params.x_inf[i]) / np.maximum(se_mean, floor)
        stat_var = np.abs(var_k - params.v0_var[i]) / np.maximum(se_var, floor**2 + params.v0_var[i] * 8.0 * np.finfo(float).eps)
        # t_0 is the (possibly deterministic) initial condition
        out.append(
            {
                "asset": i,
                "mean_stat": float(np.max(stat_mean[1:])),
                "var_stat": float(np.max(stat_var[1:])),
                "mean_level": params.x_inf[i],
                "var_level": params.v0_var[i],
            }
        )
    return out
