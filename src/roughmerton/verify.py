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
exponential, so the discounting lives in the weights.  A stack of rules
is a stack of weight rows; the wealth state at grid row k is the same
reduction with the weights of steps k, k+1, ... set to 0.

The martingale optimality principle is probed two ways: paired common-random-
number comparisons of E[U(X_T)] between the optimal rule and perturbed rules
(suboptimality gap ~ eps^2), and the pathwise profile of the value process,
one formula for both utilities (U = ``UtilitySpec.u``),

  J_t = U(X_t e^{int_t^T r}) exp(expo_t),
  expo_t = sum_i int_t^T (a_i + F_i(s, psi^i(T-s))) g^i_t(s) ds,

with the pathwise adjusted forward curve discretized from the simulated path,
g_0 taken at the path's own V_0:
g_t(s) = g_0(s) + sum_{l <= k} Kbar_l(s) DZ_l, where DZ_l = -lam V_{l-1} D
+ nu varsigma(t_l) sqrt(V_{l-1}) DW_l and Kbar_l is the increment-averaged
fractional kernel (K1(s - t_{l-1}) - K1(s - t_l))/D, K1(t) = t^alpha /
Gamma(alpha + 1) -- the exact average of K over the increment interval, which
avoids the K(0) singularity at grid points.  The g_0 part of expo_t is read
from ``strategy.value_exponent`` (interpolated to the bundle grid), so mean
J_0 equals the value function to rounding, and J_T = U(X_T).  J should be
flat in t for the optimal rule.

The path-dependent part of the exponent is (M dZ)_k = int_{t_k}^T rv(s)
sum_{l <= k} Kbar_l(s) dZ_l ds by the trapezoid rule, rv = a + F on the
grid: a strictly lower-triangular (n+1) x n matrix M applied to the
increments, whose rows 0 and n are 0, so J_T = U(X_T) holds exactly.  The
profile evaluates J only at the checkpoint rows k_j = round(j n / K),
j = 0..K.  There the wealth state and M dZ are linear in V, sqrt(V) dB and
sqrt(V) dBperp, since dW = rho dB + sqrt(1 - rho^2) dBperp, with weights that
do not depend on the path: the masked wealth weights and the K + 1 rows of M
scaled by -lam D, nu varsigma rho and nu varsigma sqrt(1 - rho^2).  Both
utility families are exponential in their wealth state, so J is one row per
checkpoint, row_k = c (wealth state at k) + expo_k:

  power:        J = exp(row) / gamma, c = gamma, and the row's start also
                holds gamma (int_0^T r - int_0^{t_k} r);
  exponential:  J = -exp(row) / gamma, c = -gamma e^{int_0^T r}.

So J is K + 1 rows of weights against V, sqrt(V) dB and sqrt(V) dBperp: the
masked wealth weights times c added onto the kernel rows.

The fold.  Every Monte Carlo consumer is thus a ``_Reducer``: rows of
weights per asset against V, sqrt(V) dB and sqrt(V) dBperp along the grid,
a start affine in V_0, and a ``finish`` that turns the rows into its
report.  ``_fold`` runs several reducers in one pass over time blocks of
``simulate._TIME_BLOCK`` steps of each asset: a block's sqrt(V) rows are
formed once, each reducer adds one product per array to its (rows, paths)
accumulator, and the moment curves take each time block's final rows of V
as the block arrives.  The blocks come from one of two sources in one
order: ``simulate._asset_blocks`` as the paths are made, so that every
subcommand of ``cli`` holds one asset's V and never a bundle, or
``simulate._bundle_blocks`` over a stored bundle, which the public
functions below read.  So a reducer's figures and the moment curves are the
same from either source, bit for bit.

The market (theta, rates, x0, kernels) is read from the bundle's
``params``; the utility and the exponent curves from the Riccati solution.

Every verdict is a ``Gate`` record: one statistic against one threshold,
passing iff statistic <= threshold, so a NaN statistic fails.  Each gate
family has one constructor next to the statistic it judges, which reads its
threshold from a ``tolerances`` mapping (keys and defaults in
``TOLERANCES``); a report's ``passed`` is the AND of its records.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .riccati import RiccatiSolution
from .simulate import PathBundle, _bundle_blocks
# g0_curve is not called here; perfbench/spans.py traces it under this name
from .strategy import UtilitySpec, g0_curve, optimal_rule, value_exponent, value_function  # noqa: F401

__all__ = [
    "TOLERANCES",
    "Gate",
    "value_gate",
    "optimality_gates",
    "profile_gate",
    "stationarity_gates",
    "residual_gates",
    "WealthRun",
    "PerturbationSpec",
    "simulate_wealth",
    "optimality_test",
    "martingale_profile",
    "moment_curves",
    "stationarity_report",
]

# Each gate family's threshold: ``tolerances`` key and default.
TOLERANCES = {
    "resolvent_residual": 1e-7,
    "stabilizer_residual": 5e-4,
    "stationarity_z": 3.0,
    "value_rel_allowance": 0.005,
    "profile_z": 3.0,
    "optimality_z": 3.0,
}

# K: grid intervals between the martingale profile's checkpoint rows.
_CHECKPOINTS = 24


@dataclass(frozen=True)
class Gate:
    """One verdict: ``stat`` against ``threshold``, named ``family.part``."""

    name: str
    stat: float
    threshold: float

    @property
    def passed(self) -> bool:
        # a NaN statistic compares False, so it fails
        return bool(self.stat <= self.threshold)


def residual_gates(asset: str, functional: float, resolvent: float, tol) -> list[Gate]:
    """The stabilizer's two residual checks for one asset: the functional
    equation within ``stabilizer_residual``, the resolvent identity within
    ``resolvent_residual``."""
    return [
        Gate(f"stabilizer.{asset}.functional_residual", functional, tol["stabilizer_residual"]),
        Gate(f"stabilizer.{asset}.resolvent_residual", resolvent, tol["resolvent_residual"]),
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
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")


@dataclass(frozen=True)
class _Reducer:
    """One consumer of the fold: rows of weights, and what the rows become.

    Its rows start at ``start + slope^T (V_0 - x_inf)``.  Along the grid's
    left points, asset i adds ``on_v[i] @ V^i`` and
    ``on_db[i] @ (sqrt(V^i) dB^i)`` and, unless ``on_perp`` is None,
    ``on_perp[i] @ (sqrt(V^i) dBperp^i)`` to every row.  ``finish(acc, v0)``
    turns the (rows, M) result into the consumer's output.  Shapes: start
    (R,), slope (d, R), on_v, on_db and on_perp (d, R, n).
    """

    start: np.ndarray
    slope: np.ndarray
    on_v: np.ndarray
    on_db: np.ndarray
    on_perp: np.ndarray | None
    finish: Callable


def _moments(V: np.ndarray) -> np.ndarray:
    """Sample mean, variance and their SEs per row of V (rows, M), grid rows
    of one asset's paths, stacked as (4, rows); see ``moment_curves``."""
    P = V.shape[1]
    mean_k = V.mean(axis=1)
    dev = V - mean_k[:, None]
    dev *= dev  # two squarings: a fraction of the cost of ** 4 through pow
    # np.std(V, ddof=1)'s own steps, bit for bit, without its second pass for the mean
    sd_k = np.sqrt(dev.sum(axis=1) / (P - 1))
    var_k = sd_k**2
    dev *= dev
    m4 = dev.mean(axis=1)
    return np.stack([mean_k, var_k, sd_k / math.sqrt(P), np.sqrt(np.maximum(m4 - var_k**2, 0.0) / P)])


def _fold(blocks, v0: np.ndarray, params, reducers: list, moments: np.ndarray | None = None) -> list:
    """Each reducer's output after one pass over ``blocks``, the
    ``simulate._TimeBlock`` records of the paths with initial variance ``v0``.

    Each time block forms sqrt(V), sqrt(V) dB and sqrt(V) dBperp once, and
    each reducer adds one product per array to its (rows, M) accumulator:
    the products are the same, shape for shape, whichever reducers share a
    pass, and so are the sums bit for bit.  With ``moments``, (4, d, n+1),
    the ``_moments`` of each time block's final rows (row 0 with the first
    block) are written into it as the block arrives.
    """
    dv = v0 - params.x_inf[:, None]
    accs = [r.slope.T @ dv + r.start[:, None] for r in reducers]
    perp = any(r.on_perp is not None for r in reducers)
    for blk in blocks:
        i, m = blk.asset, blk.dB.shape[0]
        cols = slice(blk.start, blk.start + m)
        if moments is not None:
            rows = slice(blk.start + 1 if blk.start else 0, cols.stop + 1)
            moments[:, i, rows] = _moments(blk.V[rows])
        if not reducers:
            continue
        V = blk.V[cols]
        noise = np.sqrt(V)
        noise_perp = noise * blk.dBperp if perp else None
        noise *= blk.dB
        for r, acc in zip(reducers, accs):
            acc += r.on_v[i, :, cols] @ V
            acc += r.on_db[i, :, cols] @ noise
            if r.on_perp is not None:
                acc += r.on_perp[i, :, cols] @ noise_perp
    return [r.finish(acc, v0) for r, acc in zip(reducers, accs)]


def _replay(bundle: PathBundle, reducer: _Reducer):
    """``reducer``'s output on a stored bundle, fed block by block as the paths were made."""
    return _fold(_bundle_blocks(bundle), bundle.v0, bundle.params, [reducer])[0]


def _wealth_steps(params, times: np.ndarray, util: UtilitySpec, rules: list):
    """The wealth recursion of each rule on the grid ``times``, evaluated at the left grid points, as weights.

    Its state (log X for power, the discounted X for exponential) starts at
    ``start``, and step k adds ``rate_steps[k] + sum_i B[:, i, k] sqrt(V^i_k) dB^i_k
    + C[:, i, k] V^i_k``.  Returns (start, rate_steps, B, C), B and C of shape
    (len(rules), d, n).
    """
    dt, times = times[1] - times[0], times[:-1]
    shape = (params.d, times.size)
    R = np.empty((len(rules),) + shape)
    for k, rule in enumerate(rules):
        out = np.asarray(rule(times), dtype=float)
        if out.shape != shape:
            raise ValueError(f"rule must return shape {shape}, got {out.shape}")
        R[k] = out
    if not np.all(np.isfinite(R)):
        raise ValueError("rule produced non-finite values")
    theta = params.theta[:, None]
    if util.kind == "power":
        return math.log(params.x0), params.rate(times) * dt, R, dt * (theta * R - 0.5 * R**2)
    B = R * np.exp(-params.rate.primitive(times))
    return params.x0, np.zeros(times.size), B, dt * theta * B


def _wealth_reducer(params, times: np.ndarray, util: UtilitySpec, rules: list, finish) -> _Reducer:
    """Terminal wealth (len(rules), M) of each rule, handed to ``finish``.

    One row per rule, the wealth recursion's state: its weights are the
    rule's B against sqrt(V) dB and C against V, and it starts where the
    rate steps leave it.
    """
    start, rate_steps, B, C = _wealth_steps(params, times, util, rules)

    def terminal(x_T, v0):
        if util.kind == "power":
            np.exp(x_T, out=x_T)
        else:
            x_T *= np.exp(params.rate.primitive(params.T))
        bad = np.flatnonzero(~np.all(np.isfinite(x_T), axis=0))
        if bad.size:
            raise FloatingPointError(f"non-finite terminal wealth at path index {bad[0]}")
        return finish(x_T)

    rows = len(rules)
    start = np.full(rows, start + float(np.sum(rate_steps)))
    return _Reducer(start, np.zeros((params.d, rows)), C.transpose(1, 0, 2), B.transpose(1, 0, 2), None, terminal)


def _mean_se(u: np.ndarray) -> tuple[float, float]:
    return float(np.mean(u)), float(np.std(u, ddof=1) / math.sqrt(u.size))


def _value_reducer(params, times: np.ndarray, utils: list, rules: list) -> _Reducer:
    """The WealthRun of each rule, the k-th under utils[k].  Every rule shares
    one set of rows: the weights depend on the rule, the utility kind and the
    rate, not on gamma."""
    if len(utils) != len(rules) or len({u.kind for u in utils}) != 1:
        raise ValueError("stacked wealth runs need one utility per rule, all of one kind")

    def runs(x_T):
        out = []
        for spec, x in zip(utils, x_T):
            u = spec.u(x)
            out.append(WealthRun(x, u, *_mean_se(u)))
        return out

    return _wealth_reducer(params, times, utils[0], rules, runs)


def simulate_wealth(bundle: PathBundle, util, rule):
    """Terminal wealth/utility under ``rule`` on the bundle's paths and market.

    ``rule(t)`` returns the per-asset multiplier of sqrt(V) for a time array
    t, shape (d, len(t)); it is evaluated at the left endpoint of each step.

    Stacked form: with ``util`` a list of UtilitySpecs of one kind and
    ``rule`` a list of as many rules, every rule shares one terminal-wealth
    pass and a list of WealthRuns comes back, the k-th under util[k].
    """
    stacked = isinstance(rule, (list, tuple))
    utils, rules = (list(util), list(rule)) if stacked else ([util], [rule])
    runs = _replay(bundle, _value_reducer(bundle.params, bundle.times, utils, rules))
    return runs if stacked else runs[0]


def value_gate(name: str, run: WealthRun, target: float, tol) -> Gate:
    """Value agreement: |MC mean - target| within two SEs plus
    ``value_rel_allowance`` of |target|."""
    return Gate(name, abs(run.mean - target), 2.0 * run.se + tol["value_rel_allowance"] * abs(target))


def _optimality_reducer(params, times: np.ndarray, sol: RiccatiSolution, perturbations: list) -> _Reducer:
    """The ``optimality_test`` report: the optimal rule and every perturbed
    rule share one set of rows."""
    util = sol.spec.util
    rules = [lambda t: optimal_rule(sol, t)] + [
        lambda t, eps=p.epsilon, h=p.h: optimal_rule(sol, t) + eps * np.asarray(h(t)) for p in perturbations
    ]

    def report(x_T):
        u = util.u(x_T)
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

    return _wealth_reducer(params, times, util, rules, report)


def optimality_test(bundle: PathBundle, sol: RiccatiSolution, perturbations: list) -> dict:
    """Paired common-random-number comparison of the optimal rule vs perturbed rules.

    For each PerturbationSpec, Delta = E[U(X^{pi*})] - E[U(X^{pi* + eps h})]
    with the paired-sample standard error; Delta should be >= 0 and scale
    like eps^2.  The optimal rule and every perturbation share one terminal-
    wealth pass.  Returns the base run statistics and one entry per
    perturbation with keys 'label', 'epsilon', 'delta', 'se', 'z',
    'delta_over_eps2'.
    """
    return _replay(bundle, _optimality_reducer(bundle.params, bundle.times, sol, perturbations))


def optimality_gates(report: dict, tol) -> list[Gate]:
    """The verdicts on an ``optimality_test`` report.

    With z_tol = ``optimality_z``: ``no_gain``, no perturbation gains, every
    z >= -z_tol (statistic max(-z)); ``detects``, every perturbation at the
    largest epsilon (one per direction) loses clearly, z >= z_tol (statistic
    the largest of their -z, against -z_tol).
    """
    entries = report["perturbations"]
    neg_z = -np.array([e["z"] for e in entries])
    eps = np.array([e["epsilon"] for e in entries])
    z_tol = tol["optimality_z"]
    return [
        Gate("optimality.no_gain", float(np.max(neg_z)), z_tol),
        Gate("optimality.detects", float(np.max(neg_z[eps == eps.max()])), -z_tol),
    ]


def _checkpoint_rows(n: int) -> np.ndarray:
    """The martingale profile's grid rows round(j n / K), j = 0..K, without
    repeats: rows 0 and n always, and every row when n <= K."""
    return np.unique(np.rint(np.arange(_CHECKPOINTS + 1) * n / _CHECKPOINTS).astype(int))


def _kernel_rows(alpha: float, rv: np.ndarray, dt: float, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the (n+1) x n trapezoid matrix M of the profile's kernel term.

    M[k, l-1] = sum_{j >= k} w_j rv_j kbar_{j-l} for l <= k, with
    kbar_j = (K1((j+1) D) - K1(j D)) / D and w the trapezoid weights on
    [t_k, T] (D/2 at j = k and at j = n, D between): one correlation per
    row.  Rows 0 and n are 0.
    """
    n = rv.size - 1
    k1 = (dt * np.arange(n + 1)) ** alpha / math.gamma(alpha + 1.0)
    kbar = (k1[1:] - k1[:-1]) / dt
    w = dt * rv
    w[-1] *= 0.5
    M = np.zeros((rows.size, n))
    for r, k in enumerate(rows):
        if 0 < k < n:
            # entry m of the correlation is sum_s w_{k+s} kbar_{s+m}, the column l = k - m
            M[r, :k] = np.correlate(kbar, np.concatenate(([0.5 * w[k]], w[k + 1 :])), "valid")[::-1]
    return M


def _profile_reducer(params, times: np.ndarray, sol: RiccatiSolution) -> _Reducer:
    """The ``martingale_profile`` dict from one row per checkpoint of the grid
    ``times``: J = exp(row) / gamma under power and -exp(row) / gamma under
    exponential utility, the row c (wealth state) + exponent."""
    util = sol.spec.util
    n = times.size - 1
    dt = times[1] - times[0]
    rows = _checkpoint_rows(n)

    start, rate_steps, B, C = _wealth_steps(params, times, util, [lambda t: optimal_rule(sol, t)])
    # U(X_t e^{int_t^T r}) = +-exp(c state + shift) / gamma: X_t = e^state under
    # power, X_t = state e^{int_0^t r} under exponential utility
    total = params.rate.primitive(params.T)
    if util.kind == "power":
        c, shift, sign = util.gamma, util.gamma * (total - params.rate.primitive(times[rows])), 1.0
    else:
        c, shift, sign = -util.gamma * math.exp(total), 0.0, -1.0
    # step l of the wealth recursion is in the state at row k iff l < k
    before = c * (np.arange(n) < rows[:, None])
    state0 = start + np.concatenate(([0.0], np.cumsum(rate_steps)))[rows]
    # the g_0 part of the exponent at the checkpoint times; exact at t = 0 and T.
    # g_0 is affine in V_0 with slope 1: the V_0 term starts the exponent
    slope, level = value_exponent(sol)
    slope = np.stack([np.interp(times[rows], sol.times, curve) for curve in slope])
    level = np.interp(times[rows], sol.times, np.sum(level, axis=0))
    # per asset, the kernel term's weights against V, sqrt(V) dB and
    # sqrt(V) dBperp, the masked wealth weights added onto the first two
    s_nodes = (params.T - sol.times)[::-1]
    on_v, on_db, on_perp = (np.empty((params.d, rows.size, n)) for _ in range(3))
    for i in range(params.d):
        # the value integrand a_i + F_i(s, psi(T-s)) interpolated to the grid
        rv = np.interp(times, s_nodes, sol.rhs_values[i][::-1])
        M = _kernel_rows(params.alpha[i], rv, dt, rows)
        vol = params.nu[i] * np.asarray(sol.spec.stabilizers[i](times[1:]))
        rho = params.rho[i]
        on_v[i] = C[0, i] * before - params.lam[i] * dt * M
        on_db[i] = B[0, i] * before + rho * vol * M
        on_perp[i] = math.sqrt(max(1.0 - rho * rho, 0.0)) * vol * M

    def profile(acc, v0):
        J = np.exp(acc) / (sign * util.gamma)
        j_mean = J.mean(axis=1)
        # SE of the paired differences J_t - J_0
        se = np.std(J - J[0], axis=1, ddof=1) / math.sqrt(J.shape[1])
        with np.errstate(invalid="ignore", divide="ignore"):
            stats = np.abs(j_mean - j_mean[0]) / se
        stats[0] = 0.0
        return {
            "times": times[rows],
            "j_mean": j_mean,
            "se_paired": se,
            "flat_stat": float(np.nanmax(stats)),
            "value": value_function(sol, x0=params.x0, v0=v0),
            "terminal_mean_utility": float(j_mean[-1]),
        }

    return _Reducer(c * state0 + shift + level, slope, on_v, on_db, on_perp, profile)


def martingale_profile(bundle: PathBundle, sol: RiccatiSolution) -> dict:
    """Sample-mean profile of the pathwise value process J_t under the optimal rule.

    J is evaluated at the checkpoint rows of the bundle grid (K + 1 of them,
    or every row when n <= K).  Requires a bundle with dBperp stored.  Each
    path's g_0 is taken at its own V_0, so mean J_0 matches ``value``, the
    mean over paths of the analytic value at each path's V_0.  Returns a dict
    with the checkpoint times, mean J, the paired standard error of
    J_t - J_0, the flatness statistic max_k |mean_k - mean_0| / SE_k over the
    checkpoints, and the two endpoint references; ``terminal_mean_utility``
    is the mean of J_T = U(X_T).
    """
    if bundle.dBperp is None:
        raise ValueError("the martingale profile needs a bundle built with dBperp storage")
    return _replay(bundle, _profile_reducer(bundle.params, bundle.times, sol))


def profile_gate(profile: dict, tol) -> Gate:
    """The mean of J is flat: the profile's ``flat_stat`` within ``profile_z``."""
    return Gate("martingale_profile", profile["flat_stat"], tol["profile_z"])


def moment_curves(bundle: PathBundle) -> np.ndarray:
    """Sample mean and variance of V per asset and grid time, with their SEs.

    Returns (mean, var, se_mean, se_var) stacked, each of shape (d, n+1):
    var = sd^2 with the unbiased sd, se_mean = sd/sqrt(M) and SE(var) from
    the fourth central moment over M paths.  It is ``_fold`` with no
    reducer over the bundle's time blocks: each time block's rows are reduced
    on their own, so the temporaries are a time block's size.
    """
    curves = np.empty((4, bundle.params.d, bundle.times.size))
    _fold(_bundle_blocks(bundle), bundle.v0, bundle.params, [], curves)
    return curves


def _stationarity(params, curves: np.ndarray) -> list[dict]:
    """The ``stationarity_report`` of the moment curves (4, d, n+1)."""
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


def stationarity_report(bundle: PathBundle) -> list[dict]:
    """Per-asset flatness of sample mean and variance of V across the grid.

    Reports max_k |mean_k - x_inf| / SE(mean_k) and
    max_k |var_k - v0| / SE(var_k), with SE(var) from the fourth central
    moment.  Both should be small (<= 3) under fake stationarity.
    """
    return _stationarity(bundle.params, moment_curves(bundle))


def stationarity_gates(report: list, tol) -> list[Gate]:
    """Each asset's mean and variance statistics of a ``stationarity_report``
    within ``stationarity_z``."""
    return [
        Gate(f"stationarity.asset_{r['asset'] + 1}.{moment}", r[f"{moment}_stat"], tol["stationarity_z"])
        for r in report
        for moment in ("mean", "var")
    ]
