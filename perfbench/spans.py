"""In-memory spans and counters recorded around the layers' public functions.

The traced run replaces each function named in ``TRACE_POINTS`` at the name
its caller looks it up under (``roughmerton.cli.simulate_variance``, not
``roughmerton.simulate.simulate_variance``) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  Nothing inside
``src/`` is edited.  Spans stay in memory until the worker summarises them.

A span's self time is its duration minus the part of it that its direct
child spans cover.  The root span of every invocation is ``cli.main``, so the
self times of all spans of one invocation add up to its traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from workloads import simulate_bytes, simulate_flops

# (module, attribute, span name).  The span name's prefix is the layer.
TRACE_POINTS = (
    ("roughmerton.stabilizer", "f_l2_norm", "kernels.f_l2_norm"),
    ("roughmerton.stabilizer", "resolvent", "kernels.resolvent"),
    ("roughmerton.simulate", "resolvent", "kernels.resolvent"),
    ("roughmerton.simulate", "resolvent_density", "kernels.resolvent_density"),
    ("roughmerton.simulate", "_f_smooth", "kernels.f_smooth"),
    ("roughmerton.riccati", "mittag_leffler", "kernels.mittag_leffler"),
    ("roughmerton.cli", "resolvent_residual", "kernels.resolvent_residual"),
    ("roughmerton.cli", "build_stabilizer", "stabilizer.build"),
    ("roughmerton.stabilizer", "stabilizer_eval", "stabilizer.eval"),
    ("roughmerton.cli", "functional_equation_residual", "stabilizer.residual"),
    ("roughmerton.cli", "simulate_variance", "simulate.paths"),
    ("roughmerton.simulate", "integral_factor", "simulate.factor"),
    ("roughmerton.cli", "solve_riccati", "riccati.solve"),
    ("roughmerton.cli", "assumption_gate", "riccati.gate"),
    ("roughmerton.cli", "optimal_rule", "strategy.rule"),
    ("roughmerton.cli", "value_function", "strategy.value"),
    ("roughmerton.verify", "optimal_rule", "strategy.rule"),
    ("roughmerton.verify", "value_function", "strategy.value"),
    ("roughmerton.verify", "g0_curve", "strategy.g0"),
    ("roughmerton.cli", "simulate_wealth", "verify.wealth"),
    ("roughmerton.verify", "simulate_wealth", "verify.wealth"),
    ("roughmerton.cli", "optimality_test", "verify.optimality"),
    ("roughmerton.cli", "martingale_profile", "verify.profile"),
    ("roughmerton.cli", "stationarity_report", "verify.stationarity"),
)


class Recorder:
    """Spans ``[name, start, end, parent]`` and named counts, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ranks: list[int] = []
        self._stack: list[int] = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.ranks.clear()

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` recording a span named ``name`` per call.

        ``after(recorder, result)`` runs once the span has closed, to add
        counts derived from the call.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, out)
            return out

        return traced


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its direct
    children's intervals, each clipped to the parent."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def by_name(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (number of spans, summed self time)."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry[0] += 1
        entry[1] += own
    return {name: (n, s) for name, (n, s) in totals.items()}


def _after_factor(rec, factor):
    rec.ranks.append(int(factor.shape[1]))
    rec.counts["simulate.factor_rank_sum"] += factor.shape[1]


def _after_paths(rec, bundle):
    d, n_plus_1, m = bundle.V.shape
    n = n_plus_1 - 1
    ranks = rec.ranks[:]
    rec.ranks.clear()
    rec.counts["simulate.path_steps"] += d * m * n
    rec.counts["simulate.flops_computed"] += simulate_flops(ranks, n, m)
    rec.counts["simulate.bytes_computed"] += simulate_bytes(ranks, n, m)
    arrays = (bundle.V, bundle.dB, bundle.dBperp, bundle.integrals, bundle.v0)
    rec.counts["simulate.bundle_bytes"] += sum(a.nbytes for a in arrays if a is not None)


def _after_solve(rec, sol):
    rec.counts["riccati.steps"] += (sol.times.size - 1) * sol.psi.shape[0]


_AFTER = {
    "simulate.factor": _after_factor,
    "simulate.paths": _after_paths,
    "riccati.solve": _after_solve,
}


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside ``roughmerton.kernels`` and
    counts ``quad`` calls; every other attribute is the real module's."""

    def __init__(self, module, rec: Recorder):
        self._module, self._rec = module, rec

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, *args, **kwargs):
        self._rec.counts["kernels.quad_calls"] += 1
        return self._module.quad(*args, **kwargs)


def install(rec: Recorder):
    """Wrap every trace point and the kernels' quadrature; return ``undo``."""
    saved = []
    for mod_name, attr, span in TRACE_POINTS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, rec.wrap(fn, span, _AFTER.get(span)))
    kernels = importlib.import_module("roughmerton.kernels")
    saved.append((kernels, "integrate", kernels.integrate))
    kernels.integrate = _CountingIntegrate(kernels.integrate, rec)

    def undo():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    return undo
