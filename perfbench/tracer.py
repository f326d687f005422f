"""Layer tracing from outside the program.

`Tracer.install` rebinds public names of the legpade modules, in the
namespace of the module that calls them, to timing wrappers. Nothing in the
package itself is edited: a call such as ``construct -> solve_denominator``
goes through the wrapper because ``construct`` looks the name up in
``legpade.pade`` at call time.

Three kinds of wrapper keep the cost proportional to what is asked of them:

* ``span``: a record (name, start_ns, end_ns, parent span, op id) kept in
  memory, for calls made at most a few thousand times per op;
* ``timed``: an exact call counter plus accumulated time, for leaves called
  up to ~1e5 times per op whose time is still wanted (no span records);
* ``count``: an exact call counter only, for leaves called more than ~1e4
  times per op.

Self time of a span is its duration minus the durations of its direct child
spans. ``timed`` and ``count`` leaves are not spans, so their time stays in
the self time of the span that called them.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter_ns

# prefix of the stderr line on which a traced CLI call writes its trace
TRACE_MARK = "PERFBENCH-TRACE "

# (calling module, attribute, layer name, kind)
BINDINGS = [
    ("legpade.cli", "main", "cli.main", "span"),
    ("legpade.cli", "construct", "pade.construct", "span"),
    ("legpade.cli", "evaluate", "pade.evaluate", "span"),
    ("legpade.cli", "eval_partial_sum", "series.eval_partial_sum", "span"),
    ("legpade.cli", "unit_series", "scattering.unit_series", "span"),
    ("legpade.cli", "coulomb_series", "scattering.coulomb_series", "span"),
    ("legpade.cli", "born_series", "scattering.born_series", "span"),
    ("legpade.cli", "rn_series", "scattering.rn_series", "span"),
    ("legpade.cli", "exact_half_csc", "scattering.oracle", "span"),
    ("legpade.cli", "coulomb_exact", "scattering.oracle", "span"),
    ("legpade.cli", "born_exact_invr2", "scattering.oracle", "span"),
    ("legpade.pade", "construct", "pade.construct", "span"),
    ("legpade.pade", "solve_denominator", "pade.solve_denominator", "span"),
    ("legpade.pade", "build_denominator_system", "pade.build_denominator_system", "span"),
    ("legpade.pade", "compute_numerator", "pade.compute_numerator", "span"),
    ("legpade.pade", "evaluate", "pade.evaluate", "span"),
    ("legpade.pade", "threej_zero_sq_float", "special.threej_zero_sq_float", "threej"),
    ("legpade.pade", "legendre_eval_all", "special.legendre_eval_all", "count"),
    ("legpade.series", "eval_partial_sum", "series.eval_partial_sum", "span"),
    ("legpade.series", "legendre_eval_all", "special.legendre_eval_all", "count"),
    ("legpade.scattering", "unit_series", "scattering.unit_series", "span"),
    ("legpade.scattering", "coulomb_series", "scattering.coulomb_series", "span"),
    ("legpade.scattering", "born_series", "scattering.born_series", "span"),
    ("legpade.scattering", "rn_series", "scattering.rn_series", "span"),
    ("legpade.scattering", "born_phase_shift", "scattering.born_phase_shift", "span"),
    ("legpade.scattering", "rn_phase_shift", "scattering.rn_phase_shift", "span"),
    ("legpade.scattering", "quad", "scattering.quad", "quad"),
    ("legpade.scattering", "spherical_bessel_j", "special.spherical_bessel_j", "timed"),
    ("legpade.scattering", "spherical_bessel_y", "special.spherical_bessel_y", "timed"),
    ("legpade.scattering", "log_gamma_complex", "special.log_gamma_complex", "count"),
]


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._saved: list = []

    def install(self):
        for module_name, attr, name, kind in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, getattr(self, "_" + kind)(name, original))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, name, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf_counter_ns() - start
                counts[name] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _threej(self, name, fn):
        counts = self.counts
        nonzero = name + ".nonzero"

        def wrapper(*args):
            counts[name] += 1
            w = fn(*args)
            if w != 0.0:
                counts[nonzero] += 1
            return w

        wrapper.__wrapped__ = fn
        return wrapper

    def _quad(self, name, fn):
        counts = self.counts
        evals = name + ".integrand_evals"

        def counted_quad(f, *args, **kwargs):
            def integrand(*x):
                counts[evals] += 1
                return f(*x)

            return fn(integrand, *args, **kwargs)

        return self._span(name, counted_quad)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "times_ns": dict(self.times),
        }


def layer_totals(trace: dict) -> dict:
    """Per layer name: calls, total nanoseconds and self nanoseconds.

    `trace` may merge several processes; span parents index into the list
    of the process that wrote them, so each process's spans are kept as one
    list in ``trace["spans"]``.
    """
    out: dict = {}
    for spans in trace["spans"]:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, _), kids in zip(spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - kids
    for name, n in trace["counts"].items():
        out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})["calls"] += n
    for name, ns in trace["times_ns"].items():
        out[name]["ns"] += ns
        out[name]["self_ns"] += ns
    return out
