"""Span tracing of dsirr's layers from outside the package.

Each traced name is patched where it is looked up (the module whose
globals the caller reads), so ``dsirr/`` itself carries no tracing code.
A span records its name, start, end, parent span and op id; spans stay in
memory until the benchmark writes them out.  Counters are kept at the same
boundaries: plain call counts for hot helpers, and values read off the
arguments or results of a few spans (box size, candidates, search nodes).
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter

# span name -> places it is looked up ("module:attribute")
SPANS = {
    "assembly.build_global_quiver": ("dsirr.cli:build_global_quiver", "dsirr.assembly:build_global_quiver"),
    "assembly.decide_ds": ("dsirr.cli:decide_ds",),
    "roots.cb_solvable": ("dsirr.cli:cb_solvable", "dsirr.assembly:cb_solvable"),
    "roots.summand_candidates": ("dsirr.roots:summand_candidates",),
    "assembly.realize_numeric": ("dsirr.cli:realize_numeric",),
    "assembly.moment_jacobian": ("dsirr.assembly:moment_jacobian",),
    "quiver.is_stable": ("dsirr.assembly:is_stable",),
    "quiver.algebra_span_dimension": ("dsirr.quiver:algebra_span_dimension",),
    "assembly.verify_instance": ("dsirr.cli:verify_instance",),
    "assembly.rep_to_connection": ("dsirr.assembly:rep_to_connection",),
    "irregular.qp_to_orbit": ("dsirr.assembly:qp_to_orbit",),
    "orbits.orbit_membership": ("dsirr.assembly:orbit_membership",),
    "assembly.is_stable_connection": ("dsirr.assembly:is_stable_connection",),
    "assembly.kernel_dimension_check": ("dsirr.assembly:kernel_dimension_check",),
}

# place -> (call counter, counter of truthy results or None); these run too
# often (or too briefly) for a span
COUNTS = {
    "dsirr.roots:is_positive_root": ("roots.is_positive_root.calls", None),
    "dsirr.assembly:moment_map": ("quiver.moment_map.calls", None),
    "dsirr.assembly:_residual_vector": ("assembly.residual_evals", None),
    "dsirr.assembly:_lm_minimize": ("assembly.realize.restarts", None),
    "dsirr.linalg:rank": ("linalg.rank.calls", None),
    "dsirr.linalg:SpanBasis.add": ("linalg.SpanBasis.add.calls", "linalg.SpanBasis.add.accepts"),
}

ROOT = "cli.main"


def _resolve(place):
    module, attr = place.split(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters for a sequence of ops; patches only while active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = Counter()  # (op id, counter name) -> value
        self._stack = []
        self._op = None
        self._saved = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        for name, places in SPANS.items():
            for place in places:
                self._patch(place, lambda fn, name=name: self._span(name, fn))
        for place, (calls, accepts) in COUNTS.items():
            self._patch(place, lambda fn, c=calls, a=accepts: self._counter(c, a, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _patch(self, place, wrap):
        owner, attr = _resolve(place)
        fn = owner.__dict__[attr]
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrap(fn))

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _counter(self, calls, accepts, fn):
        def counted(*args, **kwargs):
            self.count(calls)
            result = fn(*args, **kwargs)
            if accepts is not None and result:
                self.count(accepts)
            return result

        return counted

    def count(self, name, value=1):
        self.counts[(self._op, name)] += value

    def op(self, op_id, fn, *args):
        """Run one op under a root span; returns fn's result."""
        self._op = op_id
        rec = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self._op = None


def _observe_candidates(tracer, args, result):
    tracer.count("roots.box_points", math.prod(int(x) + 1 for x in args[1]))
    tracer.count("roots.candidates", len(result))


def _observe_search(tracer, args, verdict):
    tracer.count("roots.search_nodes", verdict.nodes)


def _observe_quiver(tracer, args, gq):
    tracer.count("quiver.total_dim", sum(gq.dims.values()))
    tracer.count("quiver.arrows", len(gq.quiver.arrows))


_OBSERVERS = {
    "roots.summand_candidates": _observe_candidates,
    "roots.cb_solvable": _observe_search,
    "assembly.build_global_quiver": _observe_quiver,
}


def op_summaries(spans):
    """op id -> {"wall": root span time, "self": {name: seconds}, "calls": {name: n}}.

    A span's self time is its duration minus the time its children cover.
    Children run strictly inside their parent and one at a time (a single
    thread), so the covered time is the sum of the child durations, and the
    self times of one op add up to its wall time.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for (name, start, end, parent, op), covered in zip(spans, child):
        s = out.setdefault(op, {"wall": 0.0, "self": Counter(), "calls": Counter()})
        s["self"][name] += (end - start) - covered
        s["calls"][name] += 1
        if parent is None:
            s["wall"] += end - start
    return out
