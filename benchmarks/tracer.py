"""Spans around the calls into each layer of ``vecinv2``, from outside it.

``Tracer.install`` replaces the layer-boundary callables listed in
``TRACED`` with timing wrappers.  A function is replaced in every
``vecinv2`` namespace that binds it (``oracle`` binds ``left_kernel``
and ``evaluate`` by import, ``rewrite`` binds ``type_iii_relation``), so
calls through any of those names are seen; methods are replaced on
their class.  Small helpers (subset calculus, monomial sort keys) are
left alone: wrapping them would cost more than the work they do.

Every call updates a per-name aggregate (calls, total, self time).  A
layer's self time is its total minus the time of the traced calls made
directly inside it.  Calls of names outside ``HOT`` are also kept as
spans in memory (name, start, end, parent span, operation) and written
once, by ``write_spans``, when the round ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from functools import cache

import reference as ref

# (metric prefix, module, attribute, method or None)
TRACED = [
    ("cli.main", "cli", "main", None),
    ("oracle.verify", "oracle", "verify_relation_ideal", None),
    ("oracle.kernel_basis", "oracle", "kernel_basis", None),
    ("oracle.linear_kernel_basis", "oracle", "linear_kernel_basis", None),
    ("oracle.q_monomials", "oracle", "q_monomials", None),
    ("oracle.poly_monomials", "oracle", "poly_monomials", None),
    ("f2.left_kernel", "f2", "left_kernel", None),
    ("f2.rowspan.add", "f2", "RowSpan", "add"),
    ("f2.rowspan.contains", "f2", "RowSpan", "contains"),
    ("qring.mul", "qring", "QPoly", "__mul__"),
    ("qring.add", "qring", "QPoly", "__add__"),
    ("qring.from_terms", "qring", "QPoly", "from_terms"),
    ("qring.evaluate", "qring", "evaluate", None),
    ("poly.mul", "poly", "Poly", "__mul__"),
    ("invariants.transfer", "invariants", "transfer", None),
    ("relations.type_i", "relations", "type_i_relation", None),
    ("relations.type_iii", "relations", "type_iii_relation", None),
    ("relations.relation_basis", "relations", "relation_basis", None),
    ("rewrite.normal_form", "rewrite", "normal_form", None),
    ("rewrite.trace_verify", "rewrite", "ReductionTrace", "verify"),
    ("rewrite.linear_reduce", "rewrite", "linear_reduce", None),
]

# Called so often that a span per call would dominate memory.
HOT = {"qring.mul", "qring.add", "poly.mul",
       "f2.rowspan.add", "f2.rowspan.contains", "invariants.transfer",
       "oracle.q_monomials", "oracle.poly_monomials", "qring.evaluate"}

_CACHED = {"oracle.q_monomials", "invariants.transfer"}


def _term_pairs(args, result) -> int:
    return len(args[0].terms) * len(args[1].terms)


# Extra counters: name -> function(args, result) giving the increment.
COUNTERS = {
    "qring.mul": {"term_pairs": _term_pairs},
    "poly.mul": {"term_pairs": _term_pairs},
    "f2.left_kernel": {"rows": lambda args, result: len(args[0])},
    "f2.rowspan.add": {"useful": lambda args, result: int(result)},
    "rewrite.normal_form": {"steps": lambda args, result: len(result.steps)},
    "rewrite.linear_reduce": {"steps": lambda args, result: len(result.steps)},
}

# Calls whose arguments are kept, to size their matrices after the round.
SIZED = {"oracle.verify", "oracle.kernel_basis", "oracle.linear_kernel_basis"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total, children]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = [[0.0, None]]   # [children time, span id]
        self.current_op: int | None = None
        self.originals: list[tuple] = []
        self.caches: dict[str, object] = {}
        self.sized: list[tuple] = []   # (name, function, args, kwargs)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vecinv2" or name.startswith("vecinv2.")}
        for prefix, module, attr, method in TRACED:
            owner = modules["vecinv2." + module]
            if method is not None:
                cls = getattr(owner, attr)
                original = cls.__dict__[method]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(prefix, original.__func__))
                else:
                    wrapped = self._wrap(prefix, original)
                self.originals.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            original = getattr(owner, attr)
            if prefix in _CACHED:
                self.caches[prefix] = original
            wrapped = self._wrap(prefix, original)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.originals.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.originals):
            setattr(owner, name, original)
        self.originals.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        counters = [(name + "." + key, f)
                    for key, f in COUNTERS.get(name, {}).items()]
        counts = self.counts
        for key, _ in counters:
            counts[key] = 0
        stack = self.stack
        spans = self.spans
        keep = name not in HOT
        sized = self.sized if name in SIZED else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if keep else parent[1]
            if keep:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                parent[0] += elapsed
                if keep:
                    spans[span_id] = (span_id, parent[1], name, start, end,
                                      self.current_op)
            for key, f in counters:
                counts[key] += f(args, result)
            if sized is not None:
                sized.append((name, fn, args, kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, index: int, name: str, call):
        """Run ``call`` as the root span of one benchmark operation."""
        self.current_op = index
        span_id = len(self.spans)
        self.spans.append(None)
        self.stack.append([0.0, span_id])
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.stack.pop()
            self.spans[span_id] = (span_id, None, "op:" + name, start,
                                   time.perf_counter(), index)

    # -- reading ----------------------------------------------------------

    def cache_misses(self) -> dict[str, int]:
        return {name + ".misses": fn.cache_info().misses
                for name, fn in self.caches.items()}

    def snapshot(self) -> dict:
        """Per name: calls, total seconds and self seconds, plus counters."""
        out = {}
        for name, (calls, total, children) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = total
            out[name + ".self_s"] = total - children
        out.update(self.counts)
        out.update(self.cache_misses())
        return out

    def write_spans(self, path: str) -> None:
        fields = ("id", "parent", "name", "start", "end", "operation")
        with open(path, "w") as handle:
            json.dump({"fields": fields,
                       "spans": [s for s in self.spans if s is not None]},
                      handle)


def _relation_degrees(m: int) -> list[int]:
    """Degrees of the declared family: |A| for type I, |A| + |B| for
    each unordered pair of trace subsets."""
    traces = [sum(a) for a in ref.subsets(m, 2)]
    degrees = [sum(a) for a in ref.subsets(m, 3)]
    degrees += [a + b for i, a in enumerate(traces) for b in traces[:i + 1]]
    return degrees


def matrix_entries(sized: list[tuple]) -> int:
    """Entries (rows x cols) of every matrix the recorded oracle calls
    build, summed the way the oracle charges its budget, with the sizes
    taken from the closed-form enumeration counts."""
    q = cache(ref.q_monomial_count)
    total = 0
    for name, fn, args, kwargs in sized:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        m = a["m"]
        if name == "oracle.kernel_basis":
            total += q(m, a["d"]) * ref.poly_monomial_count(m, a["d"])
        elif name == "oracle.linear_kernel_basis":
            total += (ref.trace_linear_count(m, a["d"])
                      * ref.poly_monomial_count(m, a["d"]))
        else:
            d_max = 2 * m if a["d_max"] is None else a["d_max"]
            relations = a["relations"]
            degrees = Counter(_relation_degrees(m) if relations is None
                              else [r.degree for r in relations])
            # generation: every relation multiple at each degree
            for d in range(2, d_max + 1):
                rows = sum(c * q(m, d - e) for e, c in degrees.items() if e <= d)
                total += rows * q(m, d)
            # minimality: the other relations at each relation's degree
            for e, count in degrees.items():
                if e <= d_max:
                    rows = sum(c * q(m, e - o) for o, c in degrees.items()
                               if o <= e) - 1
                    total += count * rows * q(m, e)
    return total
