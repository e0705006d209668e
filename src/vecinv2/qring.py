"""The presentation ring for the invariant generators.

Elements here are polynomials in formal symbols x_i (degree 1), N_i
(degree 2), and Tr(A) for subsets A with at least two members (degree
|A|).  A monomial is a ``QMon`` triple: x exponents, N exponents, and a
multiset of trace subsets stored as a descending-sorted tuple.  The
representation and arithmetic live in ``poly.SparsePoly``, the sparse
GF(2) core shared with ``Poly``: a ``QPoly`` is a frozenset of ``QMon``
terms, and this module supplies only the monomial type (``qmon_key``,
term text and parser), the constructors and ``__mul__``.  The
``evaluate`` map substitutes the concrete invariants for the symbols;
its kernel is the ideal of relations among the generators.

Singleton and empty trace symbols are never stored: ``formal_trace``
rewrites Tr({i}) to x_i and Tr(empty) to 0, so constructors built on it
only ever carry subsets of size two or more.
"""

from __future__ import annotations

import itertools
import re
from operator import add
from typing import Iterable, NamedTuple

from . import invariants
from .poly import (
    DimensionMismatch,
    Poly,
    SparsePoly,
    Subset,
    ZeroPolynomialError,
    bits_to_subset,
    cardinality,
    int_submasks,
    parity_collect,
    subset_to_bits,
    term_text,
    variable_index,
)

__all__ = [
    "QMon",
    "QPoly",
    "make_qmon",
    "formal_trace",
    "evaluate",
    "qmon_degree",
    "qmon_trace_degree",
    "qmon_key",
]


class QMon(NamedTuple):
    xe: tuple  # m exponents for the x symbols
    ne: tuple  # m exponents for the N symbols
    traces: tuple  # descending-sorted subsets, each with >= 2 members


def make_qmon(xe: Iterable[int], ne: Iterable[int], traces: Iterable[Subset]) -> QMon:
    xe, ne = tuple(xe), tuple(ne)
    traces = tuple(sorted((tuple(a) for a in traces), reverse=True))
    if len(xe) != len(ne):
        raise DimensionMismatch("x and N exponent widths differ")
    if any(e < 0 for e in xe + ne):
        raise ValueError("negative exponent")
    for a in traces:
        if len(a) != len(xe):
            raise DimensionMismatch("trace subset width differs from exponent width")
        if not set(a) <= {0, 1}:
            raise ValueError(f"trace subset needs 0/1 entries, got {a}")
        if cardinality(a) < 2:
            raise ValueError(f"trace symbol needs >= 2 members, got {a}")
    return QMon(xe, ne, traces)


def qmon_degree(q: QMon) -> int:
    return sum(q.xe) + 2 * sum(q.ne) + sum(cardinality(a) for a in q.traces)


def qmon_trace_degree(q: QMon) -> int:
    return sum(cardinality(a) for a in q.traces)


def qmon_key(q: QMon):
    """Canonical total order on monomials, used for printing and for
    choosing which term a rewrite touches first."""
    return (qmon_degree(q), qmon_trace_degree(q), q.traces, q.ne, q.xe)


def _check_qmon(m: int, t: QMon) -> QMon:
    if len(t.xe) != m:
        raise DimensionMismatch(f"expected width {m}, got {len(t.xe)}")
    return make_qmon(t.xe, t.ne, t.traces)


def _qterm_text(t: QMon) -> str:
    return term_text(
        [(f"x{i + 1}", e) for i, e in enumerate(t.xe)]
        + [(f"N{i + 1}", e) for i, e in enumerate(t.ne)]
        + [(f"Tr({subset_to_bits(a)})", len(list(run)))
           for a, run in itertools.groupby(t.traces)])


def _parse_qterm(m: int, factors: list[tuple]) -> QMon:
    xe = [0] * m
    ne = [0] * m
    traces: list = []
    for xi, ni, bits, exp in factors:
        e = int(exp or 1)
        if xi is not None:
            xe[variable_index(m, xi)] += e
        elif ni is not None:
            ne[variable_index(m, ni)] += e
        else:
            traces.extend([bits_to_subset(bits)] * e)
    return make_qmon(xe, ne, traces)


class QPoly(SparsePoly):
    """A polynomial in the formal generator symbols, over GF(2)."""

    _order = staticmethod(qmon_key)
    _check_term = staticmethod(_check_qmon)
    _term_text = staticmethod(_qterm_text)
    _factor = re.compile(r"(?:x(\d+)|N(\d+)|Tr\(([01]+)\))(?:\^(\d+))?\Z")
    _parse_term = staticmethod(_parse_qterm)

    # Bound in this class body rather than only inherited, so that the
    # per-class call wrappers of benchmarks/tracer.py find them here.
    __add__ = SparsePoly.__add__

    @staticmethod
    def from_terms(m: int, terms: Iterable[QMon]) -> "QPoly":
        """Build from monomials with mod-2 cancellation of repeats."""
        return SparsePoly.from_terms.__func__(QPoly, m, terms)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def one(m: int) -> "QPoly":
        return QPoly(m, frozenset([QMon((0,) * m, (0,) * m, ())]))

    @staticmethod
    def monomial(mon: QMon) -> "QPoly":
        return QPoly(len(mon.xe), frozenset([mon]))

    @staticmethod
    def x_power(exps: Subset) -> "QPoly":
        m = len(exps)
        return QPoly.monomial(make_qmon(exps, (0,) * m, ()))

    @staticmethod
    def n_power(exps: Subset) -> "QPoly":
        m = len(exps)
        return QPoly.monomial(make_qmon((0,) * m, exps, ()))

    @staticmethod
    def trace_symbol(a: Subset) -> "QPoly":
        m = len(a)
        return QPoly.monomial(make_qmon((0,) * m, (0,) * m, (tuple(a),)))

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "QPoly") -> "QPoly":
        self._check_m(other)
        return QPoly(self.m, parity_collect(
            QMon(tuple(map(add, s.xe, t.xe)), tuple(map(add, s.ne, t.ne)),
                 tuple(sorted(s.traces + t.traces, reverse=True)))
            for s in self.terms for t in other.terms))

    # -- grading ------------------------------------------------------------

    def degree(self) -> int | None:
        """Common degree of all terms, or None when degrees mix."""
        if not self.terms:
            raise ZeroPolynomialError("zero element has no degree")
        degs = {qmon_degree(t) for t in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def trace_degree(self) -> int:
        """Largest total trace weight of any term (x and N weigh zero)."""
        if not self.terms:
            raise ZeroPolynomialError("zero element has no trace degree")
        return max(qmon_trace_degree(t) for t in self.terms)

    def is_trace_linear(self) -> bool:
        """True when no term carries more than one trace factor."""
        return all(len(t.traces) <= 1 for t in self.terms)


def formal_trace(a: Subset) -> QPoly:
    """Tr(a) with the degenerate cases rewritten away: the empty subset
    gives 0, a singleton {i} gives the symbol x_i."""
    k = cardinality(a)
    m = len(a)
    if k == 0:
        return QPoly.zero(m)
    if k == 1:
        return QPoly.x_power(a)
    return QPoly.trace_symbol(a)


# ---------------------------------------------------------------------------
# evaluation onto the invariant ring
# ---------------------------------------------------------------------------

def _norm_monomial_poly(m: int, xe: tuple, ne: tuple) -> Poly:
    """Expand x^xe * prod N_i^(ne_i) as a concrete polynomial.

    N^k = y^k (y + x)^k, so each factor contributes y^(k+j) x^(k-j) over
    the binary submasks j of k.
    """
    base = [0] * (2 * m)
    for i, e in enumerate(xe):
        base[2 * i + 1] = e
    hot = [i for i in range(m) if ne[i]]
    if not hot:
        return Poly.monomial(m, tuple(base))
    choices = [list(int_submasks(ne[i])) for i in hot]
    monos = []
    for combo in itertools.product(*choices):
        mono = list(base)
        for i, j in zip(hot, combo):
            mono[2 * i] = ne[i] + j
            mono[2 * i + 1] += ne[i] - j
        monos.append(tuple(mono))
    return Poly(m, frozenset(monos))


def evaluate(q: QPoly) -> Poly:
    """Substitute the concrete invariants for the formal symbols."""
    total = Poly.zero(q.m)
    for t in q.terms:
        img = _norm_monomial_poly(q.m, t.xe, t.ne)
        for a in t.traces:
            img = img * invariants.transfer(a)
        total = total + img
    return total
