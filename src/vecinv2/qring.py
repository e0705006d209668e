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
rewrites Tr({i}) to x_i and Tr(empty) to 0, and the relation
constructors, which write their terms directly, rewrite them the same
way, so terms only ever carry subsets of size two or more.

The evaluation map runs on packed exponents (``packed_image``).  A
monomial of F2[y1, x1, ..., ym, xm] becomes one int with a field of
``width`` bits per exponent (``poly.pack``), and multiplying two
monomials is adding their ints.  The width is the bit length of the
element's largest term degree D.  Each generator's image is
homogeneous of its symbol's degree, so every monomial of a term's
image, and of every partial product on the way to it, has total degree
at most the term's degree, hence at most D.  An exponent never exceeds
its monomial's total degree, so every field stays at most D < 2**width,
and no field can carry into the next.  The transfers are packed once
per width and cached, and all products are parity-collected into sets
of ints.  ``evaluate`` unpacks the result once, at the end.

``packed_image`` applies the norms after collecting the sum.  It
groups the terms x^I N^J Tr(A1)...Tr(Ak) by their norm exponent J,
collects each group's sum of x^I Tr(A1)...Tr(Ak), and multiplies that
sum once by the image of N^J, sheared straight into packed ints.  This
is exact: evaluation is a ring map and N^J is a factor common to the
group.  Terms that cancel inside a group never meet the norm image,
which is what makes a large normal form cheap to evaluate.  The oracle
evaluates one monomial per matrix row, where there is nothing to
collect, so it calls ``packed_term_image`` instead and indexes its
matrix columns by the packed ints directly.  ``Poly``, ``QMon`` and
every public type stay tuple-based.

``vanishes`` answers whether an element evaluates to zero from the
packed image alone, with ``evaluate``'s width rule and without
unpacking.  The certificate checks in ``rewrite`` call it once per
distinct relation a certificate applies, not on the certified
element: the certificate writes that element as a combination of the
relations, so relations that vanish prove its image.

``times_monomial`` lists the terms of a product by one monomial.
Such a product is injective on monomials, so its terms are distinct
and need no parity collection; the rewrite procedures use it to
toggle multiples into term sets without building a ``QPoly``.  (The
relation spans multiply packed monomial keys instead, in ``blocks``.)
``QPoly.__mul__`` is its sum over the terms of the left factor.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from operator import add
from typing import Iterable, NamedTuple

from . import invariants
from .poly import (
    DimensionMismatch,
    Monomial,
    Poly,
    SparsePoly,
    Subset,
    ZeroPolynomialError,
    bits_to_subset,
    cardinality,
    min_index,
    pack,
    packed_width,
    parity_collect,
    parity_update,
    subset_to_bits,
    term_text,
    unpack,
    variable_index,
)

__all__ = [
    "QMon",
    "QPoly",
    "make_qmon",
    "formal_trace",
    "evaluate",
    "vanishes",
    "times_monomial",
    "packed_image",
    "packed_term_image",
    "summand_lead",
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
    def monomial(mon: QMon) -> "QPoly":
        return QPoly(len(mon.xe), frozenset([mon]))

    @staticmethod
    def x_power(exps: Subset) -> "QPoly":
        m = len(exps)
        return QPoly.monomial(make_qmon(exps, (0,) * m, ()))

    @staticmethod
    def trace_symbol(a: Subset) -> "QPoly":
        m = len(a)
        return QPoly.monomial(make_qmon((0,) * m, (0,) * m, (tuple(a),)))

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "QPoly") -> "QPoly":
        self._check_m(other)
        return QPoly(self.m, parity_collect(
            t for s in self.terms for t in times_monomial(s, other)))

    # -- grading ------------------------------------------------------------

    def degree(self) -> int | None:
        """Common degree of all terms, or None when degrees mix."""
        if not self.terms:
            raise ZeroPolynomialError("zero element has no degree")
        degs = {qmon_degree(t) for t in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_trace_linear(self) -> bool:
        """True when no term carries more than one trace factor."""
        return all(len(t.traces) <= 1 for t in self.terms)


def times_monomial(mon: QMon, q: QPoly) -> list[QMon]:
    """The terms of ``mon * q``, as a list.

    Multiplying by one monomial is injective on monomials: the
    exponents shift by fixed amounts and the trace multiset gains fixed
    members, both of which can be undone.  Distinct terms of ``q`` thus
    give distinct products, nothing cancels, and the list needs none of
    ``__mul__``'s parity collection.  Callers toggle it into a term
    set."""
    if len(mon.xe) != q.m:
        raise DimensionMismatch(f"mixed widths: m={len(mon.xe)} vs m={q.m}")
    xe, ne, traces = mon
    return [QMon(tuple(map(add, xe, t.xe)), tuple(map(add, ne, t.ne)),
                 tuple(sorted(traces + t.traces, reverse=True)))
            for t in q.terms]


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

@lru_cache(maxsize=None)
def _packed_transfer(a: Subset, width: int) -> tuple[int, ...]:
    return tuple(pack(t, width) for t in invariants.transfer(a).terms)


def _times_transfers(image, traces: tuple, width: int) -> list[int]:
    """The packed terms ``image`` times the transfers of ``traces``.
    Each transfer but the last is multiplied in and parity-collected;
    the products with the last are listed as they come, so a term may
    repeat and the caller toggles them into its sum."""
    for a in traces[:-1]:
        factor = _packed_transfer(a, width)
        image = parity_collect(p + f for p in image for f in factor)
    if traces:
        factor = _packed_transfer(traces[-1], width)
        image = [p + f for p in image for f in factor]
    return image


def _interleave(ys: tuple, xs: tuple, width: int) -> int:
    """The packed monomial y^ys x^xs."""
    base = [0] * (2 * len(xs))
    base[0::2] = ys
    base[1::2] = xs
    return pack(base, width)


def packed_term_image(t: QMon, width: int) -> set[int]:
    """The image of the single term ``t`` as a set of packed monomials,
    ``width`` bits per exponent; the width must hold the term's degree
    (``packed_width``).

    x^I N^J Tr(A1)...Tr(Ak) maps to y^J x^I prod (y + x)^J (the shear
    of ``invariants.sheared``) times the k transfers, multiplied in
    that order; products of packed monomials are int sums."""
    odd: set[int] = set()
    parity_update(odd, _times_transfers(
        invariants.sheared(_interleave(t.ne, t.xe, width), t.ne, width),
        t.traces, width))
    return odd


def summand_lead(term: QMon) -> Monomial:
    """Leading monomial of the image of a presentation-ring term, read
    off the generators' leads rather than by expanding the image:
    x^I N^J Tr(A1)...Tr(Ak) leads with x^I y^(2J) times x_a y^(A-a),
    a = min A, for each trace A, because x_i leads with itself, N_i
    with y_i^2 and Tr(A) with x_a y^(A-a), and the lead of a product is
    the product of the leads (grevlex is a monomial order and the
    polynomial ring a domain)."""
    m = len(term.xe)
    exps = [0] * (2 * m)
    for i in range(m):
        exps[2 * i + 1] = term.xe[i]
        exps[2 * i] = 2 * term.ne[i]
    for a in term.traces:
        low = min_index(a)
        exps[2 * low + 1] += 1
        for i in range(m):
            if a[i] and i != low:
                exps[2 * i] += 1
    return tuple(exps)


def packed_image(terms: Iterable[QMon], width: int) -> set[int]:
    """The image of the sum of ``terms`` as a set of packed monomials,
    ``width`` bits per exponent; the width must hold the largest term
    degree (``packed_width``).

    The terms are grouped by their norm exponent J.  Each group's sum
    of the images of x^I Tr(A1)...Tr(Ak) is parity-collected first, and
    only then multiplied, once, by the image y^J prod (y + x)^J of N^J.
    That is exact because evaluation is a ring map and N^J is a factor
    common to the group: the group's image is the image of N^J times
    the image of the sum of the rest.  Every partial product has degree
    at most its term's, so the width holds throughout."""
    groups: dict[tuple, set[int]] = {}
    for t in terms:
        x_part = _interleave((0,) * len(t.xe), t.xe, width)
        parity_update(groups.setdefault(t.ne, set()),
                      _times_transfers([x_part], t.traces, width))
    total: set[int] = set()
    for ne, odd in groups.items():
        y_part = _interleave(ne, (0,) * len(ne), width)
        norm = invariants.sheared(y_part, ne, width)
        parity_update(total, [p + n for p in odd for n in norm])
    return total


def _image_width(q: QPoly) -> int:
    """The packed width that holds every term of ``q``: the bit length
    of its largest term degree."""
    return packed_width(max(map(qmon_degree, q.terms), default=0))


def evaluate(q: QPoly) -> Poly:
    """Substitute the concrete invariants for the formal symbols."""
    width = _image_width(q)
    return Poly(q.m, frozenset(unpack(p, 2 * q.m, width)
                               for p in packed_image(q.terms, width)))


def vanishes(q: QPoly) -> bool:
    """True when ``q`` evaluates to zero, decided on the packed image
    without unpacking it, and with no ``Poly`` built."""
    return not packed_image(q.terms, _image_width(q))
