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

The evaluation map runs one multidegree block at a time
(``block_images``).  Sending x_i to e_i, N_i to 2 e_i and Tr(A) to the
indicator vector of A grades the presentation ring (``multidegree``),
and every generator's image is multihomogeneous of its symbol's
multidegree when x_i and y_i both count e_i.  So a term of multidegree
alpha maps into the span of the x^(alpha-b) y^b with b <= alpha, where
setting every x_i to 1 loses nothing: y^b names the monomial.  The y_i
exponents of a term's image are at most its reach alpha_i - I_i, for
x^I maps to x^I and every other factor carries y_i at most as often as
it counts e_i; a block's reach r_i is the largest over its terms.  Read
an int as a polynomial in t over GF(2), bit k the coefficient of t^k,
so that XOR adds and a shift multiplies by a power of t.  Sending y_i
to t^R_i with R_i = prod_{j<i} (r_j + 1) is a ring map, and it is
injective on the exponents b <= r, which it writes in mixed radix as
sum_i b_i R_i.  So the image of a term is one int, whatever the
products on the way to it reach: bit sum_i b_i R_i is the coefficient
of x^(alpha-b) y^b.  An int has prod_i (r_i + 1) bits at most, which
x exponents do not widen.  Images of different multidegrees share no
monomial, so an element's image is one such int per multidegree, and
it is zero exactly when each of them is; this holds for elements off
the multigrading too.  ``evaluate`` decodes the set bits into
y_i = b_i, x_i = alpha_i - b_i at the end, and the oracle takes the
ints of one block as its matrix rows.  ``Poly``, ``QMon`` and every
public type stay tuple-based.

Two facts about a block's polynomial can be read off its int without
decoding it.  Its monomials all have x_i + y_i = alpha_i, so grevlex on
(y1, x1, ..., ym, xm), which is decided by the last variable whose
exponent differs, prefers the smaller x_m, that is the larger y_m, then
the larger y_(m-1), and so on: the order of the bit indices
sum_i b_i R_i, most significant digit b_m first.  So a nonzero int leads
with its top bit, ``bit_length() - 1``, which ``bit_monomial`` decodes.
And at x = 1 the involution, y_i -> y_i + x_i, sends y_i to y_i + 1,
where (y_i + 1)^b is the product of y_i^s + 1 over the powers of two s
in b: it acts on an int by one shift-XOR per coordinate i and power of
two s <= r_i, which adds to each term whose i-th digit has bit s set the
term with that bit cleared, s R_i bits lower.  No exponent rises, so
the result stays inside the radix (``involution_fixes``).  The oracle
checks the generators' leads and invariance this way.

``term_image`` is the shift-XOR rule for one term, read from the
weights of its N exponents and of its traces' members:
``block_images`` reads them off ``QMon`` tuples, and the shape check
of module ``shapes`` off int masks, so both run one evaluator.

``block_sums`` groups an element's terms by multidegree once and sums
each block's ints: ``evaluate`` decodes them, ``vanishes`` reads only
whether they are zero, and the verify sweep reads from the one call
both whether a relation vanishes and the block it is filed under.  The
certificate checks in ``rewrite`` call ``vanishes`` once per distinct
relation a certificate applies, not on the certified element: the
certificate writes that element as a combination of the relations, so
relations that vanish prove its image.

``times_monomial`` lists the terms of a product by one monomial.
Such a product is injective on monomials, so its terms are distinct
and need no parity collection; the rewrite procedures use it to
toggle multiples into term sets without building a ``QPoly``.  (The
relation spans multiply prime-product keys instead, in ``blocks``.)
``QPoly.__mul__`` is its sum over the terms of the left factor.
``largest_qmon`` writes down the greatest monomial of a degree under
``qmon_key``, with nothing enumerated.
"""

from __future__ import annotations

import itertools
import re
from functools import reduce
from operator import add, mul, xor
from typing import Iterable, NamedTuple

from .f2 import bit_indices
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
    "bit_monomial",
    "involution_fixes",
    "vanishes",
    "times_monomial",
    "term_image",
    "block_images",
    "block_sums",
    "multidegree",
    "summand_lead",
    "qmon_degree",
    "qmon_trace_degree",
    "qmon_key",
    "largest_qmon",
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
    return sum(q.xe) + 2 * sum(q.ne) + sum(map(sum, q.traces))


def qmon_trace_degree(q: QMon) -> int:
    return sum(map(sum, q.traces))


def qmon_key(q: QMon):
    """Canonical total order on monomials, used for printing and for
    choosing which term a rewrite touches first."""
    return (qmon_degree(q), qmon_trace_degree(q), q.traces, q.ne, q.xe)


def largest_qmon(m: int, e: int) -> QMon:
    """The largest monomial of degree e under ``qmon_key``,
    ``oracle.q_monomials(m, e)[0]``, written down directly.  The
    greatest trace degree comes first: all of e once traces of sizes
    2..m sum to it, which leaves one x at e = 1, or at odd e when
    m = 2, and leaves all of it at m = 1.  Then the trace list,
    lexicographic: each trace in turn is the prefix 1^s with s largest,
    m or what is left, but m - 1 where m would leave 1.  Then the N
    exponents and the x exponents, the rest on pair 0."""
    free = e if m < 2 else e % 2 if m == 2 else int(e == 1)
    rest, traces = e - free, []
    while rest:
        size = min(m, rest)
        size -= rest - size == 1
        traces.append((1,) * size + (0,) * (m - size))
        rest -= size
    zero = (0,) * (m - 1)
    return QMon((free % 2,) + zero, (free // 2,) + zero, tuple(traces))


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
    # with no trace to insert, each term's traces stay in canonical order
    return [QMon(tuple(map(add, xe, t.xe)), tuple(map(add, ne, t.ne)),
                 tuple(sorted(traces + t.traces, reverse=True))
                 if traces else t.traces)
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


def multidegree(t: QMon) -> tuple[int, ...]:
    """The multidegree of a presentation monomial: x_i counts e_i, N_i
    counts 2 e_i and Tr(A) the indicator vector of A."""
    return tuple(map(sum, zip(t.xe, t.ne, t.ne, *t.traces)))


def term_image(norms, traces) -> int:
    """The block int of x^I N^J Tr(A_1)...Tr(A_k) at x = 1, under
    y_i -> t^(R_i): ``norms`` pairs the weight R_i of each N_i with its
    exponent J_i > 0, and ``traces`` gives each trace's member weights
    as an iterable.  A product by y_i is a shift and one by y_i + 1 a
    shift-XOR: x_i maps to 1; N_i to y_i (y_i + 1), with one shift-XOR
    per set bit k of its exponent, as (y_i + 1)^(2^k) = y_i^(2^k) + 1;
    and Tr(A) to y^A + prod_{i in A} (y_i + 1).  ``block_images`` reads
    the weights off ``QMon`` tuples, ``shapes.shape_holds`` off int
    masks."""
    image = 1
    for r, e in norms:
        image <<= r * e
        while e:
            if e & 1:
                image ^= image << r
            e >>= 1
            r <<= 1
    for weights in traces:
        ones, shift = image, 0
        for r in weights:
            ones ^= ones << r
            shift += r
        image = ones ^ (image << shift)
    return image


def block_images(alpha: tuple[int, ...],
                 terms: list[QMon]) -> tuple[tuple[int, ...], list[int]]:
    """The images of ``terms``, all of multidegree ``alpha``, as one int
    each (``term_image``), with the bit weights R_i of the y_i they
    share: bit sum_i b_i R_i is the coefficient of x^(alpha-b) y^b, and
    R_i = prod_{j<i} (r_j + 1) for the block's reach r (see the module
    docstring)."""
    low = map(min, zip(*(t.xe for t in terms)))
    radices = tuple(itertools.accumulate(
        (a - x + 1 for a, x in zip(alpha[:-1], low)), mul, initial=1))
    return radices, [
        term_image([(r, e) for r, e in zip(radices, t.ne) if e]
                   if any(t.ne) else (),
                   [itertools.compress(radices, a) for a in t.traces])
        for t in terms]


def block_sums(q: QPoly) -> dict[tuple, tuple[tuple, int]]:
    """The image of ``q`` by block: for each multidegree of its terms,
    the bit weights and the sum of the ``block_images`` ints.  The keys
    are the multidegrees ``q`` has, and ``q`` vanishes exactly when
    every int is zero."""
    groups: dict[tuple, list[QMon]] = {}
    for t in q.terms:
        groups.setdefault(multidegree(t), []).append(t)
    sums = {}
    for alpha, group in groups.items():
        radices, images = block_images(alpha, group)
        sums[alpha] = radices, reduce(xor, images, 0)
    return sums


def bit_monomial(alpha: tuple[int, ...], radices: tuple[int, ...],
                 bit: int) -> Monomial:
    """The monomial x^(alpha-b) y^b that bit ``bit`` of a block int with
    bit weights ``radices`` stands for: b_i is the bit index's i-th
    mixed-radix digit."""
    ys = []
    for r in reversed(radices):
        y, bit = divmod(bit, r)
        ys.append(y)
    return tuple(e for y, a in zip(reversed(ys), alpha) for e in (y, a - y))


def involution_fixes(image: int, radices: tuple[int, ...]) -> bool:
    """Whether the involution fixes the polynomial that the block int
    ``image`` with bit weights ``radices`` stands for, decided by the
    Taylor shift y_i -> y_i + 1 on the int (see the module docstring).
    The positions whose i-th digit has bit s set repeat with the period
    R_(i+1), the weight of the next digit, so one period times a
    repunit marks them all; the last digit runs up to the top bit."""
    if not image:
        return True
    top = (image.bit_length() - 1) // radices[-1]
    periods = radices[1:] + (radices[-1] * (top + 1),)
    shifted = image
    for weight, period in zip(radices, periods):
        repunit = ((1 << periods[-1]) - 1) // ((1 << period) - 1)
        run = (1 << weight) - 1
        digits = period // weight
        s = 1
        while s < digits:
            mask = repunit * sum(run << (k * weight)
                                 for k in range(digits) if k & s)
            shifted ^= (shifted & mask) >> (s * weight)
            s <<= 1
    return shifted == image


def evaluate(q: QPoly) -> Poly:
    """Substitute the concrete invariants for the formal symbols."""
    return Poly(q.m, frozenset(
        bit_monomial(alpha, radices, bit)
        for alpha, (radices, image) in block_sums(q).items()
        for bit in bit_indices(image)))


def vanishes(q: QPoly) -> bool:
    """True when ``q`` evaluates to zero, decided on its block images
    without decoding them, and with no ``Poly`` built."""
    return not any(image for _, image in block_sums(q).values())
