"""Rewriting products of traces and certifying trace-linear relations.

Two procedures live here, and both return replayable logs rather than
bare answers.

``normal_form`` repeatedly eliminates products of trace symbols: while
some term carries at least two trace factors, the largest such term is
picked (by the canonical term order), its two largest trace factors are
handed to ``type_iii_relation``, and the resulting element — which
starts with exactly that product — is added back in, scaled by the rest
of the term.  Because coefficients live in GF(2), the add cancels the
offending product and replaces it with the lower terms of the relation.
The result has at most one trace factor per term.

``linear_reduce`` goes the other way: given a trace-linear element of
the presentation ring that evaluates to zero, it writes the element as
an explicit combination of the cubic-and-up relations.  The engine of
the descent is the *summand lead* (``qring.summand_lead``): the leading
monomial of the image of a single term x^I N^J Tr(A), which can be read
off without expanding anything,

    lead pi(x^I N^J Tr(A)) = x^I y^(2J) x_a y^(A-a),   a = min A,

because the norms lead with squares and a trace leads with the smallest
x times the remaining y's.  Distinct trace-free terms have distinct
summand leads, and a trace-free lead has every y-exponent even while a
trace lead has an odd one, so the maximal summand lead of a nonzero
element that evaluates to zero is always shared by an even number of
trace-carrying terms (two or more).  Any two of them pin down a subset
C and a monomial multiplier so that multiplier * type_i_relation(C)
cancels both; repeating drives the element to zero and the collected
multipliers form the certificate.

Both logs are checked by their parts.  Each writes its end as start
plus a sum of multiplier * relation, and evaluation is a ring map, so
relations that evaluate to zero prove that the two ends have the same
image.  ``ReductionTrace.verify`` replays the steps, checks that the
result is trace-linear and that every logged measure is its term's and
never rises, and checks that each distinct relation applied vanishes;
unlike a comparison of the two images, that also refuses a step that
does not vanish applied twice.  ``linear_reduce`` checks the type I
relations its descent applied, and evaluates its input only when the
descent fails or one of them does not vanish, to name the lead of a
nonzero image.  ``_relation_vanishes`` decides each distinct relation
element once per process; keyed by the element, not by its subsets, it
never takes a patched relation for the real one.

Packed keys.  The rewrite loops and their checks run on one int per
monomial of width m (``qring._Keys``).  Its fields, from the top: the
degree; the trace degree; one count per trace subset A, at the field of
A's bitmask (pair 1 the high bit), so a larger mask is more
significant; the N exponents, then the x exponents, pair 1 the most
significant in each; and the number of traces.  With b the bit length
of the largest degree in play, the degree fields take b bits, the
counts b - 1, as a count is at most half the degree, and the exponents
and the number of traces one, two, four or eight bytes (a degree of
2^64 or more does not pack).  The degree in play is the start's for a
normal form or a descent, where no product tops the term it replaces,
and for a replay or a combination also each multiplier's degree plus
its relation's largest.  No field then exceeds what it may hold, so
none carries: multiplying two monomials is adding their keys, and
dividing one by a factor is a subtraction.  The degree field is
unbounded, and a carry could only raise it, so a relation with a term
above the degree it is applied at is refused before it can overflow a
product (``_rows``).  The int order is exactly ``qmon_key``'s: degree,
then trace degree, then the descending trace lists, which compare as
their count vectors do from the largest subset down, then the N and x
exponent tuples; the trace count below them never decides.  So
``normal_form`` keeps a set of keys and a heap of negated keys, and
pops the largest term with two traces as the tuple path did, step for
step.  The multiplier's key is the term's minus that of Tr(A)Tr(B), and
each product is one int addition.

``_descend`` puts above each key the key of its summand lead,
deg << 2mb minus the lead's exponents in b-bit fields, x_m's the
highest and y_1's the lowest: grevlex compares the degree, then prefers
the smaller exponent from the last variable down, as
``poly.monomial_key`` does.  The lead of a product is the product of
the leads, so this key too is a sum, and the largest key carries the
lead of the step.  ``LinearCertificate.verify`` packs the start into
the fields of the combination and compares the key sets (``_holds``),
refusing a start with a term above them; ``ReductionTrace.verify``
compares the decoded replay, which a large trace holds in less memory
than a second set of keys.

``QMon``s are decoded (``_Keys.qmon``) only for the terms a log names:
each popped term, the achievers of each descent step, and the result of
a normal form, a replay or a combination.  A normal form knows, and
does not decode, the start's terms and those of a relation applied
with the multiplier 1.  A relation's terms are packed once per call,
keyed by the relation element, so a patched relation is never read as
the real one: type III tables live for one call, and the type I table
of each width and field size, which the 605 certificates of a kernel
basis share, for the process.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import pairwise
from struct import error as StructError

from .poly import (
    DimensionMismatch,
    Monomial,
    Record,
    Subset,
    _set,
    cardinality,
    min_index,
    monomial_text,
    parity_update,
    singleton,
    subset_key,
    subset_to_bits,
    union,
)
from .qring import (
    QMon,
    QPoly,
    _keys,
    evaluate,
    qmon_degree,
    qmon_trace_degree,
    summand_lead,
    vanishes,
)
from .relations import (
    Relation,
    VacuousRelationError,
    type_i_relation,
    type_iii_relation,
)

__all__ = [
    "NotTraceLinearError",
    "NotARelationError",
    "ReductionStep",
    "ReductionTrace",
    "normal_form",
    "reduce_product",
    "summand_lead",
    "LinearStep",
    "LinearCertificate",
    "linear_reduce",
]


class NotTraceLinearError(ValueError):
    """Raised when an argument has a term with two or more trace factors."""


class NotARelationError(ValueError):
    """Raised when an argument does not evaluate to zero (or the descent
    would need it to)."""


@lru_cache(maxsize=None)
def _relation_vanishes(element: QPoly) -> bool:
    """``vanishes(element)`` for a relation a certificate applies, decided
    once per process for each distinct element."""
    return vanishes(element)


def _top_degree(terms) -> int:
    return max(map(qmon_degree, terms), default=0)


def _rows(keys, table: dict, element: QPoly, top: int,
          ranked: bool = False) -> tuple:
    """The terms of ``element`` in one order, its degree, and the keys
    of the terms in that order, plus their keys ranked by their summand
    leads if asked (``_Keys.ranked``), from ``table`` or packed into it,
    keyed by the element.  A product stays inside the fields only while
    every term of the relation is of degree ``top`` at most, so a
    relation with a term above it is refused: a carry could only raise
    the degree field, which tops the key, and an exponent too large for
    its byte field does not pack."""
    entry = table.get(element)
    if entry is None:
        terms = tuple(element.terms)
        try:
            packed = list(map(keys.key, terms))
        except StructError:
            pass
        else:
            entry = table[element] = (
                terms, max(packed, default=0) >> keys.deg, packed,
                list(map(keys.ranked, terms, packed)) if ranked else None)
    if entry is None or entry[1] > top:
        raise RuntimeError(
            f"relation {element} has a term above degree {top}")
    return entry


def _holds(keys, odd: set, q: QPoly) -> bool:
    """Whether ``q`` is the element whose exact keys ``odd`` holds.  A
    term of ``q`` above the degree the fields hold reads above it in its
    key, as a carry could only raise the degree field, so it is not in
    ``odd``; or it does not pack."""
    if q.m != keys.m:
        return False
    try:
        return set(map(keys.key, q.terms)) == odd
    except StructError:
        return False


# ---------------------------------------------------------------------------
# eliminating products of traces


class ReductionStep(Record):
    """One rewrite: ``term`` was the reduced term, ``relation`` the quadratic
    relation applied to its two largest trace factors, ``multiplier`` the
    leftover monomial, and ``measure`` the (degree, trace degree) of the
    term, logged so that a trace can be checked for monotonicity."""

    __slots__ = ("term", "relation", "multiplier", "measure")

    def __init__(self, term: QMon, relation: Relation, multiplier: QMon,
                 measure: tuple[int, int]):
        _set(self, "term", term)
        _set(self, "relation", relation)
        _set(self, "multiplier", multiplier)
        _set(self, "measure", measure)

    def to_json(self) -> dict:
        return {
            "term": str(QPoly.monomial(self.term)),
            "family": self.relation.family,
            "A": subset_to_bits(self.relation.a),
            "B": subset_to_bits(self.relation.b),
            "multiplier": str(QPoly.monomial(self.multiplier)),
            "degree": self.measure[0],
            "trace_degree": self.measure[1],
        }


class ReductionTrace(Record):
    """A replayable normal-form computation."""

    __slots__ = ("start", "result", "steps")

    def __init__(self, start: QPoly, result: QPoly,
                 steps: tuple[ReductionStep, ...]):
        _set(self, "start", start)
        _set(self, "result", result)
        _set(self, "steps", steps)

    def replay(self) -> QPoly:
        """Re-run the logged steps from ``start``; equals ``result``.  The
        fields are sized from the start and from each multiplier's
        degree plus its relation's largest."""
        tops: dict[QPoly, int] = {}
        top = _top_degree(self.start.terms)
        for step in self.steps:
            element = step.relation.element
            if element not in tops:
                tops[element] = _top_degree(element.terms)
            top = max(top, qmon_degree(step.multiplier) + tops[element])
        keys = _keys(self.start.m, top.bit_length())
        odd = set(map(keys.key, self.start.terms))
        packed: dict = {}
        for step in self.steps:
            element = step.relation.element
            odd.symmetric_difference_update(map(
                keys.key(step.multiplier).__add__,
                _rows(keys, packed, element, tops[element])[2]))
        packed.clear()  # freed before the result is decoded
        return keys.poly(odd, {}, {})

    def _measures_hold(self) -> bool:
        """Each logged measure is its term's (degree, trace degree), and
        the sequence never increases."""
        measures = [step.measure for step in self.steps]
        return (all(step.measure == (qmon_degree(step.term),
                                     qmon_trace_degree(step.term))
                    for step in self.steps)
                and all(a >= b for a, b in pairwise(measures)))

    def verify(self) -> bool:
        """The replay reaches ``result``, which is trace-linear, the
        measure log holds, and every relation the steps apply vanishes,
        which gives ``start`` and ``result`` the same image."""
        return (
            self.replay() == self.result
            and self.result.is_trace_linear()
            and self._measures_hold()
            and all(_relation_vanishes(step.relation.element)
                    for step in self.steps)
        )

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.start.m,
            "start": str(self.start),
            "result": str(self.result),
            "steps": [s.to_json() for s in self.steps],
        }


def _split_two_largest(term: QMon) -> tuple[Subset, Subset, tuple]:
    # a stable sort by size keeps equal sizes in the term's descending
    # order, so this is the order of subset_key
    factors = sorted(term.traces, key=sum, reverse=True)
    first, second = factors[0], factors[1]
    rest = list(term.traces)
    rest.remove(first)
    rest.remove(second)
    return first, second, tuple(rest)


def normal_form(q: QPoly) -> ReductionTrace:
    """Rewrite until every term has at most one trace factor.

    Each pass reduces the largest offending term.  The logged
    ``measure`` sequence is non-increasing, and the rewrite of a term
    strictly shrinks the pair (trace degree, m * trace degree - sum of
    squared factor sizes) for each replacement term, which is what makes
    any schedule terminate.

    The element is kept as a mutable set of packed keys, and the keys
    of the terms with two or more traces in a heap of their negations.
    A key is pushed whenever it enters the set; an entry whose key has
    since left the set is skipped when it pops.  Every term in the set
    thus has an entry, so the first live entry to pop is the largest
    offending term (the key order is ``qmon_key``'s, a total order).
    """
    keys = _keys(q.m, _top_degree(q.terms).bit_length())
    count = keys.count
    # the terms known without decoding: the start's, and those of each
    # relation applied with the multiplier 1
    named = dict(zip(map(keys.key, q.terms), q.terms))
    terms = set(named)
    heap = [-k for k in terms if k & count >= 2]
    heapq.heapify(heap)
    packed: dict = {}
    seen: dict = {}
    steps: list[ReductionStep] = []
    last_measure: tuple[int, int] | None = None
    while heap:
        k = -heapq.heappop(heap)
        if k not in terms:
            continue
        term = named.get(k) or keys.qmon(k, seen)
        first, second, rest = _split_two_largest(term)
        relation = type_iii_relation(first, second)
        # the decoded traces were packed, so their keys are recorded
        lead = keys.keyed[first] + keys.keyed[second]
        relation_terms, _, rows, _ = _rows(keys, packed, relation.element,
                                           lead >> keys.deg)
        if k == lead:
            named.update(zip(rows, relation_terms))
        for t in rows:
            t += k - lead
            if t in terms:
                terms.remove(t)
            else:
                terms.add(t)
                if t & count >= 2:
                    heapq.heappush(heap, -t)
        if k in terms:
            raise RuntimeError(
                f"normal_form step left its term {QPoly.monomial(term)}")
        measure = (k >> keys.deg, k >> keys.td & keys.ones)
        if last_measure is not None and measure > last_measure:
            raise RuntimeError(
                f"normal_form measure rose from {last_measure} to {measure}")
        last_measure = measure
        # rest keeps the canonical trace order of term, so make_qmon's
        # checks would add nothing
        steps.append(ReductionStep(term, relation,
                                   QMon(term.xe, term.ne, rest), measure))
    packed.clear()  # freed before the result is decoded
    return ReductionTrace(start=q, result=keys.poly(terms, seen, named),
                          steps=tuple(steps))


def reduce_product(a: Subset, b: Subset) -> ReductionTrace:
    """Normal form of the product of two formal traces, built as its one
    monomial after the checks ``formal_trace`` and ``QPoly.__mul__``
    would make, in their order."""
    if cardinality(a) < 2 or cardinality(b) < 2:
        raise VacuousRelationError(
            "reduce_product wants two subsets with at least two members each")
    a, b = tuple(a), tuple(b)
    for s in (a, b):
        if not set(s) <= {0, 1}:
            raise ValueError(f"trace subset needs 0/1 entries, got {s}")
    if len(a) != len(b):
        raise DimensionMismatch(f"mixed widths: m={len(a)} vs m={len(b)}")
    zero = (0,) * len(a)
    product = QMon(zero, zero, tuple(sorted((a, b), reverse=True)))
    return normal_form(QPoly.monomial(product))


# ---------------------------------------------------------------------------
# certifying trace-linear relations


class LinearStep(Record):
    """One descent step: the cubic-and-up relation on ``subset`` was scaled
    by ``multiplier`` to cancel the two smallest terms achieving the lead
    monomial ``lead`` (``achievers`` counts how many terms achieved it)."""

    __slots__ = ("subset", "multiplier", "lead", "achievers")

    def __init__(self, subset: Subset, multiplier: QMon, lead: Monomial,
                 achievers: int):
        _set(self, "subset", subset)
        _set(self, "multiplier", multiplier)
        _set(self, "lead", lead)
        _set(self, "achievers", achievers)

    def to_json(self) -> dict:
        return {
            "subset": subset_to_bits(self.subset),
            "multiplier": str(QPoly.monomial(self.multiplier)),
            "lead": monomial_text(self.lead),
            "achievers": self.achievers,
        }


class LinearCertificate(Record):
    """An expression of ``start`` as a combination of the relations
    ``type_i_relation(C)`` for the subsets C in ``coefficients``, which
    equality and hash leave out."""

    __slots__ = ("start", "coefficients", "steps")
    _compared = ("start", "steps")

    def __init__(self, start: QPoly, coefficients: dict[Subset, QPoly],
                 steps: tuple[LinearStep, ...] = ()):
        _set(self, "start", start)
        _set(self, "coefficients", coefficients)
        _set(self, "steps", steps)

    def _combined(self) -> tuple:
        """The keys and the packed combination, with fields sized from
        each coefficient term's degree plus its subset's."""
        top = 0
        for subset, coefficient in self.coefficients.items():
            top = max(top, cardinality(subset)
                      + _top_degree(coefficient.terms))
        keys = _keys(self.start.m, top.bit_length())
        odd: set[int] = set()
        for subset, coefficient in self.coefficients.items():
            rows = _rows(keys, keys.relations,
                         type_i_relation(subset).element, cardinality(subset),
                         ranked=True)[2]
            for mon in coefficient.terms:
                odd.symmetric_difference_update(map(keys.key(mon).__add__,
                                                    rows))
        return keys, odd

    def combination(self) -> QPoly:
        keys, odd = self._combined()
        return keys.poly(odd, {}, {})

    def verify(self) -> bool:
        return _holds(*self._combined(), self.start)

    def sorted_subsets(self) -> list[Subset]:
        return sorted(self.coefficients, key=subset_key)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.start.m,
            "start": str(self.start),
            "coefficients": {
                subset_to_bits(a): str(self.coefficients[a])
                for a in self.sorted_subsets()
            },
            "steps": [s.to_json() for s in self.steps],
        }


def _refuse_nonzero_image(h: QPoly) -> None:
    """Raise ``NotARelationError`` naming the lead of the image of ``h``,
    unless that image is zero."""
    image = evaluate(h)
    if image.terms:
        raise NotARelationError(
            "element does not evaluate to zero; image contains "
            + monomial_text(image.lead_term()))


def linear_reduce(h: QPoly) -> LinearCertificate:
    """Write a trace-linear element that evaluates to zero as an explicit
    combination of the relations on three-or-more-member subsets.

    Raises ``NotTraceLinearError`` if some term has two trace factors and
    ``NotARelationError`` if the element does not evaluate to zero.  The
    input is evaluated only when the descent fails or a relation it
    applied does not vanish; otherwise the certificate proves it.
    """
    if not h.is_trace_linear():
        raise NotTraceLinearError("linear_reduce needs at most one trace per term")
    try:
        certificate, applied = _descend(h)
    except (ValueError, RuntimeError):
        _refuse_nonzero_image(h)
        raise
    if not all(map(_relation_vanishes, applied)):
        _refuse_nonzero_image(h)
        raise RuntimeError(
            "the descent applied a type I relation that does not vanish")
    return certificate


def _descend(h: QPoly) -> tuple[LinearCertificate, set[QPoly]]:
    """The descent of ``linear_reduce``: its certificate, and the
    relation elements it applied.  The terms are packed keys ranked by
    their summand leads (``_Keys.ranked``), so the largest carries the
    lead of each step, and its achievers are the keys from that lead's
    up."""
    m = h.m
    keys = _keys(m, _top_degree(h.terms).bit_length())
    current = {keys.ranked(t, keys.key(t)) for t in h.terms}
    coefficients: dict[Subset, set[QMon]] = {}
    seen: dict = {}
    steps: list[LinearStep] = []
    applied: set[QPoly] = set()
    last_rank = None
    while current:
        best = max(current) >> keys.wide
        floor = best << keys.wide
        achievers = [keys.qmon(k - floor, seen)
                     for k in filter(floor.__le__, current)]
        lead = summand_lead(achievers[0])
        # A trace-free term has all even y-exponents in its summand lead
        # and no other term shares that lead, so it can never top a
        # combination that evaluates to zero.
        if len(achievers) < 2 or not all(t.traces for t in achievers):
            raise NotARelationError(
                "descent stalled at " + monomial_text(lead)
                + f" with {len(achievers)} achieving term(s)")
        achievers.sort(key=lambda t: (t.traces[0], t.xe))
        first, second = achievers[0], achievers[1]
        other = min_index(second.traces[0])
        subset = union(first.traces[0], singleton(m, other))
        xe = list(first.xe)
        if xe[other] < 1:
            raise RuntimeError(
                "descent would give a negative exponent at "
                + monomial_text(lead))
        xe[other] -= 1
        # the guard above is the one check make_qmon would add here
        multiplier = QMon(tuple(xe), first.ne, ())
        element = type_i_relation(subset).element
        applied.add(element)
        current.symmetric_difference_update(map(
            keys.ranked(multiplier, keys.key(multiplier)).__add__,
            _rows(keys, keys.relations, element, cardinality(subset),
                  ranked=True)[3]))
        parity_update(coefficients.setdefault(subset, set()), (multiplier,))
        rank = (best, len(achievers))
        if last_rank is not None and rank >= last_rank:
            raise RuntimeError(
                "descent did not fall at " + monomial_text(lead))
        last_rank = rank
        steps.append(LinearStep(subset, multiplier, lead, len(achievers)))
    return (LinearCertificate(start=h, coefficients={
        a: QPoly(m, frozenset(c)) for a, c in coefficients.items() if c},
        steps=tuple(steps)), applied)
