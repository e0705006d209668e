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
never takes a patched relation for the real one.  Each step's product
by a monomial comes from ``qring.times_monomial``, whose terms are
distinct, so it is toggled into the running term set without a
``QPoly`` in between.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import pairwise

from .poly import (
    DimensionMismatch,
    Monomial,
    Record,
    Subset,
    ZeroPolynomialError,
    _set,
    cardinality,
    min_index,
    monomial_key,
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
    evaluate,
    qmon_degree,
    qmon_key,
    qmon_trace_degree,
    summand_lead,
    times_monomial,
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
        """Re-run the logged steps from ``start``; equals ``result``."""
        odd = set(self.start.terms)
        for step in self.steps:
            parity_update(odd, times_monomial(step.multiplier,
                                              step.relation.element))
        return QPoly(self.start.m, frozenset(odd))

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
    factors = sorted(term.traces, key=subset_key, reverse=True)
    first, second = factors[0], factors[1]
    rest = list(term.traces)
    rest.remove(first)
    rest.remove(second)
    return first, second, tuple(rest)


class _Largest:
    """Heap entry for a term; the term largest under ``qmon_key`` pops
    first from a ``heapq`` min-heap."""

    __slots__ = ("key", "term")

    def __init__(self, term: QMon):
        self.key = qmon_key(term)
        self.term = term

    def __lt__(self, other: "_Largest") -> bool:
        return self.key > other.key


def normal_form(q: QPoly) -> ReductionTrace:
    """Rewrite until every term has at most one trace factor.

    Each pass reduces the largest offending term.  The logged
    ``measure`` sequence is non-increasing, and the rewrite of a term
    strictly shrinks the pair (trace degree, m * trace degree - sum of
    squared factor sizes) for each replacement term, which is what makes
    any schedule terminate.

    The element is kept as a mutable term set, and the terms with two or
    more traces in a max-heap.  A term is pushed whenever it enters the
    set; an entry whose term has since left the set is skipped when it
    pops.  Every term in the set thus has an entry, so the first live
    entry to pop is the largest offending term (``qmon_key`` is a total
    order).
    """
    terms = set(q.terms)
    heap = [_Largest(t) for t in terms if len(t.traces) >= 2]
    heapq.heapify(heap)
    steps: list[ReductionStep] = []
    last_measure: tuple[int, int] | None = None
    while heap:
        entry = heapq.heappop(heap)
        term = entry.term
        if term not in terms:
            continue
        first, second, rest = _split_two_largest(term)
        relation = type_iii_relation(first, second)
        # rest keeps the canonical trace order of term, so make_qmon's
        # checks would add nothing
        multiplier = QMon(term.xe, term.ne, rest)
        for t in times_monomial(multiplier, relation.element):
            if t in terms:
                terms.remove(t)
            else:
                terms.add(t)
                if len(t.traces) >= 2:
                    heapq.heappush(heap, _Largest(t))
        if term in terms:
            raise RuntimeError(
                f"normal_form step left its term {QPoly.monomial(term)}")
        measure = entry.key[:2]
        if last_measure is not None and measure > last_measure:
            raise RuntimeError(
                f"normal_form measure rose from {last_measure} to {measure}")
        last_measure = measure
        steps.append(ReductionStep(term, relation, multiplier, measure))
    return ReductionTrace(start=q, result=QPoly(q.m, frozenset(terms)),
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


def _lead_achievers(h: QPoly) -> tuple[Monomial, list[QMon]]:
    best: Monomial | None = None
    best_key = None
    achievers: list[QMon] = []
    for term in h.terms:
        mono = summand_lead(term)
        key = monomial_key(mono)
        if best is None or key > best_key:
            best, best_key, achievers = mono, key, [term]
        elif key == best_key:
            achievers.append(term)
    if best is None:
        raise ZeroPolynomialError("zero element has no lead achievers")
    return best, achievers


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

    def combination(self) -> QPoly:
        odd: set = set()
        for subset, coefficient in self.coefficients.items():
            element = type_i_relation(subset).element
            for mon in coefficient.terms:
                parity_update(odd, times_monomial(mon, element))
        return QPoly(self.start.m, frozenset(odd))

    def verify(self) -> bool:
        return self.combination() == self.start

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
    relation elements it applied."""
    m = h.m
    coefficients: dict[Subset, QPoly] = {}
    steps: list[LinearStep] = []
    applied: set[QPoly] = set()
    current = h
    last_rank = None
    while current.terms:
        lead, achievers = _lead_achievers(current)
        with_trace = [t for t in achievers if t.traces]
        # A trace-free term has all even y-exponents in its summand lead
        # and no other term shares that lead, so it can never top a
        # combination that evaluates to zero.
        if len(with_trace) != len(achievers) or len(with_trace) < 2:
            raise NotARelationError(
                "descent stalled at " + monomial_text(lead)
                + f" with {len(achievers)} achieving term(s)")
        with_trace.sort(key=lambda t: (t.traces[0], t.xe))
        first, second = with_trace[0], with_trace[1]
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
        current = QPoly(m, current.terms.symmetric_difference(
            times_monomial(multiplier, element)))
        coefficients[subset] = (coefficients.get(subset, QPoly.zero(m))
                                + QPoly.monomial(multiplier))
        rank = (monomial_key(lead), len(achievers))
        if last_rank is not None and rank >= last_rank:
            raise RuntimeError(
                "descent did not fall at " + monomial_text(lead))
        last_rank = rank
        steps.append(LinearStep(subset, multiplier, lead, len(achievers)))
    coefficients = {a: c for a, c in coefficients.items() if c.terms}
    return (LinearCertificate(start=h, coefficients=coefficients,
                              steps=tuple(steps)), applied)
