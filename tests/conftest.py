"""Shared helpers: seeded random elements of the polynomial and
presentation rings, sized to keep the property tests fast, and the
references the tests check the library against."""

import heapq
import inspect
import random
from collections import Counter
from functools import cache, reduce
from itertools import combinations
from operator import add

import pytest

from vecinv2 import oracle, relations, rewrite, series
from vecinv2.blocks import (
    RelationSpans,
    _factors,
    multidegrees,
    relation_block,
)
from vecinv2.invariants import generator_set
from vecinv2.poly import (
    DimensionMismatch,
    Poly,
    ZeroPolynomialError,
    all_subsets,
    int_submasks,
    min_index,
    monomial_key,
    parity_update,
    singleton,
    subset_key,
    union,
)
from vecinv2.qring import (
    QMon,
    QPoly,
    make_qmon,
    multidegree,
    qmon_key,
    summand_lead,
    times_monomial,
)
from vecinv2.relations import Relation


@pytest.fixture(autouse=True)
def _cold_width_memos():
    """Each test starts from cleared per-width verdicts and series
    tables, as a process does, so a check a test patches is run, not
    read from a memo that an earlier test filled."""
    oracle._width_leads.cache_clear()
    oracle._shapes_hold.cache_clear()
    series._tables.clear()


def replace(record, **changes):
    """A copy of ``record`` with the named fields changed, rebuilt through
    its class's constructor; the tests forge records with it."""
    fields = inspect.signature(type(record)).parameters
    unknown = set(changes) - set(fields)
    if unknown:
        raise TypeError(f"no fields {sorted(unknown)} in {type(record)}")
    return type(record)(**{name: changes.get(name, getattr(record, name))
                           for name in fields})


# The subset calculus on 0/1 tuples that the reference builders of the
# tests use; the library's constructors work on int masks instead.

def _check_same_width(a, b) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"subset widths differ: {len(a)} vs {len(b)}")


def intersect(a, b):
    _check_same_width(a, b)
    return tuple(u & v for u, v in zip(a, b))


def setminus(a, b):
    _check_same_width(a, b)
    return tuple(u & (1 - v) for u, v in zip(a, b))


def is_subset_of(a, b) -> bool:
    _check_same_width(a, b)
    return all(u <= v for u, v in zip(a, b))


def is_disjoint(a, b) -> bool:
    _check_same_width(a, b)
    return all(u & v == 0 for u, v in zip(a, b))


def drop_min(a):
    """The subset with its least member removed."""
    i = min_index(a)
    return a[:i] + (0,) + a[i + 1:]


def involution(f: Poly) -> Poly:
    """Apply the nontrivial algebra map: x_i -> x_i, y_i -> y_i + x_i,
    which sends each term x^b y^a to x^b prod_i (y_i + x_i)^a_i, built
    as ``Poly`` products: the reference the library's shift-XOR form
    is checked against, sharing no code with it."""
    m = f.m
    shifted = [Poly.y_variable(m, i) + Poly.x_variable(m, i)
               for i in range(m)]
    image = Poly.zero(m)
    for mono in f.terms:
        term = x_y_power(mono[1::2], (0,) * m)
        for factor, a in zip(shifted, mono[0::2]):
            for _ in range(a):
                term = term * factor
        image = image + term
    return image


def x_y_power(xs, ys) -> Poly:
    """The monomial x^xs y^ys, one exponent of each per variable pair."""
    return Poly.monomial(len(xs), tuple(e for y, x in zip(ys, xs)
                                        for e in (y, x)))


def y_power(a) -> Poly:
    return x_y_power((0,) * len(a), a)


def random_monomial(rng: random.Random, m: int, max_degree: int = 6):
    exps = [0] * (2 * m)
    degree = rng.randrange(max_degree + 1)
    for _ in range(degree):
        exps[rng.randrange(2 * m)] += 1
    return tuple(exps)


def random_poly(rng: random.Random, m: int, max_terms: int = 4,
                max_degree: int = 6) -> Poly:
    monos = [random_monomial(rng, m, max_degree)
             for _ in range(rng.randrange(max_terms + 1))]
    return Poly.from_terms(m, monos)


def n_power(exps) -> QPoly:
    """The presentation-ring monomial N^exps."""
    return QPoly.monomial(make_qmon((0,) * len(exps), exps, ()))


def random_qmon(rng: random.Random, m: int, max_trace_degree: int = 8,
                max_exp: int = 2):
    traces = []
    pool = all_subsets(m, min_size=2)
    budget = max_trace_degree
    while pool and budget >= 2 and rng.random() < 0.6:
        choice = rng.choice(pool)
        if sum(choice) > budget:
            break
        traces.append(choice)
        budget -= sum(choice)
    xe = tuple(rng.randrange(max_exp + 1) for _ in range(m))
    ne = tuple(rng.randrange(max_exp + 1) for _ in range(m))
    return make_qmon(xe, ne, traces)


def random_qpoly(rng: random.Random, m: int, max_terms: int = 4,
                 max_trace_degree: int = 8) -> QPoly:
    terms = [random_qmon(rng, m, max_trace_degree)
             for _ in range(rng.randrange(max_terms + 1))]
    return QPoly.from_terms(m, terms)


@cache
def _generators(m: int):
    return generator_set(m)


@cache
def term_reference(t: QMon) -> Poly:
    """The image of the presentation monomial t as a Poly product of
    the generator polynomials, one factor taken off per call; shares
    no code with the block-image kernel in ``qring``."""
    m = len(t.xe)
    gens = _generators(m)
    if t.traces:
        rest = t._replace(traces=t.traces[1:])
        return term_reference(rest) * gens.traces[t.traces[0]]
    for field, factors in (("ne", gens.norms), ("xe", gens.xs)):
        exps = getattr(t, field)
        for i, e in enumerate(exps):
            if e:
                lower = exps[:i] + (e - 1,) + exps[i + 1:]
                return term_reference(t._replace(**{field: lower})) * factors[i]
    return Poly.parse(m, "1")


def reference_image(q: QPoly) -> Poly:
    """The image of q, summed term by term from ``term_reference``."""
    return reduce(add, map(term_reference, q.terms), Poly.zero(q.m))


def max_relation_degree(m: int, budget: int = oracle.DEFAULT_BUDGET) -> int:
    """Largest degree whose kernel is not spanned by lower-degree kernel
    elements; the search stops one past twice the number of pairs.  It
    assumes no relation family, so it is the reference the declared
    families' top degree 2m is checked against.  It reaches the oracle
    through its module, so the tests' monkeypatches of it apply.

    Multiples of kernel elements lie in the kernel, so the span of the
    lower-degree generators falls short exactly when its rank is below
    the kernel's dimension; ranks decide each degree.  Only where the
    span falls short is a kernel basis built, and only the members the
    span misses become generators, so the generators found form a
    minimal generating set.  Every multiple of a lower-degree kernel
    element is a combination of multiples of these generators, so the
    next degree's span needs no other rows."""
    if m < 1:
        raise ValueError(
            f"max_relation_degree wants m >= 1 variable pairs, got {m}")
    if budget < 1:
        raise ValueError(
            f"max_relation_degree wants a positive budget, got {budget}")
    top = 0
    degrees: Counter = Counter()
    spans = RelationSpans(m)
    for d in range(2, 2 * m + 2):
        kernel_dimension = (oracle._q_count(m, d)
                            - oracle.evaluation_rank(m, d, budget))
        oracle._charge_span(m, d, degrees, budget)
        if spans.rank(d) < kernel_dimension:
            for member in spans.missing(d, oracle.kernel_basis(m, d, budget)):
                spans.add(degrees.total(),
                          relation_block(d, multidegrees(member)), member)
                degrees[d] += 1
            top = d
    return top


def degree_leads_hold(m: int, d: int) -> bool:
    """The generator-lead check on every generator of degree d at width
    m, x_i, N_i and each Tr(A) with |A| = d, one subset at a time: the
    reference for ``oracle._width_leads``, which reads the full-support
    generators alone.  Its lead is its block int's top bit decoded, and
    ``involution_fixes`` tells whether it is invariant.  It reaches the
    oracle through its module, so the tests' monkeypatches apply."""
    zero = (0,) * m
    units = [singleton(m, i) for i in range(m)]
    generators = [QMon(zero, zero, (a,))
                  for a in all_subsets(m, min_size=2) if sum(a) == d]
    if d == 1:
        generators += [QMon(u, zero, ()) for u in units]
    elif d == 2:
        generators += [QMon(zero, u, ()) for u in units]
    for g in generators:
        alpha = multidegree(g)
        radices, (image,) = oracle.block_images(alpha, [g])
        if (not image
                or oracle.bit_monomial(alpha, radices, image.bit_length() - 1)
                != oracle.summand_lead(g)
                or not oracle.involution_fixes(image, radices)):
            return False
    return True


def generator_leads_hold(m: int, d: int) -> bool:
    """``oracle._generator_leads_hold`` by ``degree_leads_hold``: every
    degree up to the lesser of d and max(m, 2), the highest degree of a
    generator."""
    return all(degree_leads_hold(m, k)
               for k in range(1, min(d, max(m, 2)) + 1))


def every_shape_core(k: int, d: int, flavor: str = "III"):
    """Every member of degree d of ``relation_basis(k, flavor)`` whose
    defining sets cover all k pairs, as ``shapes.shape_cores`` gives the
    representatives of their size classes: type I on C = [k] when
    d = k >= 3, and one quadratic per set S of d - k pairs in both A and
    B and submask T of the rest R, with A = S | T, B = S | (R - T),
    |A|, |B| >= 2 and A the larger by (cardinality, mask).  The
    exhaustive reference for the class lister, about 3^k shapes per
    width.  The cores are looked up when called, so monkeypatches of
    them apply."""
    relations._check_family(k, flavor)
    full = int.from_bytes(bytes([1]) * k, "big")
    if d == k >= 3:
        c = 1 << 8 * (k - 1)
        yield full, (c, 0, (full ^ c,)), relations._core_i(full)
    for both in combinations(range(k), d - k) if k <= d <= 2 * k else ():
        s = sum(1 << 8 * (k - 1 - i) for i in both)
        rest = full ^ s
        for t in int_submasks(rest):
            a, b = s | t, s | (rest ^ t)
            if (min(a.bit_count(), b.bit_count()) >= 2
                    and (a.bit_count(), a) >= (b.bit_count(), b)):
                yield full + s, (0, 0, (max(a, b), min(a, b))), (
                    relations._core_ii(a, b) if flavor == "II"
                    else relations._core_iii(a, b)[-1])


def relation_shapes(k: int, d: int, flavor: str = "III"):
    """The shapes ``every_shape_core`` lists, each built by its public
    constructor on the sets its table lead names: type I on C = [k] for
    a lead x_0 Tr(C - {0}), and the quadratic on A and B, the larger by
    (cardinality, bits) first, for a lead Tr(A)Tr(B).  The constructors
    are looked up when called, so monkeypatches of the cores apply."""
    def members(mask):
        return tuple(mask.to_bytes(k, "big"))

    for _, (x, _, traces), _ in every_shape_core(k, d, flavor):
        if x:
            yield relations._type_i(members(x | traces[0]))
        else:
            a, b = sorted(traces, key=lambda t: (t.bit_count(), t),
                          reverse=True)
            build = (relations.type_ii_relation if flavor == "II"
                     else relations._type_iii)
            yield build(members(a), members(b))


def shape_leads_hold(relation: Relation) -> bool:
    """The shape check on a built relation, the reference for
    ``shapes.shape_holds``: ``RelationSpans._lead`` of a relation whose
    sets cover its k pairs is the table's, Tr(A)Tr(B) for a quadratic
    and x_0 Tr(C - {0}) for type I on C = [k], and every term is a
    product of two generators or more."""
    zero = (0,) * len(relation.a)
    if relation.b is None:
        lead = QMon((1,) + zero[1:], zero, ((0,) + relation.a[1:],))
    else:
        lead = QMon(zero, zero,
                    tuple(sorted((relation.a, relation.b), reverse=True)))
    return (RelationSpans._lead(relation.element) == lead
            and min(map(_factors, relation.element.terms)) >= 2)


# The rewrite loops on ``QMon`` tuples that ``rewrite`` ran before its
# packed keys, kept as the reference the packed loops are checked
# against: each product by a monomial is ``qring.times_monomial``, terms
# are ordered by ``qmon_key`` and summand leads by ``poly.monomial_key``.
# The relations are looked up through module ``rewrite`` when called, so
# monkeypatches of them apply.

class _Largest:
    """Heap entry for a term; the term largest under ``qmon_key`` pops
    first from a ``heapq`` min-heap."""

    __slots__ = ("key", "term")

    def __init__(self, term: QMon):
        self.key = qmon_key(term)
        self.term = term

    def __lt__(self, other: "_Largest") -> bool:
        return self.key > other.key


def reference_normal_form(q: QPoly) -> rewrite.ReductionTrace:
    """``rewrite.normal_form`` on tuples: the largest term with two
    traces or more pops from a heap and is rewritten by the type III
    relation on its two largest traces, the rest of the term as the
    multiplier."""
    terms = set(q.terms)
    heap = [_Largest(t) for t in terms if len(t.traces) >= 2]
    heapq.heapify(heap)
    steps = []
    while heap:
        entry = heapq.heappop(heap)
        term = entry.term
        if term not in terms:
            continue
        factors = sorted(term.traces, key=subset_key, reverse=True)
        rest = list(term.traces)
        rest.remove(factors[0])
        rest.remove(factors[1])
        relation = rewrite.type_iii_relation(factors[0], factors[1])
        multiplier = QMon(term.xe, term.ne, tuple(rest))
        for t in times_monomial(multiplier, relation.element):
            if t in terms:
                terms.remove(t)
            else:
                terms.add(t)
                if len(t.traces) >= 2:
                    heapq.heappush(heap, _Largest(t))
        steps.append(rewrite.ReductionStep(term, relation, multiplier,
                                           entry.key[:2]))
    return rewrite.ReductionTrace(start=q, result=QPoly(q.m, frozenset(terms)),
                                  steps=tuple(steps))


def reference_replay(trace: rewrite.ReductionTrace) -> QPoly:
    """``ReductionTrace.replay`` on tuples."""
    odd = set(trace.start.terms)
    for step in trace.steps:
        parity_update(odd, times_monomial(step.multiplier,
                                          step.relation.element))
    return QPoly(trace.start.m, frozenset(odd))


def lead_achievers(h: QPoly):
    """The largest summand lead of the terms of ``h``, and the terms
    that reach it."""
    best, best_key, achievers = None, None, []
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


def reference_descend(h: QPoly):
    """``rewrite._descend`` on tuples, for an element the descent
    certifies: its certificate, and the relation elements it applied."""
    m = h.m
    coefficients, steps, applied = {}, [], set()
    current = h
    while current.terms:
        lead, achievers = lead_achievers(current)
        first, second = sorted(achievers,
                               key=lambda t: (t.traces[0], t.xe))[:2]
        other = min_index(second.traces[0])
        subset = union(first.traces[0], singleton(m, other))
        xe = list(first.xe)
        xe[other] -= 1
        multiplier = QMon(tuple(xe), first.ne, ())
        element = rewrite.type_i_relation(subset).element
        applied.add(element)
        current = QPoly(m, current.terms.symmetric_difference(
            times_monomial(multiplier, element)))
        coefficients[subset] = (coefficients.get(subset, QPoly.zero(m))
                                + QPoly.monomial(multiplier))
        steps.append(rewrite.LinearStep(subset, multiplier, lead,
                                        len(achievers)))
    return (rewrite.LinearCertificate(
        start=h, coefficients={a: c for a, c in coefficients.items()
                               if c.terms},
        steps=tuple(steps)), applied)


def reference_combination(certificate: rewrite.LinearCertificate) -> QPoly:
    """``LinearCertificate.combination`` on tuples."""
    odd: set = set()
    for subset, coefficient in certificate.coefficients.items():
        element = rewrite.type_i_relation(subset).element
        for mon in coefficient.terms:
            parity_update(odd, times_monomial(mon, element))
    return QPoly(certificate.start.m, frozenset(odd))
