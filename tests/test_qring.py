"""Formal generator symbols, their grading, and the evaluation map
that substitutes the concrete invariant polynomials."""

import random
from functools import reduce
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecinv2.invariants import norm, transfer
from vecinv2.poly import (
    DimensionMismatch,
    Poly,
    ZeroPolynomialError,
    all_subsets,
    singleton,
)
from vecinv2 import qring
from vecinv2.qring import (
    QMon,
    QPoly,
    block_images,
    evaluate,
    formal_trace,
    make_qmon,
    multidegree,
    qmon_degree,
    qmon_key,
    qmon_trace_degree,
    times_monomial,
    vanishes,
)
from vecinv2.oracle import kernel_basis
from vecinv2.relations import relation_basis, type_i_relation

from conftest import (
    n_power,
    random_qmon,
    random_qpoly,
    reference_image,
    term_reference,
)


# ---------------------------------------------------------------------------
# monomial construction and grading
# ---------------------------------------------------------------------------

def test_make_qmon_normalizes_trace_order():
    t = make_qmon((0, 0, 0), (0, 0, 0), [(0, 1, 1), (1, 1, 0)])
    assert t.traces == ((1, 1, 0), (0, 1, 1))
    # idempotent under re-sorting, order of input irrelevant
    s = make_qmon((0, 0, 0), (0, 0, 0), [(1, 1, 0), (0, 1, 1)])
    assert s == t


def test_make_qmon_validation():
    with pytest.raises(ValueError):
        make_qmon((0, 0), (0, 0), [(1, 0)])  # singleton trace symbol
    with pytest.raises(ValueError):
        make_qmon((0, 0), (0, 0), [(0, 0)])
    with pytest.raises(DimensionMismatch):
        make_qmon((0, 0), (0,), [])
    with pytest.raises(DimensionMismatch):
        make_qmon((0, 0), (0, 0), [(1, 1, 0)])
    with pytest.raises(ValueError):
        make_qmon((0, 0), (-1, 0), ())  # negative exponent
    with pytest.raises(ValueError):
        make_qmon((0, 0), (0, 0), [(2, 0)])  # not a 0/1 subset


def test_grading_goldens():
    # x weighs 1, N weighs 2, Tr(A) weighs |A|
    t = make_qmon((1, 0, 0), (0, 1, 0), [(1, 1, 1), (1, 1, 0)])
    assert qmon_degree(t) == 1 + 2 + 3 + 2
    assert qmon_trace_degree(t) == 5

    product = QPoly.trace_symbol((1, 1, 1)) * QPoly.trace_symbol((1, 1, 0))
    assert product.degree() == 5
    assert [qmon_trace_degree(t) for t in product.terms] == [5]

    q = QPoly.x_power((1, 0)) * n_power((0, 1))
    assert q.degree() == 3
    assert [qmon_trace_degree(t) for t in q.terms] == [0]

    cubed = QPoly.x_power((3, 0)) * n_power((0, 1))
    assert cubed.degree() == 5
    assert [qmon_trace_degree(t) for t in cubed.terms] == [0]


def test_degree_of_mixed_and_zero():
    mixed = QPoly.x_power((1, 0)) + n_power((1, 0))
    assert mixed.degree() is None
    with pytest.raises(ZeroPolynomialError):
        QPoly.zero(2).degree()


def test_trace_linearity_predicate():
    assert QPoly.zero(2).is_trace_linear()
    assert QPoly.x_power((1, 1)).is_trace_linear()
    assert QPoly.trace_symbol((1, 1)).is_trace_linear()
    square = QPoly.trace_symbol((1, 1)) * QPoly.trace_symbol((1, 1))
    assert not square.is_trace_linear()


def test_formal_trace_degenerate_cases():
    assert formal_trace((0, 0)) == QPoly.zero(2)
    assert formal_trace((0, 1)) == QPoly.x_power((0, 1))
    assert formal_trace((1, 1)) == QPoly.trace_symbol((1, 1))


def test_qmon_key_is_graded():
    small = make_qmon((1, 0), (0, 0), ())
    big = make_qmon((0, 0), (1, 0), ())
    assert qmon_key(big) > qmon_key(small)
    # same degree: trace weight dominates
    tr = make_qmon((0, 0), (0, 0), [(1, 1)])
    nn = make_qmon((0, 0), (1, 0), ())
    assert qmon_key(tr) > qmon_key(nn)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_goldens():
    assert evaluate(QPoly.trace_symbol((1, 1))) == transfer((1, 1))
    assert evaluate(n_power((1, 0))) == norm(2, 0)
    assert evaluate(QPoly.zero(3)) == Poly.zero(3)
    assert evaluate(QPoly.parse(3, "1")) == Poly.parse(3, "1")
    assert evaluate(QPoly.x_power((2, 1))) == Poly.parse(2, "x1^2*x2")


def test_evaluate_norm_powers():
    # N^2 must expand through the concrete polynomial, not termwise
    n = n_power((2,))
    expected = norm(1, 0) * norm(1, 0)
    assert evaluate(n) == expected
    n3 = n_power((3,))
    assert evaluate(n3) == norm(1, 0) * norm(1, 0) * norm(1, 0)


@st.composite
def qterms_of_degree(draw, m: int, degree: int):
    """A monomial of the given degree, grown from random x, N and trace
    factors until the degree is used up."""
    xe, ne, traces = [0] * m, [0] * m, []
    pieces = [("x", i, 1) for i in range(m)] + [("N", i, 2) for i in range(m)]
    pieces += [("Tr", a, sum(a)) for a in all_subsets(m, min_size=2)]
    left = degree
    while left:
        kind, what, weight = draw(st.sampled_from(
            [p for p in pieces if p[2] <= left]))
        if kind == "x":
            xe[what] += 1
        elif kind == "N":
            ne[what] += 1
        else:
            traces.append(what)
        left -= weight
    return make_qmon(xe, ne, traces)


# degrees 1, 2**k - 1 and 2**k: a block radix alpha_i + 1, or the bits
# of a norm exponent, at a power of two and just below it
EDGE_DEGREES = (0, 1, 2, 3, 4, 7, 8, 9, 15, 16)


@st.composite
def qpolys_for_evaluation(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    degrees = draw(st.lists(st.sampled_from(EDGE_DEGREES), max_size=4))
    return QPoly.from_terms(
        m, [draw(qterms_of_degree(m, d)) for d in degrees])


@given(qpolys_for_evaluation())
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_generator_products(q):
    assert evaluate(q) == reference_image(q)


@st.composite
def qpolys_sharing_norms(draw):
    """Elements whose terms fall into one or two norm-exponent groups,
    plus a multiple of some of a type I relation's terms: the images of
    those terms overlap, so they cancel inside their group (all of them,
    when every term of the relation is kept)."""
    m = draw(st.integers(min_value=3, max_value=4))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * m)
    norms = draw(st.lists(exponents, min_size=1, max_size=2))
    q = QPoly.zero(m)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        t = draw(qterms_of_degree(m, draw(st.integers(min_value=0, max_value=4))))
        ne = draw(st.sampled_from(norms))
        q = q + QPoly.monomial(
            make_qmon(t.xe, map(sum, zip(t.ne, ne)), t.traces))
    relation = type_i_relation(draw(st.sampled_from(
        all_subsets(m, min_size=3)))).element
    kept = draw(st.lists(st.sampled_from(sorted(relation.terms, key=qmon_key)),
                         unique=True))
    scale = (n_power(draw(st.sampled_from(norms)))
             * QPoly.x_power(draw(st.tuples(*[st.integers(0, 1)] * m))))
    return q + scale * QPoly.from_terms(m, kept)


@given(qpolys_sharing_norms())
@settings(max_examples=100, deadline=None)
def test_grouped_evaluation_matches_termwise(q):
    termwise = Poly.zero(q.m)
    for t in q.terms:
        termwise = termwise + evaluate(QPoly.monomial(t))
    assert evaluate(q) == termwise == reference_image(q)


def test_grouped_evaluation_edge_cases():
    # the empty element, and elements whose terms all have J = 0
    for m in (1, 3):
        assert evaluate(QPoly.zero(m)) == Poly.zero(m)
    assert qring.block_sums(QPoly.zero(2)) == {}
    relation = type_i_relation((1, 1, 1)).element
    assert evaluate(relation) == Poly.zero(3)
    partial = QPoly.parse(3, "x3*Tr(110) + x2*Tr(101) + x1*x2*x3")
    assert evaluate(partial) == reference_image(partial) != Poly.zero(3)


def test_evaluate_at_field_width_edges():
    # one exponent at 2**k - 1 or 2**k, multi-trace terms, and a
    # lower-degree term that makes the element mixed
    for d in (1, 3, 4, 7, 8, 15, 16):
        x = QPoly.x_power((d, 0, 0))
        n = QPoly.x_power((0, d % 2, 0)) * n_power((0, d // 2, 0))
        tr = QPoly.x_power((0, 0, d % 2))
        for _ in range(d // 2):
            tr = tr * QPoly.trace_symbol((1, 1, 0))
        q = x + n + tr + QPoly.parse(3, "1")
        assert len(q) == 4 and q.degree() is None
        assert {qmon_degree(t) for t in q.terms} == {0, d}
        assert evaluate(q) == reference_image(q)
        assert evaluate(tr) == reference_image(tr)


def test_evaluate_is_a_homomorphism():
    rng = random.Random(777)
    for _ in range(1000):
        m = rng.randrange(1, 5)
        q = random_qpoly(rng, m, max_terms=3, max_trace_degree=6)
        r = random_qpoly(rng, m, max_terms=3, max_trace_degree=6)
        assert evaluate(q + r) == evaluate(q) + evaluate(r)
        assert evaluate(q * r) == evaluate(q) * evaluate(r)


def test_evaluate_respects_grading():
    rng = random.Random(13331)
    for _ in range(300):
        m = rng.randrange(1, 5)
        q = random_qpoly(rng, m)
        if not q or q.degree() is None:
            continue
        img = evaluate(q)
        if img:
            assert {sum(t) for t in img.terms} == {q.degree()}


def test_vanishes_matches_evaluate_on_random_elements():
    # random_qpoly mixes term degrees and multidegrees, so most
    # elements have several blocks
    rng = random.Random(4242)
    mixed = 0
    for _ in range(400):
        m = rng.randrange(1, 5)
        q = random_qpoly(rng, m, max_terms=5, max_trace_degree=8)
        mixed += bool(q) and q.degree() is None
        assert vanishes(q) == (not evaluate(q))
    assert mixed > 100
    for m in (1, 3):
        assert vanishes(QPoly.zero(m))


def test_vanishes_on_kernel_members_and_near_misses():
    rng = random.Random(977)
    checked = 0
    for d in range(2, 7):
        for k in kernel_basis(3, d):
            assert vanishes(k) and not evaluate(k)
            off = k + QPoly.monomial(random_qmon(rng, 3, max_trace_degree=d))
            # every monomial has a nonzero image, so the sum never vanishes
            assert not vanishes(off) and evaluate(off)
            checked += 1
    assert checked == 0 + 1 + 9 + 30 + 93


def _decoded(m, alpha, term):
    """The polynomial the block image of ``term`` of block alpha stands
    for, its set bits read one mixed-radix digit b_i at a time as
    x^(alpha-b) y^b, digit i below R_(i+1) / R_i."""
    radices, (image,) = block_images(alpha, [term])
    found = []
    for bit in range(image.bit_length()):
        if image >> bit & 1:
            ys = []
            for r, above in zip(radices, radices[1:] + (None,)):
                ys.append(bit // r if above is None else bit % above // r)
            found.append(tuple(e for y, a in zip(ys, alpha)
                               for e in (y, a - y)))
    return Poly(m, frozenset(found))


def test_generator_block_images_decode_to_the_invariants():
    for m in range(1, 7):
        zero = (0,) * m
        for i in range(m):
            unit = singleton(m, i)
            double = tuple(2 * u for u in unit)
            x, n = QMon(unit, zero, ()), QMon(zero, unit, ())
            assert multidegree(x) == unit and multidegree(n) == double
            assert _decoded(m, unit, x) == Poly.x_variable(m, i)
            assert _decoded(m, double, n) == norm(m, i)
        for a in all_subsets(m, min_size=2):
            t = QMon(zero, zero, (a,))
            assert multidegree(t) == a
            assert _decoded(m, a, t) == transfer(a), a


def test_block_images_skip_the_x_exponents():
    # x^I Tr(1^m) with I_i = 100 reaches y_i at most once, so its
    # block int has 2^m bits at most, not prod (alpha_i + 1) = 102^m
    for m in (2, 5, 7):
        hundreds, zero, whole = (100,) * m, (0,) * m, (1,) * m
        t = QMon(hundreds, zero, (whole,))
        alpha = multidegree(t)
        radices, (image,) = block_images(alpha, [t])
        assert radices == tuple(2 ** i for i in range(m))
        assert image.bit_length() <= 2 ** m
        q = QPoly.monomial(t)
        x_part = Poly.monomial(m, tuple(e for x in hundreds for e in (0, x)))
        assert evaluate(q) == x_part * transfer(whole)
        assert not vanishes(q)
        assert vanishes(q + q) and evaluate(q + q) == Poly.zero(m)


def test_relations_vanish_and_their_one_term_mutants_do_not():
    # a relation without one of its terms t has the image of t, which
    # is never zero; the reference sums Poly products of the generators
    mutants = 0
    for m in range(2, 6):
        for flavor in ("II", "III"):
            for relation in relation_basis(m, flavor):
                terms = relation.element.terms
                assert vanishes(relation.element)
                assert reduce(add, map(term_reference, terms)) == Poly.zero(m)
                for t in terms:
                    mutant = QPoly(m, terms - {t})
                    assert not vanishes(mutant)
                    assert evaluate(mutant) == term_reference(t) \
                        != Poly.zero(m)
                    mutants += 1
    assert mutants == 4 + 4 + 45 + 41 + 340 + 260 + 2223 + 1325


def test_two_block_element_vanishes_iff_both_parts_do():
    # parts of one multidegree each: the relations at m = 3, each less
    # its largest term, and the single symbols, among which x1, x2 and
    # x3 have the same block int in three blocks (so do N1, N2 and N3)
    m, zero = 3, (0, 0, 0)
    parts = []
    for relation in relation_basis(m):
        parts.append(relation.element)
        top = max(relation.element.terms, key=qmon_key)
        parts.append(QPoly(m, relation.element.terms - {top}))
    for i in range(m):
        unit = singleton(m, i)
        parts += [QPoly.monomial(QMon(unit, zero, ())),
                  QPoly.monomial(QMon(zero, unit, ()))]
    assert len({block_images(singleton(m, i),
                             [QMon(singleton(m, i), zero, ())])[1][0]
                for i in range(m)}) == 1
    pairs = 0
    for p, q in combinations(parts, 2):
        (alpha,), (beta,) = ({multidegree(t) for t in r.terms} for r in (p, q))
        if alpha != beta:
            assert vanishes(p + q) == (vanishes(p) and vanishes(q)), (p, q)
            assert vanishes(p + q) == (not reference_image(p + q))
            pairs += 1
    assert pairs > 300


def _product_by_make_qmon(mon, q):
    """mon * q term by term through make_qmon, which sorts and checks
    each product itself; a reference that shares no code with
    times_monomial, on which QPoly.__mul__ is built."""
    return QPoly.from_terms(q.m, (
        make_qmon([a + b for a, b in zip(mon.xe, t.xe)],
                  [a + b for a, b in zip(mon.ne, t.ne)],
                  mon.traces + t.traces)
        for t in q.terms))


def test_times_monomial_matches_the_product():
    rng = random.Random(8191)
    with_traces = without = 0
    for _ in range(400):
        m = rng.randrange(1, 5)
        mon = random_qmon(rng, m, max_trace_degree=6)
        q = random_qpoly(rng, m, max_terms=5, max_trace_degree=6)
        terms = times_monomial(mon, q)
        assert len(set(terms)) == len(terms) == len(q)
        product = QPoly(m, frozenset(terms))
        assert product == QPoly.monomial(mon) * q
        assert product == _product_by_make_qmon(mon, q)
        assert evaluate(product) == evaluate(QPoly.monomial(mon)) * evaluate(q)
        with_traces += bool(mon.traces)
        without += not mon.traces
    assert with_traces > 50 and without > 50


def test_times_monomial_keeps_trace_order_and_width():
    mon = make_qmon((1, 0, 0), (0, 0, 1), [(1, 1, 0)])
    q = QPoly.parse(3, "Tr(111)*Tr(011) + x2 + Tr(101)")
    terms = times_monomial(mon, q)
    assert all(t.traces == tuple(sorted(t.traces, reverse=True))
               for t in terms)
    assert str(QPoly(3, frozenset(terms))) == (
        "x1*N3*Tr(111)*Tr(110)*Tr(011) + x1*N3*Tr(110)*Tr(101)"
        " + x1*x2*N3*Tr(110)")
    assert times_monomial(mon, QPoly.zero(3)) == []
    with pytest.raises(DimensionMismatch):
        times_monomial(mon, QPoly.parse(2, "x1"))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_str_golden():
    t = make_qmon((2, 0, 0), (0, 1, 0), [(1, 1, 0), (0, 1, 1)])
    q = QPoly.monomial(t)
    assert str(q) == "x1^2*N2*Tr(110)*Tr(011)"
    assert str(QPoly.zero(2)) == "0"
    assert str(QPoly.monomial(make_qmon((0, 0), (0, 0), ()))) == "1"


def test_parse_round_trip_goldens():
    for text in (
        "x1^2*N2*Tr(110)*Tr(011)",
        "Tr(11)^2 + x1*x2*Tr(11) + x2^2*N1 + x1^2*N2",
        "x1 + N1 + Tr(11)",
        "0",
        "1",
    ):
        m = 3 if "110" in text else 2
        q = QPoly.parse(m, text)
        assert str(QPoly.parse(m, str(q))) == str(q)
    assert QPoly.parse(2, "Tr(11)*Tr(11)") == (
        QPoly.trace_symbol((1, 1)) * QPoly.trace_symbol((1, 1)))


def test_parse_round_trip_random():
    rng = random.Random(4242)
    for _ in range(300):
        m = rng.randrange(1, 5)
        q = random_qpoly(rng, m)
        assert QPoly.parse(m, str(q)) == q


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QPoly.parse(2, "Tr(1)")  # singleton symbol is not storable
    with pytest.raises(ValueError):
        QPoly.parse(2, "Tr(111)")  # wrong width
    with pytest.raises(ValueError):
        QPoly.parse(2, "w1")
    with pytest.raises(ValueError):
        QPoly.parse(2, "x1 + + x2")


def test_mixed_width_rejected():
    with pytest.raises(DimensionMismatch):
        QPoly.parse(2, "1") + QPoly.parse(3, "1")
    with pytest.raises(DimensionMismatch):
        QPoly.from_terms(3, [make_qmon((0, 0), (0, 0), ())])
