"""Degree-by-degree linear-algebra checks: monomial enumeration, the
kernel of evaluation, and generation/minimality of the relation basis."""

import json
from collections import Counter, deque
from math import comb, prod
from operator import sub
from pathlib import Path

import pytest

from vecinv2 import blocks, oracle, relations
from vecinv2.f2 import RowSpan, bit_indices, left_kernel, row_of
from vecinv2.invariants import involution
from vecinv2.oracle import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    evaluation_rank,
    invariant_dimension,
    kernel_basis,
    linear_kernel_basis,
    max_relation_degree,
    poly_monomials,
    q_monomials,
    verify_relation_ideal,
)
from vecinv2.poly import Poly, monomial_key
from vecinv2.qring import (
    QPoly,
    evaluate,
    formal_trace,
    make_qmon,
    qmon_degree,
    qmon_key,
)
from vecinv2.relations import (
    Relation,
    relation_basis,
    type_i_relation,
    type_iii_relation,
)

# Report texts and kernel bases that any order of the matrix columns
# must reproduce character for character.
GOLDENS = json.loads(
    (Path(__file__).parent / "oracle_goldens.json").read_text())


# ---------------------------------------------------------------------------
# monomial enumeration
# ---------------------------------------------------------------------------

def test_poly_monomials_counts():
    for m in range(1, 5):
        for d in range(0, 9 if m == 4 else 7):
            monos = poly_monomials(m, d)
            assert len(monos) == comb(d + 2 * m - 1, 2 * m - 1)
            assert oracle._poly_count(m, d) == len(monos)
            assert len(set(monos)) == len(monos)
            assert all(sum(t) == d for t in monos)
    assert len(poly_monomials(3, 6)) == 462
    assert len(poly_monomials(4, 7)) == 3432
    assert len(poly_monomials(4, 8)) == 6435


def test_poly_monomials_sorted_decreasing():
    monos = poly_monomials(2, 4)
    keys = [monomial_key(t) for t in monos]
    assert keys == sorted(keys, reverse=True)


def _series_count(m, d):
    """Coefficient of t^d in the product of 1/(1 - t^deg) over the
    generator degrees, computed by convolution."""
    degrees = [1] * m + [2] * m
    for size in range(2, m + 1):
        degrees.extend([size] * comb(m, size))
    coeffs = [1] + [0] * d
    for g in degrees:
        for i in range(g, d + 1):
            coeffs[i] += coeffs[i - g]
    return coeffs[d]


def test_q_monomials_counts_against_series():
    for m in range(1, 6):
        for d in range(0, 7):
            monos = q_monomials(m, d)
            assert len(monos) == _series_count(m, d)
            # the budget is charged from these counts, before enumerating
            assert oracle._q_count(m, d) == len(monos)
            assert oracle._trace_linear_count(m, d) == sum(
                len(t.traces) <= 1 for t in monos)
            assert len(set(monos)) == len(monos)
            assert all(qmon_degree(t) == d for t in monos)
            # built directly, so check the canonical form make_qmon gives
            assert all(t == make_qmon(t.xe, t.ne, t.traces) for t in monos)
    assert len(q_monomials(3, 6)) == 329
    assert len(q_monomials(4, 6)) == 1474
    assert len(q_monomials(4, 7)) == 3524
    assert len(q_monomials(4, 8)) == 8156


def test_q_monomials_sorted_decreasing():
    monos = q_monomials(2, 4)
    keys = [qmon_key(t) for t in monos]
    assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# kernels of the evaluation map
# ---------------------------------------------------------------------------

def test_kernel_dimensions_frozen():
    assert [len(kernel_basis(2, d)) for d in range(2, 5)] == [0, 0, 1]
    assert [len(kernel_basis(3, d)) for d in range(2, 7)] == [0, 1, 9, 30, 93]
    for d in range(2, 7):
        assert kernel_basis(1, d) == []


def test_kernel_members_evaluate_to_zero():
    for m in (2, 3):
        for d in range(2, 2 * m + 1):
            for member in kernel_basis(m, d):
                assert evaluate(member) == Poly.zero(m)
                assert member.degree() == d


def test_kernel_dimension_bookkeeping():
    # rank-nullity against the count of presentation monomials
    for m in (2, 3):
        for d in range(2, 2 * m + 1):
            total = len(q_monomials(m, d))
            assert len(kernel_basis(m, d)) + evaluation_rank(m, d) == total


def test_smallest_kernels_are_the_known_relations():
    only = kernel_basis(2, 4)
    assert only == [type_iii_relation((1, 1), (1, 1)).element]
    first = kernel_basis(3, 3)
    assert first == [type_i_relation((1, 1, 1)).element]


def test_linear_kernel_basis_members_certify():
    from vecinv2.rewrite import linear_reduce
    for m in (2, 3):
        for d in range(2, 2 * m + 1):
            for member in linear_kernel_basis(m, d):
                assert member.is_trace_linear()
                assert evaluate(member) == Poly.zero(m)
                assert linear_reduce(member).verify()


def _whole_kernel(m, d, basis):
    """The left kernel of the whole-degree evaluation matrix of
    ``basis``, one elimination over every row, as elements."""
    return [QPoly(m, frozenset(basis[i] for i in bit_indices(mask)))
            for mask in left_kernel(oracle._image_rows(d, basis))]


def test_linear_kernel_basis_matches_the_filtered_monomials():
    # the trace-linear monomials are listed directly, and must be the
    # filtered monomials of the degree in their order; both kernels are
    # found block by block, and must be the whole-degree left kernels
    # member for member, in order
    checked = 0
    for m in range(2, 6):
        for d in range(1, 9):
            try:
                kernel = linear_kernel_basis(m, d)
            except BudgetExceeded:
                continue
            filtered = tuple(t for t in q_monomials(m, d)
                             if len(t.traces) <= 1)
            assert oracle._trace_linear_monomials(m, d) == filtered
            assert kernel == _whole_kernel(m, d, filtered), (m, d)
            checked += 1
    assert checked == 31  # all but (5, 8)
    for m in range(1, 5):
        for d in range(1, 2 * m + 1):
            assert kernel_basis(m, d) == _whole_kernel(
                m, d, q_monomials(m, d)), (m, d)


# ---------------------------------------------------------------------------
# dimensions of the invariant space
# ---------------------------------------------------------------------------

def test_invariant_dimension_goldens():
    assert invariant_dimension(1, 0) == 1
    assert invariant_dimension(1, 1) == 1  # just x1
    assert invariant_dimension(1, 2) == 2  # x1^2 and the norm
    assert invariant_dimension(2, 2) == 6


def _invariant_dimension_by_elimination(m, d):
    """The fixed space's dimension as n minus the rank of the rows
    sigma(t) + t over the n monomials t of degree d."""
    index = {}
    span = RowSpan()
    for mono in poly_monomials(m, d):
        single = Poly.monomial(m, mono)
        span.add(row_of((involution(single) + single).terms, index))
    return oracle._poly_count(m, d) - span.rank


def test_rank_matches_invariant_dimension():
    # the generators span the fixed space in every degree checked, and
    # the closed form agrees with the elimination where that is cheap
    for m in (1, 2, 3, 4):
        for d in range(0, 2 * m + 1):
            dimension = invariant_dimension(m, d)
            assert evaluation_rank(m, d) == dimension, (m, d)
            if m <= 3 or d <= 6:
                assert _invariant_dimension_by_elimination(m, d) == \
                    dimension, (m, d)


def _block_dimension(alpha):
    """The closed form of ``invariant_dimension`` for one multidegree:
    the orbit sums of the y/z monomials of multidegree alpha."""
    return (prod(a + 1 for a in alpha) + all(a % 2 == 0 for a in alpha)) // 2


def test_evaluation_rank_sums_blocks():
    # the orbit-weighted rank is the plain sum over every multidegree,
    # and the generators span the fixed space of each block (Richman's
    # first main theorem, checked rather than assumed)
    cases = [(m, d) for m in (1, 2, 3, 4) for d in range(9)]
    cases += [(5, d) for d in range(8)]
    for m, d in cases:
        alphas = list(blocks.compositions(d, m))
        assert len(alphas) == comb(d + m - 1, m - 1)
        assert sum(len(blocks.block_monomials(m, alpha))
                   for alpha in alphas) == oracle._q_count(m, d)
        ranks = [oracle._block_rank(m, alpha) for alpha in alphas]
        assert ranks == [_block_dimension(alpha) for alpha in alphas]
        assert evaluation_rank(m, d, budget=10 ** 9) == sum(ranks) == \
            invariant_dimension(m, d), (m, d)


def test_block_monomials_partition_the_degree():
    for m in (1, 2, 3, 4):
        for d in range(7):
            found = []
            for alpha in blocks.compositions(d, m):
                block = blocks.block_monomials(m, alpha)
                assert all(blocks.multidegree(t) == alpha for t in block)
                assert all(t == make_qmon(t.xe, t.ne, t.traces)
                           for t in block)
                found += block
            assert sorted(found, key=qmon_key) == \
                sorted(q_monomials(m, d), key=qmon_key)
            reps = list(blocks.orbit_reps(d, m))
            assert all(list(a) == sorted(a, reverse=True) for a in reps)
            assert sum(map(blocks.orbit_size, reps)) == comb(d + m - 1, m - 1)


# ---------------------------------------------------------------------------
# generation and minimality
# ---------------------------------------------------------------------------

def test_verify_m2_passes():
    for flavor in ("II", "III"):
        report = verify_relation_ideal(2, flavor=flavor)
        assert report.ok
        assert report.n_relations == 1
        assert report.max_degree == 4
        assert report.to_text().splitlines()[-1] == (
            "PASS: generation + minimality, 1 relations, max degree 4")


def test_verify_m3_passes_both_flavors():
    for flavor in ("II", "III"):
        report = verify_relation_ideal(3, flavor=flavor)
        assert report.ok
        assert report.generated and report.minimal
        assert report.n_relations == 11
        assert report.max_degree == 6
        assert report.to_text().splitlines()[-1] == (
            "PASS: generation + minimality, 11 relations, max degree 6")
        by_degree = {r.degree: r for r in report.degrees}
        assert by_degree[3].kernel_dimension == 1
        assert by_degree[6].kernel_dimension == 93
        assert all(r.generated for r in report.degrees)


def test_verify_m4_through_degree_six():
    report = verify_relation_ideal(4, d_max=6)
    assert report.generated
    assert report.n_relations == 71
    kernel_dims = [r.kernel_dimension for r in report.degrees]
    assert kernel_dims == [0, 4, 37, 164, 606]


def test_verify_report_json():
    blob = verify_relation_ideal(2).to_json()
    assert blob["schema"] == 1
    assert blob["ok"] is True
    assert blob["relations"] == 1
    assert blob["max_degree"] == 4
    assert blob["dependent"] == []
    assert blob["degrees"][0]["degree"] == 2


def test_partial_run_names_the_checked_range():
    # a bare monomial declared at degree 6 is never built through degree
    # 4, so the PASS covers degrees 2..4 only; the four declared
    # relations of degrees 5 and 6 are not checked either
    square = QPoly.monomial(make_qmon((0, 0, 0), (0, 0, 0),
                                      [(1, 1, 1), (1, 1, 1)]))
    family = relation_basis(3) + [
        Relation("bogus", (1, 1, 1), (1, 1, 1), None, square, 6)]
    report = verify_relation_ideal(3, 4, relations=family)
    assert report.ok
    assert report.to_text().splitlines() == [
        "degree 2: kernel 0, span 0, generated",
        "degree 3: kernel 1, span 1, generated",
        "degree 4: kernel 9, span 9, generated",
        "PASS through degree 4: generation + minimality;"
        " 5 relations above degree 4 not checked",
    ]
    blob = report.to_json()
    full = verify_relation_ideal(3, relations=family).to_json()
    assert full["ok"] is False
    assert "checked_through" not in full
    assert "unchecked_relations" not in full
    assert blob.keys() - full.keys() == {"checked_through",
                                         "unchecked_relations"}
    assert (blob["schema"], blob["d_max"], blob["max_degree"]) == (1, 4, 6)
    assert (blob["checked_through"], blob["unchecked_relations"]) == (4, 5)
    assert blob["relations"] == 12 and blob["ok"] is True

    report = verify_relation_ideal(3, 5)
    assert report.to_text().splitlines()[-1] == (
        "PASS through degree 5: generation + minimality;"
        " 1 relation above degree 5 not checked")
    assert report.to_json()["unchecked_relations"] == 1
    # a bound at or past the top degree is a full run
    assert "checked_through" not in verify_relation_ideal(2, 5).to_json()


def test_dropping_any_relation_breaks_generation():
    for m in (2, 3):
        for flavor in ("II", "III"):
            basis = relation_basis(m, flavor)
            for position, removed in enumerate(basis):
                pruned = basis[:position] + basis[position + 1:]
                report = verify_relation_ideal(m, flavor=flavor,
                                               relations=pruned)
                assert not report.ok, removed.label()
                failed = [r.degree for r in report.degrees
                          if not r.generated]
                assert failed and failed[0] == removed.degree
                first = next(r for r in report.degrees
                             if r.degree == failed[0])
                assert first.counterexample is not None
                assert first.counterexample.degree() == removed.degree


def test_duplicate_relation_flagged_dependent():
    basis = relation_basis(3)
    first, second = [r for r in basis if r.degree == 4][:2]
    total = Relation("sum", first.a, second.a, None,
                     first.element + second.element, 4)
    shifted = Relation("shifted", first.a, first.b, None,
                       first.element + QPoly.x_power((1, 0, 0))
                       * basis[0].element, 4)
    cases = [
        (basis + [basis[0]], [basis[0].label()] * 2),
        # each of the three is the sum of the other two
        (basis + [total], [first.label(), second.label(), total.label()]),
        # equal modulo a multiple of the degree-3 relation
        (basis + [shifted], [first.label(), shifted.label()]),
    ]
    for family, labels in cases:
        report = verify_relation_ideal(3, relations=family)
        assert report.generated
        assert not report.minimal
        assert list(report.dependent) == labels
        assert report.to_text().splitlines()[-1] == "FAIL: minimality"


def test_non_relation_fails_generation():
    # Tr(110) does not evaluate to zero, so the span leaves the kernel
    # from degree 2 on, even though it still contains the whole kernel;
    # x1, declared at degree 1, is checked at degree 2, the first one
    # the sweep reaches
    tr110 = formal_trace((1, 1, 0))
    x1 = QPoly.x_power((1, 0, 0))
    cases = [
        (Relation("bogus", (1, 1, 0), None, None, tr110, 2), 1, tr110),
        (Relation("bogus", (1, 0, 0), None, None, x1, 1), 3, x1 * x1),
    ]
    for bogus, rank, counterexample in cases:
        family = relation_basis(3) + [bogus]
        report = verify_relation_ideal(3, relations=family)
        assert not report.ok
        assert report.minimal
        assert not any(r.generated for r in report.degrees)
        first = report.degrees[0]
        assert (first.degree, first.kernel_dimension, first.span_rank) == (
            2, 0, rank)
        assert first.counterexample == counterexample
        for r in report.degrees:
            assert evaluate(r.counterexample) != Poly.zero(3)
            assert r.counterexample.degree() == r.degree
        assert report.to_text().splitlines()[-1] == "FAIL: generation"


def test_relations_are_evaluated_inside_the_sweep(monkeypatch):
    # the budget stops m = 4 at degree 4, so only the four degree-3
    # relations have been evaluated; the degree-4..8 ones never are
    calls = []

    def counting(q):
        calls.append(q)
        return evaluate(q)

    monkeypatch.setattr(oracle, "evaluate", counting)
    with pytest.raises(BudgetExceeded) as info:
        verify_relation_ideal(4, budget=10000)
    assert "at degree 4" in str(info.value)
    assert len(calls) == 4
    assert all(q.degree() == 3 for q in calls)


@pytest.mark.slow
def test_verify_m6_through_degree_ten():
    # brute force certifies generation and minimality at m = 6 through
    # degree 10, where the kernel has dimension 1461588; the kernel
    # dimensions also confirm that the generators span each degree's
    # invariants.  About 6 s on a 2-vCPU host; run with -m slow
    report = verify_relation_ideal(6, 10, budget=10 ** 13)
    assert report.ok
    assert [r.degree for r in report.degrees] == list(range(2, 11))
    for r in report.degrees:
        assert r.kernel_dimension == (
            r.n_q_monomials - invariant_dimension(6, r.degree)), r.degree
    assert report.degrees[-1].kernel_dimension == 1461588


def test_relation_elements_lie_in_kernel_span():
    """Constructor/oracle agreement: every basis element is a genuine
    kernel combination at its own degree.  The m = 4 degrees run up
    through 8, which is the slow part of the suite (a few seconds)."""
    for m in (2, 3, 4):
        needed = sorted({r.degree for r in relation_basis(m)})
        spans = {}
        for d in needed:
            basis = q_monomials(m, d)
            index = {t: i for i, t in enumerate(basis)}
            span = RowSpan()
            for member in kernel_basis(m, d):
                bits = 0
                for term in member.terms:
                    bits |= 1 << index[term]
                span.add(bits)
            spans[d] = (span, index)
        for rel in relation_basis(m):
            span, index = spans[rel.degree]
            bits = 0
            for term in rel.element.terms:
                bits |= 1 << index[term]
            assert span.contains(bits), rel.label()


def test_max_relation_degree_goldens():
    assert max_relation_degree(1) == 0
    assert max_relation_degree(2) == 4
    assert max_relation_degree(3) == 6
    # the degree-9 span from the minimal generators needs 4.3e8 entries
    assert max_relation_degree(4, budget=5 * 10 ** 8) == 8
    # built block by block, but charged for the whole degree before any
    # block is: one row per monomial multiple of the generators found
    with pytest.raises(BudgetExceeded) as info:
        max_relation_degree(4, budget=4 * 10 ** 8)
    assert str(info.value) == (
        "relation span at degree 9 needs a 24292 x 17756 matrix "
        "(431328752 entries > budget 400000000)")
    for bad in ({"m": 0}, {"m": -2}, {"m": 2, "budget": 0}):
        with pytest.raises(ValueError):
            max_relation_degree(**bad)


def test_max_relation_degree_builds_kernels_only_where_short(monkeypatch):
    # ranks decide degrees 2 and 7 at m = 3; kernel bases are built only
    # where the lower-degree generators fall short
    asked = []

    def recording(m, d, budget=DEFAULT_BUDGET):
        asked.append(d)
        return kernel_basis(m, d, budget)

    monkeypatch.setattr(oracle, "kernel_basis", recording)
    assert max_relation_degree(3) == 6
    assert asked == [3, 4, 5, 6]


def test_image_rows_column_order_is_free():
    # rows with columns given on first sight have the ranks and left
    # kernels of the evaluated rows with columns in poly_monomials order
    for m in range(1, 5):
        for d in range(7):
            full = q_monomials(m, d)
            linear = tuple(t for t in full if len(t.traces) <= 1)
            for basis in (full, linear):
                index = {mono: i
                         for i, mono in enumerate(poly_monomials(m, d))}
                want = [row_of(evaluate(QPoly.monomial(t)).terms, index)
                        for t in basis]
                assert len(index) == oracle._poly_count(m, d)
                got = oracle._image_rows(d, basis)
                assert left_kernel(got) == left_kernel(want), (m, d)
                ranks = []
                for rows in (got, want):
                    span = RowSpan()
                    for row in rows:
                        span.add(row)
                    ranks.append(span.rank)
                assert ranks[0] == ranks[1], (m, d)


def test_dropped_relation_reports_golden():
    for key, texts in GOLDENS["dropped"].items():
        m, flavor = int(key.split()[0]), key.split()[1]
        basis = relation_basis(m, flavor)
        assert len(texts) == len(basis)
        for position, want in enumerate(texts):
            pruned = basis[:position] + basis[position + 1:]
            report = verify_relation_ideal(m, flavor=flavor, relations=pruned)
            assert report.to_text() == want, (key, position)


def test_kernel_basis_golden():
    for d, want in GOLDENS["kernel_basis_m3"].items():
        assert [str(q) for q in kernel_basis(3, int(d))] == want, d


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as info:
        kernel_basis(3, 6, budget=10)
    assert "budget 10" in str(info.value)
    with pytest.raises(BudgetExceeded):
        verify_relation_ideal(3, budget=100)
    # charged from the closed-form count, before anything is enumerated
    cached = q_monomials.cache_info().currsize
    with pytest.raises(BudgetExceeded) as info:
        kernel_basis(5, 10, budget=10)
    assert "287381 x 92378" in str(info.value)
    assert q_monomials.cache_info().currsize == cached
    assert isinstance(BudgetExceeded("x"), RuntimeError)
    # the default budget admits every computation the suite needs
    assert DEFAULT_BUDGET >= 10 ** 8


# ---------------------------------------------------------------------------
# the blocked sweep against whole-degree matrices


def _rank(rows):
    span = RowSpan()
    for row in rows:
        span.add(row)
    return span.rank


def _whole_degree_sweep(m, d_max, relations):
    """Verify's checks on whole-degree matrices, one per degree: per
    degree (kernel dimension, span rank, generated, counterexample
    text), and the sorted positions of the dependent relations."""
    out = []
    dependent = set()
    stray = None
    unchecked = deque(sorted(relations, key=lambda r: r.degree))
    for d in range(2, d_max + 1):
        full = q_monomials(m, d)
        kernel_dimension = len(full) - _rank(oracle._image_rows(d, full))
        index = {}
        span = RowSpan()
        for r in relations:
            if r.degree < d:
                for mult in q_monomials(m, d - r.degree):
                    product = QPoly.monomial(mult) * r.element
                    span.add(row_of(product.terms, index))
        while stray is None and unchecked and unchecked[0].degree <= d:
            relation = unchecked.popleft()
            if evaluate(relation.element) != Poly.zero(m):
                stray = relation
        same = [p for p, r in enumerate(relations) if r.degree == d]
        rows = [span.remainder(row_of(relations[p].element.terms, index))
                for p in same]
        for mask in left_kernel(rows):
            dependent.update(same[i] for i, _ in enumerate(rows)
                             if mask >> i & 1)
        for row in rows:
            span.add(row)
        span_rank = span.rank
        counterexample = None
        if stray is not None:
            lift = q_monomials(m, d - stray.degree)[0]
            counterexample = QPoly.monomial(lift) * stray.element
        elif span_rank != kernel_dimension:
            counterexample = next(
                (k for k in _whole_kernel(m, d, full)
                 if span.add(row_of(k.terms, index))), None)
        generated = stray is None and span_rank == kernel_dimension
        out.append((kernel_dimension, span_rank, generated,
                    str(counterexample) if counterexample else None))
    return out, sorted(dependent)


def _shifted(m, family, position, lower):
    """``family`` with relation ``position`` replaced by itself plus a
    monomial multiple of relation ``lower`` that lies in its block: the
    same ideal and still minimal, but no longer the declared set."""
    r, s = family[position], family[lower]
    beta = blocks.relation_block(r.degree, r.element)
    gamma = blocks.relation_block(s.degree, s.element)
    mult = blocks.block_monomials(m, tuple(map(sub, beta, gamma)))[0]
    element = r.element + QPoly.monomial(mult) * s.element
    shifted = Relation("shifted", r.a, r.b, r.index, element, r.degree)
    return family[:position] + [shifted] + family[position + 1:]


def test_blocked_sweep_matches_whole_degree_matrices():
    basis3 = relation_basis(3)
    basis4 = relation_basis(4)
    first, second = [r for r in basis3 if r.degree == 4][:2]
    assert (blocks.relation_block(first.degree, first.element)
            != blocks.relation_block(second.degree, second.element))
    mixed = Relation("sum", first.a, second.a, None,
                     first.element + second.element, 4)
    tr110 = Relation("bogus", (1, 1, 0), None, None,
                     formal_trace((1, 1, 0)), 2)
    multiple = Relation("multiple", (1, 1, 1), None, None,
                        QPoly.x_power((0, 0, 1)) * basis3[0].element, 4)
    dropped = basis3[1]
    assert dropped.label() == "IIIb A=011 B=011 index=2 degree=4"
    # a genuine relation of degree 9 declared at degree 2: its degree-d
    # products reach degree d + 7.  Packed keys as wide as degree d,
    # 3 bits from d = 4 to 7, would carry, and a carry at width 3 lowers
    # a key's field sum by 7, onto the keys of degree-d monomials
    heavy = Relation("heavy", (0, 1, 1), (0, 1, 1), 2, QPoly.x_power(
        (5, 0, 0)) * dropped.element, 2)
    assert {qmon_degree(t) for t in heavy.element.terms} == {9}
    assert evaluate(heavy.element) == Poly.zero(3)
    # shifted relations and duplicates in blocks off the representatives
    # (1, 1, 2), (0, 1, 1, 2), (1, 2, 2) and (1, 1, 2, 2), so their
    # relations are renumbered into the representative's span
    assert [blocks.relation_block(r.degree, r.element)
            for r in (basis3[2], basis4[6], basis3[7], basis4[39])] == [
        (1, 1, 2), (0, 1, 1, 2), (1, 2, 2), (1, 1, 2, 2)]
    assert [r.degree for r in (basis3[1], basis4[5])] == [4, 4]
    cases = [(m, flavor, relation_basis(m, flavor), ["orbits"] * (2 * m - 1),
              True) for m in (1, 2, 3, 4) for flavor in ("II", "III")]
    cases += [
        # degree 2 fails, so the later degrees are counted on every block
        (3, "III", basis3 + [tr110], ["orbits"] + ["blocks"] * 4, False),
        (3, "III", basis3 + [basis3[4]], ["orbits"] * 5, False),
        # a multiple of the degree-3 relation in block (1, 1, 2): it lies
        # in J_beta, so its renumbered image lies in J_rho
        (3, "III", basis3 + [multiple], ["orbits"] * 5, False),
        # degree 4 lacks the dropped relation
        (3, "III", basis3[:1] + basis3[2:], ["orbits"] * 3 + ["blocks"] * 2,
         False),
        # no multidegree for the sum, so one block per degree from 4 on
        (3, "III", basis3 + [mixed], ["orbits"] * 2 + ["degree"] * 3, False),
        # declared below its degree, so one block per degree throughout;
        # its rows lie outside the degree, so every span rank tops the
        # kernel dimension and no counterexample exists
        (3, "III", basis3 + [heavy], ["degree"] * 5, False),
        # generated degree by degree, so orbits throughout
        (3, "III", _shifted(3, basis3, 2, 0), ["orbits"] * 5, False),
        (4, "III", _shifted(4, basis4, 6, 0), ["orbits"] * 7, False),
        # degree 4 fails; the duplicate above it is found on every block
        (3, "III", basis3[:1] + basis3[2:] + [basis3[7]],
         ["orbits"] * 3 + ["blocks"] * 2, False),
        (4, "III", basis4[:5] + basis4[6:] + [basis4[39]],
         ["orbits"] * 3 + ["blocks"] * 4, False),
    ]
    reports = []
    for m, flavor, family, routes, declared in cases:
        report = verify_relation_ideal(m, flavor=flavor, relations=family)
        reports.append(report)
        want, dependent = _whole_degree_sweep(m, 2 * m, family)
        got = [(r.kernel_dimension, r.span_rank, r.generated,
                str(r.counterexample) if r.counterexample else None)
               for r in report.degrees]
        assert got == want, (m, flavor, len(family))
        assert list(report.dependent) == [family[p].label()
                                          for p in dependent]
        assert [r.route for r in report.degrees] == routes
    shifted3, shifted4, duplicated3, duplicated4 = reports[-4:]
    assert shifted3.ok and shifted4.ok
    assert duplicated3.dependent.count(basis3[7].label()) == 2
    assert duplicated4.dependent.count(basis4[39].label()) == 2


def _count_span_builds(monkeypatch):
    """A counter of the RowSpans ``blocks`` builds, by the degree last
    ranked."""
    built = Counter()
    degree = [None]

    class Counting(RowSpan):
        def __init__(self):
            super().__init__()
            built[degree[0]] += 1

    rank = blocks.RelationSpans.rank

    def ranking(self, d):
        degree[0] = d
        return rank(self, d)

    monkeypatch.setattr(blocks, "RowSpan", Counting)
    monkeypatch.setattr(blocks.RelationSpans, "rank", ranking)
    return built


def test_passing_sweep_builds_one_span_per_orbit(monkeypatch):
    # a passing sweep builds only J_rho for each orbit representative
    # rho, the products of the lower relations; the relations of every
    # other block of the orbit are renumbered into it
    built = _count_span_builds(monkeypatch)
    report = verify_relation_ideal(4, 8)
    assert report.ok
    assert [r.route for r in report.degrees] == ["orbits"] * 7
    assert sorted(built) == list(range(2, 9))
    for d, count in built.items():
        assert count <= len(blocks.orbit_reps(d, 4)), (d, count)
    # of the comb(11, 3) = 165 blocks of degree 8
    assert built[8] == 15


def test_generator_search_builds_one_span_per_orbit(monkeypatch):
    # max_relation_degree looks for the members its spans miss on the
    # orbit route: a block off the representatives extends a copy of
    # J_rho by its renumbered generators, and builds no span of its own
    built = _count_span_builds(monkeypatch)
    assert max_relation_degree(4, budget=5 * 10 ** 8) == 8
    assert sorted(built) == list(range(2, 10))
    for d, count in built.items():
        assert count <= len(blocks.orbit_reps(d, 4)), (d, count)


def test_relation_spans_want_each_outcome():
    # orbit counts are exact only while every lower degree passed, so a
    # degree ranked with no outcome settled stops the next one
    spans = blocks.RelationSpans(3)
    assert spans.rank(2) == (0, "orbits")
    with pytest.raises(RuntimeError):
        spans.rank(3)
    spans.settle(False)
    assert spans.rank(3) == (0, "blocks")


def _largest_block(m, d):
    """The widest block of degree d: the most presentation monomials,
    or polynomial monomials, that one multidegree has."""
    return max(max(len(blocks.block_monomials(m, alpha)),
                   prod(a + 1 for a in alpha))
               for alpha in blocks.compositions(d, m))


def test_blocked_sweep_rows_stay_block_sized(monkeypatch):
    # no row given to RowSpan.add or left_kernel is wider than the
    # largest block of its degree: 226 columns at m = 4, d = 8, not the
    # 8156 presentation monomials of the degree
    degree = [0]
    widest = {}

    def record(rows):
        widest[degree[0]] = max([widest.get(degree[0], 0)]
                                + [row.bit_length() for row in rows])

    add = RowSpan.add

    def adding(self, row):
        record([row])
        return add(self, row)

    def kernel(rows):
        record(rows)
        return left_kernel(rows)

    rank = oracle.evaluation_rank

    def ranking(m, d, budget=DEFAULT_BUDGET):
        degree[0] = d
        return rank(m, d, budget)

    monkeypatch.setattr(RowSpan, "add", adding)
    monkeypatch.setattr(oracle, "left_kernel", kernel)
    monkeypatch.setattr(blocks, "left_kernel", kernel)
    monkeypatch.setattr(oracle, "evaluation_rank", ranking)

    def block_sized(m, degrees):
        assert sorted(widest) == degrees
        assert all(widest[d] <= _largest_block(m, d) for d in degrees), widest
        widest.clear()

    assert verify_relation_ideal(4, 8).ok
    block_sized(4, list(range(2, 9)))
    degree[0] = 8
    assert len(kernel_basis(4, 8)) == 8156 - evaluation_rank(4, 8)
    block_sized(4, [8])
    # without the degree-8 relation, degree 8 fails and takes its
    # counterexample from kernel_basis and the span of its block
    basis = relation_basis(4)
    assert basis[-1].degree == 8
    report = verify_relation_ideal(4, 8, relations=basis[:-1])
    assert [r.generated for r in report.degrees] == [True] * 6 + [False]
    assert report.degrees[-1].counterexample is not None
    block_sized(4, list(range(2, 9)))
    assert max_relation_degree(3) == 6
    block_sized(3, list(range(2, 8)))
    assert _largest_block(4, 8) == 226


def test_declared_relations_are_built_at_their_degree(monkeypatch):
    # m = 8 stops at degree 5; only the 56 + 70 + 406 relations of
    # degree 3 and 4 are built, not all 30847
    built = []

    def counting(build):
        def wrapper(*args):
            relation = build(*args)
            built.append(relation.degree)
            return relation
        return wrapper

    for name in ("_type_i", "_type_iii"):
        monkeypatch.setattr(relations, name,
                            counting(getattr(relations, name)))
    with pytest.raises(BudgetExceeded) as info:
        verify_relation_ideal(8)
    assert str(info.value) == (
        "evaluation rank at degree 5 needs a 15088 x 15504 matrix "
        "(233924352 entries > budget 100000000)")
    assert sorted(built) == [3] * 56 + [4] * 476
