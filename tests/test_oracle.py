"""Degree-by-degree linear-algebra checks: monomial enumeration, the
kernel of evaluation, and generation/minimality of the relation basis."""

from math import comb

import pytest

from vecinv2.f2 import RowSpan
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
    span_contains,
    verify_relation_ideal,
)
from vecinv2.poly import Poly, monomial_key
from vecinv2.qring import QPoly, evaluate, formal_trace, qmon_degree, qmon_key
from vecinv2.relations import (
    Relation,
    relation_basis,
    type_i_relation,
    type_iii_relation,
)


# ---------------------------------------------------------------------------
# monomial enumeration
# ---------------------------------------------------------------------------

def test_poly_monomials_counts():
    for m in range(1, 5):
        for d in range(0, 9 if m == 4 else 7):
            monos = poly_monomials(m, d)
            assert len(monos) == comb(d + 2 * m - 1, 2 * m - 1)
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
    for m in range(1, 5):
        for d in range(0, 7):
            monos = q_monomials(m, d)
            assert len(monos) == _series_count(m, d)
            assert len(set(monos)) == len(monos)
            assert all(qmon_degree(t) == d for t in monos)
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


# ---------------------------------------------------------------------------
# dimensions of the invariant space
# ---------------------------------------------------------------------------

def test_invariant_dimension_goldens():
    assert invariant_dimension(1, 0) == 1
    assert invariant_dimension(1, 1) == 1  # just x1
    assert invariant_dimension(1, 2) == 2  # x1^2 and the norm
    assert invariant_dimension(2, 2) == 6


def test_rank_matches_invariant_dimension():
    # the generators span the fixed space in every degree checked
    for m in (1, 2, 3):
        for d in range(0, 2 * m + 1):
            assert evaluation_rank(m, d) == invariant_dimension(m, d)


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
    # from degree 2 on, even though it still contains the whole kernel
    bogus = formal_trace((1, 1, 0))
    family = relation_basis(3) + [
        Relation("bogus", (1, 1, 0), None, None, bogus, 2)]
    report = verify_relation_ideal(3, relations=family)
    assert not report.ok
    assert report.minimal
    assert not any(r.generated for r in report.degrees)
    first = report.degrees[0]
    assert (first.degree, first.kernel_dimension, first.span_rank) == (2, 0, 1)
    assert first.counterexample == bogus
    for r in report.degrees:
        assert evaluate(r.counterexample) != Poly.zero(3)
        assert r.counterexample.degree() == r.degree
    assert report.to_text().splitlines()[-1] == "FAIL: generation"


def test_span_contains_examples():
    basis = relation_basis(3)
    element = type_i_relation((1, 1, 1)).element
    assert span_contains(basis, element)
    assert span_contains(basis, QPoly.zero(3))
    assert not span_contains(basis, QPoly.trace_symbol((1, 1, 1)))
    mixed = QPoly.x_power((1, 0, 0)) + QPoly.n_power((1, 0, 0))
    with pytest.raises(ValueError):
        span_contains(basis, mixed)


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
            span = RowSpan(len(basis))
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
    for bad in ({"m": 0}, {"m": -2}, {"m": 2, "budget": 0}):
        with pytest.raises(ValueError):
            max_relation_degree(**bad)


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as info:
        kernel_basis(3, 6, budget=10)
    assert "budget 10" in str(info.value)
    with pytest.raises(BudgetExceeded):
        verify_relation_ideal(3, budget=100)
    assert isinstance(BudgetExceeded("x"), RuntimeError)
    # the default budget admits every computation the suite needs
    assert DEFAULT_BUDGET >= 10 ** 8
