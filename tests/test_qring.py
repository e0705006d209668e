"""Formal generator symbols, their grading, and the evaluation map
that substitutes the concrete invariant polynomials."""

import random

import pytest

from vecinv2.invariants import norm, transfer
from vecinv2.poly import DimensionMismatch, Poly, ZeroPolynomialError
from vecinv2.qring import (
    QPoly,
    evaluate,
    formal_trace,
    make_qmon,
    qmon_degree,
    qmon_key,
    qmon_trace_degree,
)

from conftest import random_qpoly


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
    assert product.trace_degree() == 5

    q = QPoly.x_power((1, 0)) * QPoly.n_power((0, 1))
    assert q.degree() == 3
    assert q.trace_degree() == 0

    cubed = QPoly.x_power((3, 0)) * QPoly.n_power((0, 1))
    assert cubed.degree() == 5
    assert cubed.trace_degree() == 0


def test_degree_of_mixed_and_zero():
    mixed = QPoly.x_power((1, 0)) + QPoly.n_power((1, 0))
    assert mixed.degree() is None
    with pytest.raises(ZeroPolynomialError):
        QPoly.zero(2).degree()
    with pytest.raises(ZeroPolynomialError):
        QPoly.zero(2).trace_degree()


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
    assert evaluate(QPoly.n_power((1, 0))) == norm(2, 0)
    assert evaluate(QPoly.zero(3)) == Poly.zero(3)
    assert evaluate(QPoly.one(3)) == Poly.one(3)
    assert evaluate(QPoly.x_power((2, 1))) == Poly.parse(2, "x1^2*x2")


def test_evaluate_norm_powers():
    # N^2 must expand through the concrete polynomial, not termwise
    n = QPoly.n_power((2,))
    expected = norm(1, 0) * norm(1, 0)
    assert evaluate(n) == expected
    n3 = QPoly.n_power((3,))
    assert evaluate(n3) == norm(1, 0) ** 3


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
            assert img.homogeneous_degree() == q.degree()


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_str_golden():
    t = make_qmon((2, 0, 0), (0, 1, 0), [(1, 1, 0), (0, 1, 1)])
    q = QPoly.monomial(t)
    assert str(q) == "x1^2*N2*Tr(110)*Tr(011)"
    assert str(QPoly.zero(2)) == "0"
    assert str(QPoly.one(2)) == "1"


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
        QPoly.one(2) + QPoly.one(3)
    with pytest.raises(DimensionMismatch):
        QPoly.from_terms(3, [make_qmon((0, 0), (0, 0), ())])
