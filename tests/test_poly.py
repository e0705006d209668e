"""Monomial order, subset calculus, and ring arithmetic over GF(2)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecinv2.poly import (
    DimensionMismatch,
    Poly,
    ZeroPolynomialError,
    all_subsets,
    bits_to_subset,
    cardinality,
    drop_min,
    intersect,
    is_disjoint,
    is_subset_of,
    min_index,
    monomial_degree,
    monomial_key,
    monomial_text,
    setminus,
    singleton,
    strict_submasks,
    submasks,
    subset_to_bits,
    union,
)

from conftest import random_poly


# ---------------------------------------------------------------------------
# subset calculus
# ---------------------------------------------------------------------------

def test_subset_operations_golden():
    a = (1, 1, 0)
    b = (0, 1, 1)
    assert intersect(a, b) == (0, 1, 0)
    assert union(a, b) == (1, 1, 1)
    assert setminus(a, b) == (1, 0, 0)
    assert setminus(b, a) == (0, 0, 1)
    assert cardinality(a) == 2
    assert not is_disjoint(a, b)
    assert is_disjoint((1, 0, 0), (0, 0, 1))
    assert is_subset_of((0, 1, 0), a)
    assert not is_subset_of(a, b)


def test_singleton_and_min_index():
    assert singleton(3, 1) == (0, 1, 0)
    assert min_index((0, 1, 1)) == 1
    assert drop_min((0, 1, 1)) == (0, 0, 1)
    with pytest.raises(ValueError):
        singleton(3, 3)
    with pytest.raises(ValueError):
        min_index((0, 0, 0))
    with pytest.raises(ValueError):
        drop_min((0, 0))


def test_submask_enumeration_counts():
    for m in range(1, 5):
        for a in all_subsets(m):
            subs = list(submasks(a))
            assert len(subs) == 2 ** cardinality(a)
            assert len(set(subs)) == len(subs)
            strict = list(strict_submasks(a))
            assert len(strict) == 2 ** cardinality(a) - 1
            assert a not in strict
            assert all(is_subset_of(s, a) for s in strict)


def test_all_subsets_ordering():
    subs = all_subsets(3, min_size=2)
    assert subs == ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))
    assert len(all_subsets(4)) == 16
    assert len(all_subsets(4, min_size=2)) == 16 - 4 - 1


def test_bitstring_round_trip():
    assert subset_to_bits((1, 0, 1)) == "101"
    assert bits_to_subset("101") == (1, 0, 1)
    for m in range(1, 6):
        for a in all_subsets(m):
            assert bits_to_subset(subset_to_bits(a)) == a
    with pytest.raises(ValueError):
        bits_to_subset("10a")
    with pytest.raises(ValueError):
        bits_to_subset("")


# ---------------------------------------------------------------------------
# monomial order: goldens, then agreement with an independent comparator
# ---------------------------------------------------------------------------

def test_order_goldens():
    # exponent layout is (y1, x1, y2, x2, ...); y-variables dominate
    y1, x1 = (1, 0), (0, 1)
    assert monomial_key(y1) > monomial_key(x1)
    x1y2 = (0, 1, 1, 0)
    y1x2 = (1, 0, 0, 1)
    assert monomial_key(x1y2) > monomial_key(y1x2)
    assert monomial_key(x1y2) == monomial_key(x1y2)
    # degree dominates everything else
    assert monomial_key((0, 3, 0, 0)) > monomial_key((1, 0, 1, 0))


def _reference_greater(a, b):
    """Textbook graded reverse lexicographic comparison: higher total
    degree wins; on ties the rightmost differing exponent decides, and
    the *smaller* exponent there marks the greater monomial."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    for ea, eb in zip(reversed(a), reversed(b)):
        if ea != eb:
            return ea < eb
    return False


def _monomials_up_to(m, dmax):
    width = 2 * m
    return [t for t in itertools.product(range(dmax + 1), repeat=width)
            if sum(t) <= dmax]


def test_order_matches_reference_exhaustively():
    monos = _monomials_up_to(2, 4)
    assert len(monos) == 70
    for a in monos:
        for b in monos:
            ka, kb = monomial_key(a), monomial_key(b)
            if _reference_greater(a, b):
                assert ka > kb
            elif _reference_greater(b, a):
                assert ka < kb
            else:
                assert ka == kb and a == b


def test_order_laws_exhaustively():
    monos = _monomials_up_to(2, 4)
    keys = [monomial_key(t) for t in monos]
    n = len(monos)
    sign = [[(keys[i] > keys[j]) - (keys[i] < keys[j])
             for j in range(n)] for i in range(n)]
    for i in range(n):
        assert sign[i][i] == 0
        for j in range(n):
            # totality + antisymmetry
            assert sign[i][j] == -sign[j][i]
            if i != j:
                assert sign[i][j] != 0
            # transitivity
            if sign[i][j] == 1:
                for k in range(n):
                    if sign[j][k] == 1:
                        assert sign[i][k] == 1


def test_order_respects_multiplication():
    monos = _monomials_up_to(2, 3)
    factors = _monomials_up_to(2, 2)
    for a in monos:
        for b in monos:
            if monomial_key(a) <= monomial_key(b):
                continue
            for c in factors:
                ac = tuple(u + v for u, v in zip(a, c))
                bc = tuple(u + v for u, v in zip(b, c))
                assert monomial_key(ac) > monomial_key(bc)


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_constructors_golden():
    p = Poly.parse(2, "x1*y2 + x2*y1 + x1*x2")
    q = (Poly.x_variable(2, 0) * Poly.y_variable(2, 1)
         + Poly.x_variable(2, 1) * Poly.y_variable(2, 0)
         + Poly.x_variable(2, 0) * Poly.x_variable(2, 1))
    assert p == q
    assert len(p) == 3
    assert p.lead_term() == (0, 1, 1, 0)
    assert str(p) == "x1*y2 + x2*y1 + x1*x2"


def test_power_products_golden():
    assert Poly.x_power((1, 0, 1)) == Poly.parse(3, "x1*x3")
    assert Poly.y_power((0, 1, 1)) == Poly.parse(3, "y2*y3")
    assert Poly.x_power((0, 0, 0)) == Poly.one(3)


def test_twisted_diagonal_identity():
    # (y1 + x1)(y2 + x2) - y1*y2 expands to the three cross terms
    m = 2
    shifted = ((Poly.y_variable(m, 0) + Poly.x_variable(m, 0))
               * (Poly.y_variable(m, 1) + Poly.x_variable(m, 1)))
    plain = Poly.y_variable(m, 0) * Poly.y_variable(m, 1)
    assert shifted + plain == Poly.parse(m, "x1*y2 + x2*y1 + x1*x2")


def test_characteristic_two():
    rng = random.Random(20260816)
    for _ in range(200):
        m = rng.randrange(1, 5)
        f = random_poly(rng, m)
        assert f + f == Poly.zero(m)
        assert f + Poly.zero(m) == f
        assert f * Poly.one(m) == f
        assert f * Poly.zero(m) == Poly.zero(m)


def test_ring_laws_bulk_random():
    rng = random.Random(97)
    for trial in range(10_000):
        m = 1 + trial % 4
        f = random_poly(rng, m, max_terms=3)
        g = random_poly(rng, m, max_terms=3)
        h = random_poly(rng, m, max_terms=3)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        if trial % 5 == 0:
            assert (f * g) * h == f * (g * h)


def test_frobenius_squares_termwise():
    rng = random.Random(1812)
    for _ in range(300):
        m = rng.randrange(1, 4)
        f = random_poly(rng, m)
        sq = f * f
        assert sq == f ** 2
        expected = Poly.from_terms(
            m, [tuple(2 * e for e in t) for t in f.terms])
        assert sq == expected
        assert all(e % 2 == 0 for t in sq.terms for e in t)


def test_pow_edge_cases():
    f = Poly.parse(1, "y1 + x1")
    assert f ** 0 == Poly.one(1)
    assert f ** 1 == f
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_degree_and_zero_errors():
    f = Poly.parse(2, "y1^2*x2 + x1")
    assert f.total_degree() == 3
    assert f.homogeneous_degree() is None
    g = Poly.parse(2, "y1*y2 + x1*x2")
    assert g.homogeneous_degree() == 2
    z = Poly.zero(2)
    for method in (z.lead_term, z.total_degree, z.homogeneous_degree):
        with pytest.raises(ZeroPolynomialError):
            method()


def test_mixed_width_arithmetic_rejected():
    with pytest.raises(DimensionMismatch):
        Poly.one(1) + Poly.one(2)
    with pytest.raises(DimensionMismatch):
        Poly.one(1) * Poly.one(2)
    with pytest.raises(ValueError):
        Poly.from_terms(1, [(-1, 0)])  # negative exponent


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_str_sorted_and_stable():
    f = Poly.parse(2, "x1 + y1^2 + x2*y1")
    assert str(f) == "y1^2 + x2*y1 + x1"
    assert str(Poly.zero(3)) == "0"
    assert str(Poly.one(3)) == "1"
    assert monomial_text((0, 2, 1, 0)) == "x1^2*y2"
    assert monomial_text((0, 0, 0, 0)) == "1"


def test_parse_accepts_any_factor_order():
    assert Poly.parse(2, "y2*x1") == Poly.parse(2, "x1*y2")
    assert Poly.parse(2, "y1*y1") == Poly.parse(2, "y1^2")
    assert Poly.parse(2, "x1 + x1") == Poly.zero(2)
    with pytest.raises(ValueError):
        Poly.parse(2, "x3")
    with pytest.raises(ValueError):
        Poly.parse(2, "z1")
    with pytest.raises(ValueError):
        Poly.parse(2, "x1 + + x2")


@st.composite
def polys(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    width = 2 * m
    monos = draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * width),
        max_size=5))
    return Poly.from_terms(m, monos)


@given(polys())
@settings(max_examples=200, deadline=None)
def test_parse_round_trip(f):
    assert Poly.parse(f.m, str(f)) == f
    assert str(Poly.parse(f.m, str(f))) == str(f)
