"""The order-two substitution, its fixed polynomials, and the minimal
generating set built from x-variables, norms, and transfers."""

import random

import pytest

from vecinv2.invariants import (
    GeneratorSet,
    generator_set,
    norm,
    transfer,
)
from vecinv2.poly import (
    Poly,
    all_subsets,
    cardinality,
    min_index,
    singleton,
    strict_submasks,
)

from conftest import (
    drop_min,
    involution,
    random_poly,
    setminus,
    x_y_power,
    y_power,
)


# ---------------------------------------------------------------------------
# the substitution y_i -> y_i + x_i
# ---------------------------------------------------------------------------

def test_involution_on_variables():
    m = 2
    y1 = Poly.y_variable(m, 0)
    x1 = Poly.x_variable(m, 0)
    assert involution(y1) == y1 + x1
    assert involution(x1) == x1
    one = Poly.parse(m, "1")
    assert involution(one) == one
    assert involution(Poly.zero(m)) == Poly.zero(m)


def test_involution_golden_expansion():
    # sigma(x1*y2^3 + x2) = x1*(y2 + x2)^3 + x2
    m = 2
    f = Poly.parse(m, "x1*y2^3 + x2")
    y2x2 = Poly.y_variable(m, 1) + Poly.x_variable(m, 1)
    cube = y2x2 * y2x2 * y2x2
    expected = Poly.x_variable(m, 0) * cube + Poly.x_variable(m, 1)
    assert involution(f) == expected


def test_involution_is_a_ring_involution():
    rng = random.Random(3571)
    for _ in range(400):
        m = rng.randrange(1, 5)
        f = random_poly(rng, m, max_degree=8)
        g = random_poly(rng, m, max_degree=8)
        assert involution(involution(f)) == f
        assert involution(f + g) == involution(f) + involution(g)
        assert involution(f * g) == involution(f) * involution(g)


def test_is_invariant_basics():
    m = 2
    for f in (Poly.x_variable(m, 0), norm(m, 0), norm(m, 1)):
        assert involution(f) == f
    assert involution(Poly.y_variable(m, 0)) != Poly.y_variable(m, 0)


# ---------------------------------------------------------------------------
# norms and transfers
# ---------------------------------------------------------------------------

def test_norm_golden():
    assert norm(1, 0) == Poly.parse(1, "y1^2 + x1*y1")
    assert norm(2, 1) == Poly.parse(2, "y2^2 + x2*y2")
    # the norm is the product of the orbit of y_i
    m = 1
    y = Poly.y_variable(m, 0)
    assert norm(m, 0) == y * involution(y)


def test_transfer_goldens():
    assert transfer((1, 1)) == Poly.parse(2, "x1*y2 + x2*y1 + x1*x2")
    assert transfer((1, 0)) == Poly.parse(2, "x1")
    assert transfer((0, 0)) == Poly.zero(2)
    assert transfer((1, 1, 1)) == Poly.parse(
        3,
        "x1*y2*y3 + x2*y1*y3 + x3*y1*y2"
        " + x1*x2*y3 + x1*x3*y2 + x2*x3*y1 + x1*x2*x3")


def test_transfer_is_orbit_sum():
    # tr(A) = y^A + sigma(y^A), the defining property
    for m in range(1, 5):
        for a in all_subsets(m, min_size=1):
            ya = y_power(a)
            assert transfer(a) == ya + involution(ya)
            assert involution(transfer(a)) == transfer(a)


def test_transfer_submask_expansion():
    # tr(A) = sum over strict lower sets L of x^(A-L) * y^L
    for m in range(1, 5):
        for a in all_subsets(m, min_size=1):
            expected = Poly.zero(m)
            count = 0
            for low in strict_submasks(a):
                expected = expected + x_y_power(setminus(a, low), low)
                count += 1
            assert transfer(a) == expected
            assert count == 2 ** cardinality(a) - 1
            assert len(transfer(a)) == count


def test_transfer_lead_term():
    # the largest monomial is x_(least member) * y^(rest)
    for m in range(1, 5):
        for a in all_subsets(m, min_size=1):
            i = min_index(a)
            rest = drop_min(a)
            expected = x_y_power(singleton(m, i), rest).lead_term()
            assert transfer(a).lead_term() == expected


# The cofactor power, the product over i of (y_i + x_i)^(a_i), is the
# image of y^a under the involution.

def test_cofactor_power_goldens():
    assert involution(y_power((1,))) == Poly.parse(1, "y1 + x1")
    assert involution(y_power((2,))) == Poly.parse(1, "y1^2 + x1^2")
    assert (involution(y_power((1, 1))) + Poly.parse(2, "y1*y2")
            == transfer((1, 1)))


def test_cofactor_power_vs_transfer():
    # for 0/1 exponents the product of shifted variables is y^A + tr(A)
    for m in range(1, 5):
        for a in all_subsets(m, min_size=1):
            assert involution(y_power(a)) == y_power(a) + transfer(a)


# ---------------------------------------------------------------------------
# the generating set
# ---------------------------------------------------------------------------

def test_generator_set_small():
    gens = generator_set(1)
    assert gens.count == 2
    names = [name for name, _, _ in gens.members()]
    assert names == ["x1", "N1"]

    gens = generator_set(2)
    assert gens.count == 5
    polys = {name: f for name, _, f in gens.members()}
    assert polys["x1"] == Poly.x_variable(2, 0)
    assert polys["N2"] == norm(2, 1)
    assert polys["tr_11"] == transfer((1, 1))


def test_generator_set_counts_and_invariance():
    for m in range(1, 7):
        gens = generator_set(m)
        assert gens.count == 2 ** m + m - 1
        for name, degree, f in gens.members():
            assert involution(f) == f, name
            assert {sum(t) for t in f.terms} == {degree}


def test_generator_set_rejects_bad_width():
    with pytest.raises(ValueError):
        generator_set(0)


def test_generator_set_json():
    blob = generator_set(2).to_json()
    assert blob["schema"] == 1
    assert blob["m"] == 2
    assert blob["count"] == 5
    assert len(blob["generators"]) == 5
    assert blob["generators"][0] == {
        "name": "x1", "degree": 1, "poly": "x1"}
