"""Acceptance gate: the ten headline checks, one test (and one printed
pass line) each.  Everything here is exact arithmetic over GF(2); the
random checks are seeded, so the whole file is deterministic."""

import random
from math import comb

from vecinv2.f2 import RowSpan
from vecinv2.invariants import generator_set, transfer
from vecinv2.oracle import (
    kernel_basis,
    linear_kernel_basis,
    q_monomials,
    verify_relation_ideal,
)
from vecinv2.poly import (
    Poly,
    all_subsets,
    cardinality,
    min_index,
    singleton,
    strict_submasks,
)
from vecinv2.qring import QPoly, evaluate, make_qmon
from vecinv2.relations import (
    count_relations,
    relation_basis,
    type_i_relation,
    type_ii_relation,
    type_iii_relation,
)
from vecinv2.rewrite import linear_reduce, normal_form, reduce_product

from conftest import (
    drop_min,
    involution,
    max_relation_degree,
    random_qpoly,
    setminus,
    x_y_power,
    y_power,
)


def test_criterion_01_generator_census():
    for m in range(1, 7):
        gens = generator_set(m)
        assert gens.count == 2 ** m + m - 1
        for name, degree, poly in gens.members():
            assert involution(poly) == poly, name
            assert {sum(t) for t in poly.terms} == {degree}
    print("PASS 1: generator census, m = 1..6 explicit")


def test_criterion_02_transfer_construction():
    for m in range(1, 5):
        for a in all_subsets(m, min_size=1):
            ya = y_power(a)
            tr = transfer(a)
            assert tr == ya + involution(ya)
            expansion = Poly.zero(m)
            for low in strict_submasks(a):
                expansion = expansion + x_y_power(setminus(a, low), low)
            assert tr == expansion
            assert len(tr) == 2 ** cardinality(a) - 1
            i = min_index(a)
            lead = x_y_power(singleton(m, i), drop_min(a)).lead_term()
            assert tr.lead_term() == lead
    print("PASS 2: transfer = orbit sum = submask expansion, m <= 4")


def test_criterion_03_all_relations_vanish():
    checked = 0
    for m in range(2, 5):
        zero = Poly.zero(m)
        pairs = all_subsets(m, min_size=2)
        for a in all_subsets(m, min_size=3):
            assert evaluate(type_i_relation(a).element) == zero
            checked += 1
        for a in pairs:
            for b in pairs:
                assert evaluate(type_ii_relation(a, b).element) == zero
                assert evaluate(type_iii_relation(a, b).element) == zero
                checked += 2
    assert checked == 282
    print(f"PASS 3: {checked} relation elements evaluate to zero, m <= 4")


def test_criterion_04_flavor_ii_verified():
    for m in (2, 3):
        report = verify_relation_ideal(m, flavor="II")
        assert report.ok, report.to_text()
        assert report.n_relations == count_relations(m)
        assert len(relation_basis(m, "II")) == count_relations(m)
    print("PASS 4: flavor II basis generates minimally, m = 2 and 3")


def test_criterion_05_flavor_iii_verified():
    for m in (2, 3):
        report = verify_relation_ideal(m, flavor="III")
        assert report.ok, report.to_text()
        assert report.n_relations == count_relations(m)
    print("PASS 5: flavor III basis generates minimally, m = 2 and 3")


def test_criterion_06_top_degree_is_sharp():
    for m in (2, 3):
        assert max_relation_degree(m) == 2 * m
        full = (1,) * m
        witness = type_iii_relation(full, full)
        assert witness.degree == 2 * m
        square = make_qmon((0,) * m, (0,) * m, (full, full))
        assert square in witness.element.terms
        assert evaluate(witness.element) == Poly.zero(m)
        # the witness escapes every multiple of a lower-degree kernel
        basis = q_monomials(m, 2 * m)
        index = {t: i for i, t in enumerate(basis)}

        def bits(q):
            out = 0
            for term in q.terms:
                out |= 1 << index[term]
            return out

        span = RowSpan()
        for e in range(2, 2 * m):
            for member in kernel_basis(m, e):
                for mult in q_monomials(m, 2 * m - e):
                    span.add(bits(QPoly.monomial(mult) * member))
        assert not span.contains(bits(witness.element))
    print("PASS 6: relations are needed up to degree 2m exactly, m = 2, 3")


def test_criterion_07_dropping_any_relation_fails():
    basis = relation_basis(3)
    assert len(basis) == 11
    for position, removed in enumerate(basis):
        pruned = basis[:position] + basis[position + 1:]
        report = verify_relation_ideal(3, relations=pruned)
        assert not report.ok, removed.label()
        failed = [r.degree for r in report.degrees if not r.generated]
        assert failed and failed[0] == removed.degree
    print("PASS 7: removing any of the 11 relations at m = 3 breaks "
          "generation at its own degree")


def test_criterion_08_rewrites_are_sound():
    rng = random.Random(271828)
    runs = 0
    for m in (1, 2, 3, 4):
        for _ in range(250):
            q = random_qpoly(rng, m, max_terms=4, max_trace_degree=8)
            trace = normal_form(q)
            assert trace.result.is_trace_linear()
            assert evaluate(trace.result) == evaluate(q)
            assert trace.replay() == trace.result
            runs += 1
    assert runs == 1000
    certified = 0
    for m in (2, 3):
        for d in range(2, 7):
            for member in linear_kernel_basis(m, d):
                cert = linear_reduce(member)
                assert cert.verify()
                certified += 1
    assert certified > 30
    print(f"PASS 8: 1000 random normal forms preserve the image; "
          f"{certified} trace-linear kernel elements certified")


def formal_product(m, a, b):
    return QPoly.monomial(make_qmon((0,) * m, (0,) * m,
                                    tuple(sorted((a, b), reverse=True))))


def test_criterion_09_both_rewrites_agree():
    for m in (2, 3):
        pairs = all_subsets(m, min_size=2)
        for a in pairs:
            for b in pairs:
                trace = reduce_product(a, b)
                product = transfer(a) * transfer(b)
                assert evaluate(trace.result) == product
                tail = (type_ii_relation(a, b).element
                        + formal_product(m, a, b))
                assert evaluate(tail) == product
                difference = trace.result + tail
                if difference.terms:
                    assert linear_reduce(difference).verify()
    print("PASS 9: short and long rewrites express the same products, "
          "differing by certified combinations, m <= 3")


def test_criterion_10_width_four_smoke():
    basis = relation_basis(4)
    assert count_relations(4) == 71
    assert len(basis) == 71
    zero = Poly.zero(4)
    for rel in basis:
        assert evaluate(rel.element) == zero
    report = verify_relation_ideal(4)
    assert report.ok, report.to_text()
    assert report.max_degree == 8
    assert [r.kernel_dimension for r in report.degrees] == [
        0, 4, 37, 164, 606, 1808, 4921]
    assert all(r.span_rank == r.kernel_dimension for r in report.degrees)
    print("PASS 10: the 71 relations at m = 4 vanish and generate "
          "minimally through degree 8")
