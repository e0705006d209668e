"""The three relation families: frozen small cases, kernel membership,
homogeneity, canonicalization, and the structure of the quadratic
rewrites."""

import gc
import json
import weakref
from math import comb

import pytest

from vecinv2.poly import (
    Poly,
    all_subsets,
    cardinality,
    drop_min,
    min_index,
    monomial_key,
    setminus,
    singleton,
    union,
)
from vecinv2.oracle import verify_relation_ideal
from vecinv2.qring import (
    QPoly,
    evaluate,
    make_qmon,
    qmon_trace_degree,
)
from vecinv2.relations import (
    Relation,
    VacuousRelationError,
    count_relations,
    relation_basis,
    type_i_relation,
    type_ii_relation,
    type_iii_relation,
)

from conftest import x_y_power


# ---------------------------------------------------------------------------
# frozen small cases
# ---------------------------------------------------------------------------

def test_type_i_golden():
    rel = type_i_relation((1, 1, 1))
    assert rel.family == "I"
    assert rel.degree == 3
    assert rel.index is None and rel.b is None
    assert str(rel.element) == (
        "x3*Tr(110) + x2*Tr(101) + x1*Tr(011) + x1*x2*x3")
    assert rel.label() == "I A=111 degree=3"


def test_type_ii_golden_nested():
    rel = type_ii_relation((1, 1), (1, 1))
    assert rel.family == "II"
    assert rel.degree == 4
    assert str(rel.element) == (
        "Tr(11)^2 + x1*x2*Tr(11) + x2^2*N1 + x1^2*N2")


def test_type_ii_golden_overlap():
    rel = type_ii_relation((1, 1, 0), (0, 1, 1))
    assert str(rel.element) == "Tr(110)*Tr(011) + x2*Tr(111) + x1*x3*N2"
    assert rel.degree == 4


def test_type_iii_golden_nested():
    rel = type_iii_relation((1, 1), (1, 1))
    assert rel.family == "IIIb"
    assert rel.index == 0
    assert str(rel.element) == (
        "Tr(11)^2 + x1*x2*Tr(11) + x2^2*N1 + x1^2*N2")
    # coincides with the long rewrite here
    assert rel.element == type_ii_relation((1, 1), (1, 1)).element


def test_type_iii_golden_overlap():
    rel = type_iii_relation((1, 1, 0), (0, 1, 1))
    assert rel.family == "IIIc"
    assert rel.index is None
    assert (rel.a, rel.b) == ((1, 1, 0), (0, 1, 1))
    # the incomparable shape happens to agree with the long rewrite here
    assert rel.element == type_ii_relation((1, 1, 0), (0, 1, 1)).element


def test_type_iii_golden_disjoint():
    rel = type_iii_relation((1, 1, 0, 0), (0, 0, 1, 1))
    assert rel.family == "IIIa"
    assert rel.index == 2  # least member of B, 0-based
    assert rel.label() == "IIIa A=1100 B=0011 index=3 degree=4"
    assert str(rel.element) == (
        "Tr(1100)*Tr(0011) + x4*Tr(1110) + x3*Tr(1101) + x3*x4*Tr(1100)")


def test_type_iii_nested_swaps_to_larger_first():
    rel = type_iii_relation((0, 1, 1), (1, 1, 1))
    assert rel.family == "IIIb"
    assert rel.a == (1, 1, 1)
    assert rel.b == (0, 1, 1)
    assert rel.index == 1
    expected = QPoly.parse(
        3,
        "Tr(111)*Tr(011) + x2*x3*Tr(111) + x2*N3*Tr(110) + x3*N2*Tr(101)")
    assert rel.element == expected


def test_type_iii_disjoint_swaps_to_larger_first():
    rel = type_iii_relation((0, 0, 1, 1), (1, 1, 0, 0))
    assert rel.family == "IIIa"
    assert rel.a == (1, 1, 0, 0)
    assert rel.b == (0, 0, 1, 1)
    assert rel.element == type_iii_relation((1, 1, 0, 0), (0, 0, 1, 1)).element


def test_vacuous_inputs_rejected():
    with pytest.raises(VacuousRelationError):
        type_i_relation((1, 1, 0))
    with pytest.raises(VacuousRelationError):
        type_ii_relation((1, 0), (1, 1))
    with pytest.raises(VacuousRelationError):
        type_ii_relation((1, 1), (0, 0))
    with pytest.raises(VacuousRelationError):
        type_iii_relation((1, 1), (0, 1))


# ---------------------------------------------------------------------------
# the memo behind type_i_relation and type_iii_relation
# ---------------------------------------------------------------------------

def test_repeated_call_returns_the_same_relation():
    assert type_i_relation((1, 1, 1, 0)) is type_i_relation((1, 1, 1, 0))
    assert (type_iii_relation((1, 1, 0), (0, 1, 1))
            is type_iii_relation((1, 1, 0), (0, 1, 1)))


def test_swapped_arguments_give_equal_relations():
    for a, b, family in (((1, 1, 0, 0), (0, 0, 1, 1), "IIIa"),
                         ((1, 1, 1, 0), (0, 1, 1, 0), "IIIb"),
                         ((1, 1, 0, 0), (0, 1, 1, 0), "IIIc")):
        forward = type_iii_relation(a, b)
        assert forward.family == family
        assert type_iii_relation(b, a) == forward


def test_vacuous_call_raises_every_time():
    for _ in range(2):
        with pytest.raises(VacuousRelationError):
            type_i_relation((1, 1, 0, 0))
        with pytest.raises(VacuousRelationError):
            type_iii_relation((1, 0, 0), (1, 1, 0))


def test_relation_basis_leaves_the_memo_alone():
    memos = (type_i_relation, type_iii_relation)
    before = [memo.cache_info() for memo in memos]
    basis = relation_basis(4)
    assert [memo.cache_info() for memo in memos] == before
    # nothing else holds the family either: it dies with the list
    alive = [weakref.ref(r) for r in basis]
    del basis
    gc.collect()
    assert not any(ref() for ref in alive)


def test_verify_keeps_no_relation_alive():
    memos = (type_i_relation, type_iii_relation)
    before = [memo.cache_info() for memo in memos]
    relations = relation_basis(3)
    alive = [weakref.ref(r) for r in relations]
    assert verify_relation_ideal(3, relations=relations).ok
    assert verify_relation_ideal(3).ok
    assert [memo.cache_info() for memo in memos] == before
    del relations
    gc.collect()
    assert not any(ref() for ref in alive)


# ---------------------------------------------------------------------------
# every constructed element lies in the kernel of evaluation
# ---------------------------------------------------------------------------

def test_all_elements_evaluate_to_zero():
    for m in range(2, 5):
        zero = Poly.zero(m)
        pairs = all_subsets(m, min_size=2)
        for a in all_subsets(m, min_size=3):
            assert evaluate(type_i_relation(a).element) == zero
        for a in pairs:
            for b in pairs:
                assert evaluate(type_ii_relation(a, b).element) == zero
                assert evaluate(type_iii_relation(a, b).element) == zero


def test_elements_are_homogeneous_of_expected_degree():
    for m in range(2, 5):
        pairs = all_subsets(m, min_size=2)
        for a in all_subsets(m, min_size=3):
            assert type_i_relation(a).element.degree() == cardinality(a)
        for a in pairs:
            for b in pairs:
                want = cardinality(a) + cardinality(b)
                assert type_ii_relation(a, b).element.degree() == want
                assert type_iii_relation(a, b).element.degree() == want


# ---------------------------------------------------------------------------
# lead structure of the type I elements
# ---------------------------------------------------------------------------

def test_type_i_lead_is_achieved_exactly_twice():
    # the largest monomial among the images of the summands is
    # x_i x_j y^(A minus {i,j}) with i, j the two least members of A,
    # and exactly the submasks A-{i} and A-{j} reach it
    for m in range(3, 5):
        for a in all_subsets(m, min_size=3):
            i = min_index(a)
            j = min_index(drop_min(a))
            rest = drop_min(drop_min(a))
            expected = x_y_power(union(singleton(m, i), singleton(m, j)),
                                 rest).lead_term()
            element = type_i_relation(a).element
            leads = {}
            for t in element.terms:
                leads[t] = evaluate(QPoly.monomial(t)).lead_term()
            best = max(leads.values(), key=monomial_key)
            assert best == expected
            achievers = [t for t, lead in leads.items() if lead == best]
            assert len(achievers) == 2
            achieved = {t.traces[0] for t in achievers}
            assert achieved == {setminus(a, singleton(m, i)),
                                setminus(a, singleton(m, j))}


# ---------------------------------------------------------------------------
# structure of the quadratic rewrites
# ---------------------------------------------------------------------------

def _term_measure(t):
    smallest = min((cardinality(f) for f in t.traces), default=0)
    return (qmon_trace_degree(t), smallest)


def test_quadratic_rewrites_shrink_the_product():
    # each quadratic element contains Tr(A)Tr(B) exactly once, and every
    # other term is strictly smaller in (trace weight, smallest factor)
    for m in range(2, 5):
        pairs = all_subsets(m, min_size=2)
        for maker in (type_ii_relation, type_iii_relation):
            for ai in range(len(pairs)):
                for bi in range(ai + 1):
                    rel = maker(pairs[ai], pairs[bi])
                    product = make_qmon((0,) * m, (0,) * m, (rel.a, rel.b))
                    assert product in rel.element.terms
                    bound = _term_measure(product)
                    for t in rel.element.terms:
                        if t != product:
                            assert _term_measure(t) < bound, rel.label()


def test_quadratic_canonical_slot_order():
    for m in range(2, 5):
        for rel in relation_basis(m):
            if rel.b is not None:
                assert ((cardinality(rel.a), rel.a)
                        >= (cardinality(rel.b), rel.b))


# ---------------------------------------------------------------------------
# the assembled basis
# ---------------------------------------------------------------------------

def test_count_relations_golden():
    assert count_relations(2) == 1
    assert count_relations(3) == 11
    assert count_relations(4) == 71
    with pytest.raises(ValueError):
        count_relations(0)


def test_count_matches_closed_form():
    for m in range(1, 7):
        cubic = 2 ** m - comb(m, 2) - m - 1
        quadratic = comb(2 ** m - m, 2)
        assert count_relations(m) == cubic + quadratic


def test_relation_basis_sizes_and_composition():
    for m in range(2, 5):
        for flavor in ("II", "III"):
            basis = relation_basis(m, flavor)
            assert len(basis) == count_relations(m)
            cubics = [r for r in basis if r.family == "I"]
            quads = [r for r in basis if r.family != "I"]
            assert len(cubics) == 2 ** m - comb(m, 2) - m - 1
            assert len(quads) == comb(2 ** m - m, 2)
            if flavor == "II":
                assert {r.family for r in quads} == {"II"}
            else:
                assert {r.family for r in quads} <= {"IIIa", "IIIb", "IIIc"}
            labels = [r.label() for r in basis]
            assert len(set(labels)) == len(labels)


def test_relation_basis_small_widths():
    assert relation_basis(1) == []
    assert len(relation_basis(2)) == 1
    assert relation_basis(2)[0].family == "IIIb"
    with pytest.raises(ValueError):
        relation_basis(3, flavor="IV")


def test_relation_json_round_trip():
    rel = type_iii_relation((1, 1, 0, 0), (0, 0, 1, 1))
    blob = rel.to_json()
    assert blob["schema"] == 1
    assert blob["family"] == "IIIa"
    assert blob["A"] == "1100"
    assert blob["B"] == "0011"
    assert blob["index"] == 3
    assert blob["degree"] == 4
    assert QPoly.parse(4, blob["element"]) == rel.element
    json.dumps(blob)  # serializable

    blob = type_i_relation((1, 1, 1)).to_json()
    assert blob["B"] is None and blob["index"] is None
