"""The three relation families: frozen small cases, kernel membership,
homogeneity, canonicalization, and the structure of the quadratic
rewrites."""

import gc
import json
import weakref
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from vecinv2.poly import (
    DimensionMismatch,
    Poly,
    all_subsets,
    cardinality,
    min_index,
    monomial_key,
    parity_collect,
    singleton,
    strict_submasks,
    subset_key,
    union,
)
from vecinv2.blocks import RelationSpans
from vecinv2.oracle import verify_relation_ideal
from vecinv2.qring import (
    QMon,
    QPoly,
    evaluate,
    formal_trace,
    make_qmon,
    multidegree,
    qmon_trace_degree,
)
from vecinv2 import relations
from vecinv2.relations import (
    Relation,
    VacuousRelationError,
    _term,
    _type_i,
    _type_iii,
    count_relations,
    pair_count,
    relation_basis,
    relation_degrees,
    relations_of_degree,
    type_i_relation,
    type_ii_relation,
    type_iii_relation,
)
from vecinv2.shapes import shape_cores

from conftest import (
    drop_min,
    every_shape_core,
    intersect,
    is_disjoint,
    is_subset_of,
    n_power,
    relation_shapes,
    setminus,
    x_y_power,
)


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


def test_malformed_subsets_rejected_at_entry():
    # a 0/1 check, not a vacuous or inhomogeneous relation
    for build, args in ((type_i_relation, ((1, 2, 1),)),
                        (type_i_relation, ((1, 1, -1, 1),)),
                        (type_ii_relation, ((1, 2, 0), (0, 1, 1))),
                        (type_ii_relation, ((1, 1, 0), (0, -1, 1))),
                        (type_iii_relation, ((1, 2, 0), (0, 1, 1))),
                        (type_iii_relation, ((1, 1, 0), (0, 1, -1)))):
        bad = next(a for a in args if not set(a) <= {0, 1})
        with pytest.raises(ValueError) as err:
            build(*args)
        assert type(err.value) is ValueError
        assert str(err.value) == f"trace subset needs 0/1 entries, got {bad}"
    for build in (type_ii_relation, type_iii_relation):
        for a, b in (((1, 1, 0), (1, 1)), ((1, 1), (0, 1, 1))):
            with pytest.raises(DimensionMismatch, match="3 vs 2|2 vs 3"):
                build(a, b)


# ---------------------------------------------------------------------------
# the closed forms against products of formal symbols
# ---------------------------------------------------------------------------
# Reference builders: each element written as the product of its
# formal_trace / x_power / N-power symbols, multiplied through QPoly.

def _reference_i(a):
    q = QPoly.zero(len(a))
    for low in strict_submasks(a):
        if cardinality(low) == 0:
            continue
        q = q + QPoly.x_power(setminus(a, low)) * formal_trace(low)
    return "I", a, None, None, q


def _reference_ii(a, b):
    i_set = intersect(a, b)
    j_set = setminus(a, b)
    k_set = setminus(b, a)
    q = formal_trace(a) * formal_trace(b)
    for low in strict_submasks(i_set):
        rest = union(union(setminus(i_set, low), j_set), k_set)
        q = q + QPoly.x_power(setminus(i_set, low)) * n_power(low) \
            * formal_trace(rest)
    n_i = n_power(i_set)
    for low in strict_submasks(j_set):
        q = q + n_i * QPoly.x_power(setminus(j_set, low)) \
            * formal_trace(union(low, k_set))
    return "II", a, b, None, q


def _reference_iii(a, b, pick=min_index):
    """The type III relation; ``pick`` chooses the member the IIIa and
    IIIb shapes single out, the least one."""
    m = len(a)
    if is_disjoint(a, b):
        if subset_key(a) < subset_key(b):
            a, b = b, a
        j = pick(b)
        b_rest = setminus(b, singleton(m, j))
        xj = QPoly.x_power(singleton(m, j))
        q = (
            formal_trace(a) * formal_trace(b)
            + formal_trace(union(a, singleton(m, j))) * formal_trace(b_rest)
            + xj * formal_trace(union(a, b_rest))
            + xj * formal_trace(a) * formal_trace(b_rest)
        )
        return "IIIa", a, b, j, q
    if is_subset_of(a, b) and not is_subset_of(b, a):
        a, b = b, a
    if is_subset_of(b, a):
        i = pick(b)
        delta = singleton(m, i)
        a_rest = setminus(a, delta)
        b_rest = setminus(b, delta)
        xi = QPoly.x_power(delta)
        q = (
            formal_trace(a) * formal_trace(b)
            + xi * formal_trace(a) * formal_trace(b_rest)
            + n_power(delta) * formal_trace(a_rest)
            * formal_trace(b_rest)
            + xi * n_power(b_rest)
            * formal_trace(union(setminus(a, b), delta))
        )
        return "IIIb", a, b, i, q
    if subset_key(a) < subset_key(b):
        a, b = b, a
    i_set = intersect(a, b)
    q = (
        formal_trace(a) * formal_trace(b)
        + formal_trace(union(a, b)) * formal_trace(i_set)
        + n_power(i_set) * formal_trace(setminus(a, b))
        * formal_trace(setminus(b, a))
    )
    return "IIIc", a, b, None, q


def _entries_are_ints(rel) -> bool:
    """Whether every exponent and subset entry of a relation is an int.
    A bool would pass ``==``, as True == 1, but print as True."""
    entries = [rel.a] + ([rel.b] if rel.b is not None else [])
    for t in rel.element.terms:
        entries += [t.xe, t.ne, *t.traces]
    return all(type(e) is int for entry in entries for e in entry)


def _matched_family(build, reference, args) -> str:
    """The family of ``build(*args)``, once its fields, its text and the
    types of its entries match the reference's."""
    rel = build(*args)
    want = reference(*args)
    assert (rel.family, rel.a, rel.b, rel.index, rel.element) == want, args
    assert str(rel.element) == str(want[-1]), args
    assert _entries_are_ints(rel), args
    return rel.family


def test_closed_forms_match_formal_symbol_products():
    # every argument through m = 6; the text catches an entry that is
    # only equal to 0 or 1, such as a bool
    families = set()
    for m in range(2, 7):
        cases = [(_type_i, _reference_i, (a,))
                 for a in all_subsets(m, min_size=3)]
        pairs = all_subsets(m, min_size=2)
        cases += [(build, reference, (a, b)) for a in pairs for b in pairs
                  for build, reference in ((type_ii_relation, _reference_ii),
                                           (_type_iii, _reference_iii))]
        families.update(_matched_family(*case) for case in cases)
    assert families == {"I", "II", "IIIa", "IIIb", "IIIc"}


def test_wide_widths_match_formal_symbol_products():
    # width 40, where a table over all 2^m subsets could not be built;
    # A = B = {3, 17} squares x_4 in type II and in IIIb
    def subset(*members):
        return tuple(int(i in members) for i in range(40))

    pairs = [(subset(*range(12)), subset(*range(6, 20))),
             (subset(*range(6)), subset(*range(33, 39))),
             (subset(0, 9, 18, 27, 36, 39), subset(9, 27, 39)),
             (subset(3, 17), subset(3, 17))]
    cases = [(_type_i, _reference_i, (subset(0, 7, 13, 21, 30, 39),))]
    cases += [(build, reference, pair) for pair in pairs
              for build, reference in ((type_ii_relation, _reference_ii),
                                       (_type_iii, _reference_iii))]
    families = {_matched_family(*case) for case in cases}
    assert families == {"I", "II", "IIIa", "IIIb", "IIIc"}


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


def test_relations_of_degree_walk_the_basis():
    # the basis is type I over all_subsets(m, 3), then one quadratic per
    # pair traces[lo] <= traces[hi] in that order; relations_of_degree
    # gives each degree's members with their positions in it, and
    # relation_degrees counts them in closed form
    for m in range(1, 7):
        traces = all_subsets(m, min_size=2)
        order = [(a,) for a in all_subsets(m, min_size=3)]
        order += [(traces[hi], traces[lo]) for hi in range(len(traces))
                  for lo in range(hi + 1)]
        for flavor in ("II", "III"):
            counts = relation_degrees(m, flavor)
            assert sum(counts.values()) == count_relations(m)
            assert max(counts, default=0) == (2 * m if m > 1 else 0)
            walked = []
            for d in range(2 * m + 2):
                found = list(relations_of_degree(m, d, flavor))
                assert len(found) == counts[d], (m, flavor, d)
                assert all(sum(map(cardinality, order[p])) == d
                           for p, _ in found)
                walked += [(p, build.args) for p, build in found]
            assert sorted(walked) == list(enumerate(order)), (m, flavor)
        assert [pair_count(m, d) for d in range(2 * m + 1)] == [
            sum(len(pair) == 2 and sum(map(cardinality, pair)) == d
                for pair in order) for d in range(2 * m + 1)]
    assert [r.label() for r in relation_basis(3)][:2] == [
        "I A=111 degree=3", "IIIb A=011 B=011 index=2 degree=4"]
    with pytest.raises(ValueError):
        relation_degrees(3, "IV")


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


# ---------------------------------------------------------------------------
# shapes: the family is closed under order-preserving embeddings
# ---------------------------------------------------------------------------

def _fields(r):
    """A relation as (family, A, B, index, element), the tuple the
    reference builders return."""
    return r if isinstance(r, tuple) else (r.family, r.a, r.b, r.index,
                                           r.element)


def _embedding(sigma, m):
    """The monotone embedding [k] -> [m] sending pair i to sigma[i], on
    subsets (and exponent vectors), monomials and relation tuples."""
    def subset(a):
        out = [0] * m
        for i, e in zip(sigma, a):
            out[i] = e
        return tuple(out)

    def monomial(t):
        return QMon(subset(t.xe), subset(t.ne), tuple(map(subset, t.traces)))

    def relation(family, a, b, index, element):
        return (family, subset(a), None if b is None else subset(b),
                None if index is None else sigma[index],
                QPoly(m, frozenset(map(monomial, element.terms))))

    return subset, monomial, relation


def _shapes(k, flavor):
    """The shapes of width k at every degree."""
    return [r for d in range(2 * k + 1) for r in relation_shapes(k, d, flavor)]


def _commutes(m, quadratic, flavor) -> bool:
    """Whether type I and ``quadratic`` commute with every monotone
    embedding sigma: [k] -> [m], k <= m, on the sets of every shape of
    width k, in both argument orders: build(sigma A, sigma B) is
    sigma(build(A, B)), and ``RelationSpans._lead`` of it is sigma of
    the lead."""
    lead = RelationSpans._lead
    for k in range(1, m + 1):
        shapes = _shapes(k, flavor)
        for sigma in combinations(range(m), k):
            subset, monomial, relation = _embedding(sigma, m)
            for r in shapes:
                cases = ([(_type_i, (r.a,))] if r.b is None else
                         [(quadratic, (r.a, r.b)), (quadratic, (r.b, r.a))])
                for build, args in cases:
                    small = _fields(build(*args))
                    big = _fields(build(*map(subset, args)))
                    if (big != relation(*small)
                            or lead(big[-1]) != monomial(lead(small[-1]))):
                        return False
    return True


def _nearest_middle(b):
    """The member of b nearest the middle of its width, the lesser on a
    tie: a choice that reads absolute positions."""
    m = len(b)
    return min((i for i in range(m) if b[i]),
               key=lambda i: (abs(2 * i - (m - 1)), i))


def test_constructors_and_leads_commute_with_monotone_embeddings():
    # exhaustively for m <= 6; a type III that singles out the member
    # nearest the middle of [m] fails, while the reference that singles
    # out the least member commutes like the library's constructors
    for m in range(1, 7):
        assert _commutes(m, type_ii_relation, "II"), m
        assert _commutes(m, _type_iii, "III"), m
    assert _commutes(4, _reference_iii, "III")

    def middle(a, b):
        return _reference_iii(a, b, pick=_nearest_middle)

    # from m = 3 on, B = {0, c} with 0 < c < m - 1 embeds the pair [2],
    # whose middle choice is its lesser member, onto a set whose middle
    # choice is its greater one
    assert [m for m in range(1, 7) if not _commutes(m, middle, "III")] == [
        3, 4, 5, 6]


def test_shapes_embed_onto_the_declared_family():
    # each shape of the exhaustive reference covers its k pairs, and the
    # embeddings of the shapes of degree d over every k <= m are the
    # declared relations of degree d, each once, in both flavors; the
    # class representatives stand for these shapes
    # (test_shape_classes_stand_for_every_shape)
    for m in range(1, 7):
        for flavor in ("II", "III"):
            for k in range(1, m + 1):
                assert all(union(r.a, r.b or r.a) == (1,) * k
                           for r in _shapes(k, flavor))
            for d in range(2 * m + 2):
                embedded = Counter(
                    _embedding(sigma, m)[2](*_fields(r))
                    for k in range(1, m + 1)
                    for r in relation_shapes(k, d, flavor)
                    for sigma in combinations(range(m), k))
                declared = [_fields(build())
                            for _, build in relations_of_degree(m, d, flavor)]
                assert embedded == Counter(declared), (m, flavor, d)
                assert len(set(declared)) == len(declared)
    # (3^k - 4k - 1) / 2 unordered pairs of sets of two or more covering
    # [k], of the 3^k ordered ones, plus type I on [k]
    assert [len(_shapes(k, "III")) for k in range(1, 7)] == [0, 1] + [
        (3 ** k - 4 * k - 1) // 2 + 1 for k in range(3, 7)]
    with pytest.raises(ValueError):
        list(relation_shapes(3, 4, "IV"))


def test_shape_cores_convert_to_the_constructors_elements():
    # exhaustively for k <= 6, d <= 2k, both flavors: each shape's core
    # terms (every shape, of which the class representatives are some),
    # converted by _term and collected, are the element the
    # public constructor builds on the sets the shape's lead names, and
    # the reference builder's; every term has the listed multidegree,
    # and the listed lead, converted, is the table's
    references = {"I": _reference_i, "II": _reference_ii,
                  "IIIa": _reference_iii, "IIIb": _reference_iii,
                  "IIIc": _reference_iii}
    for k in range(1, 7):
        for flavor in ("II", "III"):
            for d in range(2 * k + 1):
                shapes = list(every_shape_core(k, d, flavor))
                built = list(relation_shapes(k, d, flavor))
                assert len(shapes) == len(built)
                for (alpha, (x, n, traces), terms), r in zip(shapes, built):
                    element = QPoly(k, parity_collect(
                        t for t in (_term(k, *t) for t in terms) if t))
                    assert element == r.element, r.label()
                    args = (r.a,) if r.b is None else (r.a, r.b)
                    assert _fields(r) == _fields(
                        references[r.family](*args)), r.label()
                    assert {multidegree(t) for t in element.terms} == {
                        tuple(alpha.to_bytes(k, "big"))}
                    lead = _term(k, x, n, *traces)
                    assert lead in element.terms
                    if r.b is not None:
                        assert lead.traces == tuple(
                            sorted((r.a, r.b), reverse=True))


def _pairs(mask, k):
    """The pairs of a mask of width k, least first."""
    return [i for i in range(k) if mask >> 8 * (k - 1 - i) & 1]


def _permutation(sigma, k):
    """The permutation of the pairs sending pair i to sigma[i], on masks
    of width k, exponent bytes included."""
    def move(mask):
        return sum((mask >> 8 * (k - 1 - i) & 0xFF) << 8 * (k - 1 - j)
                   for i, j in enumerate(sigma))
    return move


def _regions(traces):
    """The Venn regions S = A & B, X = A - B and Y = B - A of a shape's
    pair, A the larger by (cardinality, mask)."""
    a, b = sorted(traces, key=lambda t: (t.bit_count(), t), reverse=True)
    return a & b, a & ~b, b & ~a


def _class_misses(k, flavor):
    """The quadratic shapes of width k, of every degree, that are not
    the image of their size class's representative under the
    permutation that maps each Venn region of the representative onto
    the shape's, monotone on each: term for term, after ``_term``, with
    the multidegree and the lead.  Each representative must be a shape
    of the exhaustive reference, one per size triple; returns the
    misses and how many shapes were compared."""
    misses, seen = [], 0
    for d in range(2 * k + 1):
        reference = [shape for shape in every_shape_core(k, d, flavor)
                     if not shape[1][0]]
        representatives = {}
        for shape in shape_cores(k, d, flavor):
            if not shape[1][0]:
                sizes = tuple(r.bit_count() for r in _regions(shape[1][2]))
                assert sizes not in representatives and shape in reference
                representatives[sizes] = shape
        for alpha, (_, _, traces), terms in reference:
            regions = _regions(traces)
            r_alpha, (_, _, r_traces), r_terms = representatives[
                tuple(r.bit_count() for r in regions)]
            sigma = [None] * k
            for source, target in zip(_regions(r_traces), regions):
                for i, j in zip(_pairs(source, k), _pairs(target, k)):
                    sigma[i] = j
            move = _permutation(sigma, k)
            image = Counter(_term(k, *map(move, t)) for t in r_terms)
            if (move(r_alpha), sorted(map(move, r_traces)), image) != (
                    alpha, sorted(traces),
                    Counter(_term(k, *t) for t in terms)):
                misses.append((d, traces))
            seen += 1
    return misses, seen


def _middle_member(monkeypatch, k):
    """A type III core that singles out the member of B nearest the
    middle of [k], the lesser on a tie, instead of its least member."""
    core = relations._core_iii

    def middle(a, b):
        family, a, b, single, terms = core(a, b)
        if single:
            pair = min(_pairs(b, k), key=lambda i: (abs(2 * i - (k - 1)), i))
            single = 1 << 8 * (k - 1 - pair)
            rest = b ^ single
            terms = ([(0, 0, a, b), (0, 0, a | single, rest),
                      (single, 0, a | rest), (single, 0, a, rest)]
                     if family == "IIIa" else
                     [(0, 0, a, b), (single, 0, a, rest),
                      (0, single, a ^ single, rest),
                      (single, rest, (a & ~b) | single)])
        return family, a, b, single, terms

    monkeypatch.setattr(relations, "_core_iii", middle)


def test_shape_classes_stand_for_every_shape(monkeypatch):
    # every one of the 1582 quadratic shapes at k <= 7 is, in both
    # flavors, the image of its class representative under the
    # region-monotone permutation, term for term; a type III core that
    # singles out the member nearest the middle of [k], a choice that
    # reads absolute positions, breaks that from k = 4 on (at k = 3 the
    # only moved choice is within a two-member B = S of IIIb, where
    # either member writes the same relation)
    seen = 0
    for k in range(1, 8):
        for flavor in ("II", "III"):
            misses, compared = _class_misses(k, flavor)
            assert misses == [], (k, flavor)
            seen += compared
    assert seen == 2 * (1 + sum((3 ** k - 4 * k - 1) // 2
                                for k in range(3, 8)))
    core, broken = relations._core_iii, []
    for k in range(1, 8):
        _middle_member(monkeypatch, k)
        if _class_misses(k, "III")[0]:
            broken.append(k)
        monkeypatch.setattr(relations, "_core_iii", core)
    assert broken == [4, 5, 6, 7]


def _class_count(k, d):
    """The shapes ``shape_cores(k, d)`` lists, in closed form: type I on
    [k] when d = k >= 3, and the y = |Y| with |S| = d - k, |S| + y >= 2
    and y <= |X| = 2k - d - y."""
    quadratic = (max(0, (2 * k - d) // 2 - max(0, k + 2 - d) + 1)
                 if k <= d <= 2 * k else 0)
    return (d == k >= 3) + quadratic


def test_shape_classes_have_a_closed_count():
    # per width and degree, in both flavors: the closed form, and for
    # k <= 6 one shape per size triple of the exhaustive reference;
    # summed over k <= m and d <= 2m + 1, O(m^3) shapes for about 3^m
    for k in range(1, 17):
        for flavor in ("II", "III"):
            for d in range(2 * k + 2):
                listed = list(shape_cores(k, d, flavor))
                assert len(listed) == _class_count(k, d), (k, d)
                if k <= 6:
                    triples = {tuple(r.bit_count() for r in _regions(traces))
                               for _, (x, _, traces), _ in every_shape_core(
                                   k, d, flavor) if not x}
                    assert len(listed) == (d == k >= 3) + len(triples)
    assert [sum(_class_count(k, d) for k in range(1, m + 1)
                for d in range(2 * m + 2)) for m in (8, 10, 12, 16)] == [
        77, 139, 226, 491]
