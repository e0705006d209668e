"""Degree-by-degree linear-algebra checks: monomial enumeration, the
kernel of evaluation, and generation/minimality of the relation basis."""

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from collections import Counter, deque
from itertools import accumulate, product
from math import comb, prod
from operator import ge, le, sub
from pathlib import Path

import pytest

from vecinv2 import blocks, cli, oracle, qring, relations, series, shapes
from vecinv2.f2 import RowSpan, bit_indices, left_kernel, row_of
from vecinv2.oracle import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    evaluation_rank,
    invariant_dimension,
    kernel_basis,
    linear_kernel_basis,
    poly_monomials,
    q_monomials,
    verify_relation_ideal,
)
from vecinv2.poly import (
    DimensionMismatch,
    Poly,
    all_subsets,
    min_index,
    monomial_key,
    parity_collect,
    singleton,
)
from vecinv2.qring import (
    QMon,
    QPoly,
    block_sums,
    evaluate,
    formal_trace,
    make_qmon,
    multidegree,
    qmon_degree,
    qmon_key,
    vanishes,
)
from vecinv2.relations import (
    Relation,
    relation_basis,
    type_i_relation,
    type_iii_relation,
)

from conftest import (
    every_shape_core,
    generator_leads_hold,
    involution,
    max_relation_degree,
    random_qmon,
    reference_image,
    relation_shapes,
    shape_leads_hold,
    term_reference,
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


def _series(degrees, d):
    """Coefficients of t^0..t^d in the product of 1/(1 - t^g) over the
    generator degrees g in ``degrees``, computed by convolution."""
    coeffs = [1] + [0] * d
    for g in degrees:
        for i in range(g, d + 1):
            coeffs[i] += coeffs[i - g]
    return coeffs


def _generator_degrees(m):
    """One degree per generator symbol: the x's, the norms and the
    trace symbols."""
    degrees = [1] * m + [2] * m
    for size in range(2, m + 1):
        degrees.extend([size] * comb(m, size))
    return degrees


def _series_count(m, d):
    """Coefficient of t^d in the product of 1/(1 - t^deg) over the
    generator degrees, computed by convolution."""
    return _series(_generator_degrees(m), d)[d]


def test_series_tables_read_the_same_in_every_growth_order():
    # each width's table is built at its first degree asked for and
    # grown past its top; whichever degree comes first, highest or
    # lowest, with the widths interleaved, every count reads as a
    # series built for its own width directly, one weight per generator
    # symbol where the table has one factor 1/(1 - t^k)^C(m, k) per
    # trace size, and a negative degree reads 0, cold or warm, never
    # the top coefficient
    tops = {m: 4 * m + 5 for m in range(1, 13)}
    expected = {}
    for m, top in tops.items():
        presentation = _series(_generator_degrees(m), top)
        free = _series([2] * m, top)
        for _ in range(m):
            free = list(accumulate(free))
        expected[m] = [(
            presentation[d],
            free[d] + sum(comb(m, k) * free[d - k]
                          for k in range(2, min(m, d) + 1)),
            invariant_dimension(m, d)) for d in range(top + 1)]
    highest = max(tops.values())
    for order in (range(highest, -1, -1), range(highest + 1)):
        series._tables.clear()
        assert oracle._q_count(5, -1) == 0
        for d in order:
            for m, top in tops.items():
                if d <= top:
                    assert (oracle._q_count(m, d),
                            oracle._trace_linear_count(m, d),
                            oracle._standard_count(m, d)) == \
                        expected[m][d], (m, d)
        assert all(oracle._q_count(m, -1) == 0 for m in tops)
        assert all(len(series.q_series(m, 0)) > 2 * m + 1 for m in tops)


def test_cold_verify_builds_each_series_once(monkeypatch):
    # a cold sweep through 2m reads every closed-form count from one
    # table per width: the presentation series and the norms' series
    # are built once each, not once per degree or per count
    built = []
    build = series.monomial_series

    def counting(weights, d, *start):
        built.append(tuple(weights))
        return build(weights, d, *start)

    monkeypatch.setattr(series, "monomial_series", counting)
    assert verify_relation_ideal(4, 8).ok
    assert len(built) <= 2
    assert len(set(built)) == len(built)


def test_q_series_starts_the_traces_from_the_free_row():
    # the table convolves the trace factors onto the x/N row m of
    # free_series, not onto 1 with the x/N weights again; its series
    # reads as the whole product built from 1 for every width
    for m in range(1, 13):
        top = 4 * m + 5
        whole = series.monomial_series(
            [(1, m), (2, m)] + [(k, comb(m, k)) for k in range(2, m + 1)],
            top)
        assert series.q_series(m, top)[:top + 1] == whole, m


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


def _whole_rows(basis):
    """The whole-degree evaluation rows of ``basis``: each image a Poly
    product of the generators (``term_reference``), its monomials given
    columns on first sight."""
    index = {}
    return [row_of(term_reference(t).terms, index) for t in basis]


def _whole_kernel(m, basis):
    """The left kernel of the whole-degree evaluation matrix of
    ``basis``, one elimination over every row, as elements."""
    return [QPoly(m, frozenset(basis[i] for i in bit_indices(mask)))
            for mask in left_kernel(_whole_rows(basis))]


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
            assert kernel == _whole_kernel(m, filtered), (m, d)
            checked += 1
    assert checked == 31  # all but (5, 8)
    for m in range(1, 5):
        for d in range(1, 2 * m + 1):
            assert kernel_basis(m, d) == _whole_kernel(
                m, q_monomials(m, d)), (m, d)


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


def trace_linear_monomials(m, alpha):
    """The members of block ``alpha`` with at most one trace symbol: the
    x/N splits of alpha, then for each trace subset A under alpha those
    of alpha - 1_A times Tr(A)."""
    found = blocks._splits(alpha, ())
    for a in all_subsets(m, min_size=2):
        if all(map(le, a, alpha)):
            found += blocks._splits(tuple(map(sub, alpha, a)), (a,))
    return found


def _enumerated_lead_count(m, alpha, lead=qring.summand_lead):
    """How many distinct leads the trace-linear monomials of block alpha
    have, each listed."""
    return len({lead(t) for t in trace_linear_monomials(m, alpha)})


def _is_lead(alpha, b):
    """Whether x^(alpha - b) y^b is a trace-linear lead of block alpha:
    b is all even, or some a before b's first odd coordinate has
    b_a < alpha_a."""
    odd = [i for i, e in enumerate(b) if e % 2]
    return not odd or any(map(sub, alpha[:odd[0]], b[:odd[0]]))


def _closed_lead_count(alpha):
    """The b <= alpha that ``_is_lead`` admits, counted in one pass over
    the coordinates with three states: every b_i even and at alpha_i so
    far; every b_i even and one below alpha_i; an odd b_i after that."""
    tight, slack, past = 1, 0, 0
    for a in alpha:
        even, odd = a // 2 + 1, (a + 1) // 2
        top = a % 2 == 0
        tight, slack, past = (tight * top,
                              tight * (even - top) + slack * even,
                              slack * odd + past * (a + 1))
    return tight + slack + past


def test_per_coordinate_counts():
    # the two facts per coordinate value a that evaluation_rank's proof
    # rests on
    for a in range(200):
        even = sum(b % 2 == 0 for b in range(a + 1))
        odd = sum(b % 2 for b in range(a + 1))
        assert even + odd == a + 1
        assert 2 * even == (a + 1) + (a % 2 == 0)


def test_closed_lead_count_is_the_block_dimension():
    # the count evaluation_rank proves, on every orbit representative
    # for m <= 8 and on every block for m <= 4
    for m in range(1, 9):
        for d in range(2 * m + 2):
            alphas = (blocks.compositions(d, m) if m <= 4
                      else blocks.orbit_reps(d, m))
            for alpha in alphas:
                assert _closed_lead_count(alpha) == _block_dimension(alpha)


def test_closed_lead_count_matches_the_summand_leads():
    # on every block for m <= 5, the closed count is the enumerated
    # count of distinct summand leads; for m <= 4 the leads are exactly
    # the x^(alpha - b) y^b that _is_lead admits
    for m in range(1, 6):
        for d in range(2 * m + 2):
            for alpha in blocks.compositions(d, m):
                if m <= 4:
                    leads = {qring.summand_lead(t)
                             for t in trace_linear_monomials(m, alpha)}
                    assert all(lead[1::2] == tuple(map(sub, alpha, lead[::2]))
                               for lead in leads)
                    assert {lead[::2] for lead in leads} == {
                        b for b in product(*(range(a + 1) for a in alpha))
                        if _is_lead(alpha, b)}, (m, alpha)
                    assert len(leads) == _closed_lead_count(alpha)
                else:
                    assert _enumerated_lead_count(m, alpha) == \
                        _closed_lead_count(alpha), (m, alpha)


def test_evaluation_rank_sums_blocks():
    # the orbit-weighted rank is the plain sum over every multidegree,
    # and the generators span the fixed space of each block (Richman's
    # first main theorem, checked on the listed leads rather than
    # assumed)
    cases = [(m, d) for m in (1, 2, 3, 4) for d in range(9)]
    cases += [(5, d) for d in range(8)]
    for m, d in cases:
        alphas = list(blocks.compositions(d, m))
        assert len(alphas) == comb(d + m - 1, m - 1)
        assert sum(len(blocks.block_monomials(m, alpha))
                   for alpha in alphas) == oracle._q_count(m, d)
        counts = [_enumerated_lead_count(m, alpha) for alpha in alphas]
        assert counts == [_block_dimension(alpha) for alpha in alphas]
        assert evaluation_rank(m, d, budget=10 ** 9) == sum(counts) == \
            invariant_dimension(m, d), (m, d)


def test_lead_count_meets_the_elimination_rank():
    # the brute force behind evaluation_rank: on every block for m <= 4
    # and every orbit representative for m = 5 through degree 11, the
    # distinct leads of the trace-linear monomials, the rank by
    # elimination and the fixed-space dimension agree
    cases = [(m, alpha) for m in (1, 2, 3, 4)
             for d in range(2 * m + 2)
             for alpha in blocks.compositions(d, m)]
    cases += [(5, alpha) for d in range(12)
              for alpha in blocks.orbit_reps(d, 5)]
    for m in range(1, 9):
        # degree max(m, 2) reaches every generator: N_i has degree 2
        assert oracle._generator_leads_hold(m, max(m, 2)), m
    for m, alpha in cases:
        assert (_enumerated_lead_count(m, alpha)
                == oracle._eliminated_rank(m, alpha)
                == _block_dimension(alpha)), (m, alpha)


def _max_member_lead(term):
    """A wrong ``summand_lead``: a trace leads with x_b y^(A-b) for the
    largest member b of A, not the least."""
    lead = list(qring.summand_lead(term))
    if term.traces:
        a = term.traces[0]
        low, high = a.index(1), len(a) - 1 - a[::-1].index(1)
        lead[2 * low] += 1
        lead[2 * low + 1] -= 1
        lead[2 * high] -= 1
        lead[2 * high + 1] += 1
    return tuple(lead)


@pytest.fixture
def eliminated(monkeypatch):
    """The blocks ``oracle._eliminated_rank`` is called on, in order;
    the generator check is recomputed before and after the test."""
    calls = []
    rank = oracle._eliminated_rank
    check = oracle._width_leads

    def recording(m, alpha):
        calls.append((m, alpha))
        return rank(m, alpha)

    monkeypatch.setattr(oracle, "_eliminated_rank", recording)
    check.cache_clear()
    yield calls
    check.cache_clear()


def test_wrong_generator_lead_falls_back(monkeypatch, eliminated):
    # with the least member swapped for the largest, every block still
    # counts as many distinct leads as its dimension, so only the
    # generator check can refuse the formula; it does from degree 2, the
    # first that holds a trace, and every block from there is eliminated
    # to the same ranks
    _max_member_leads(monkeypatch)
    for m in (2, 3, 4):
        assert oracle._generator_leads_hold(m, 1)
        assert not oracle._generator_leads_hold(m, 2)
        for d in range(2 * m + 1):
            reps = blocks.orbit_reps(d, m)
            assert all(_enumerated_lead_count(m, alpha, _max_member_lead)
                       == _block_dimension(alpha) for alpha in reps)
            eliminated.clear()
            assert evaluation_rank(m, d) == invariant_dimension(m, d)
            assert eliminated == [(m, alpha) for alpha in reps if d >= 2]


def test_budget_exit_checks_only_the_generators_it_reaches(monkeypatch):
    # the generator-lead check runs per degree on what a block of that
    # degree can hold: m = 9 stops at degree 5 having read the block
    # images of traces Tr(A) up to |A| = 4, none of the 256 with |A| >= 5
    traces = []
    images = oracle.block_images

    def recording(alpha, terms):
        for t in terms:
            if not any(t.xe + t.ne) and len(t.traces) == 1:
                traces.append(sum(t.traces[0]))
        return images(alpha, terms)

    monkeypatch.setattr(oracle, "block_images", recording)
    oracle._width_leads.cache_clear()
    with pytest.raises(BudgetExceeded) as info:
        verify_relation_ideal(9)
    assert str(info.value) == (
        "evaluation rank at degree 5 needs a 26847 x 26334 matrix "
        "(706988898 entries > budget 100000000)")
    assert sorted(set(traces)) == [2, 3, 4]


def test_generator_check_takes_no_frame_per_degree():
    # no generator has a degree above max(m, 2), so the check loops over
    # at most that many degrees, however high d is
    assert evaluation_rank(1, 1500) == invariant_dimension(1, 1500) == 751


def _generators(m):
    """The generators x_i, N_i and Tr(A) as presentation monomials."""
    zero = (0,) * m
    units = [singleton(m, i) for i in range(m)]
    return ([make_qmon(u, zero, ()) for u in units]
            + [make_qmon(zero, u, ()) for u in units]
            + [make_qmon(zero, zero, [a])
               for a in all_subsets(m, min_size=2)])


def _random_block_int(rng, m):
    """A random polynomial of one block, with its multidegree, as a Poly
    and as the block int of a random reach, encoded here in mixed radix:
    x^(alpha-b) y^b is bit sum_i b_i R_i."""
    alpha = tuple(rng.randrange(4) for _ in range(m))
    reach = [rng.randrange(a + 1) for a in alpha]
    radices = tuple(prod(r + 1 for r in reach[:i]) for i in range(m))
    monos = list(product(*(range(r + 1) for r in reach)))
    chosen = rng.sample(monos, rng.randrange(1, len(monos) + 1))
    poly = Poly(m, frozenset(tuple(e for y, a in zip(b, alpha)
                                   for e in (y, a - y)) for b in chosen))
    if rng.random() < 0.5:
        # a sum of an element and its image is fixed; it may be zero
        poly = poly + involution(poly)
    image = 0
    for t in poly.terms:
        image ^= 1 << sum(b * r for b, r in zip(t[0::2], radices))
    return alpha, radices, image, poly


def test_block_int_lead_and_involution_match_poly_reference():
    # the generator check reads an image's lead off its block int's top
    # bit and applies the involution to the int as a Taylor shift; both
    # agree with the Poly reference on every generator for m <= 6 and on
    # random block polynomials for m <= 4, fixed or not
    for m in range(1, 7):
        for g in _generators(m):
            alpha = multidegree(g)
            radices, (image,) = qring.block_images(alpha, [g])
            lead = qring.bit_monomial(alpha, radices, image.bit_length() - 1)
            assert lead == evaluate(QPoly.monomial(g)).lead_term(), g
            assert qring.involution_fixes(image, radices), g
    rng = random.Random(2401)
    fixed = Counter()
    for m in range(1, 5):
        for _ in range(150):
            alpha, radices, image, poly = _random_block_int(rng, m)
            expected = involution(poly) == poly
            assert qring.involution_fixes(image, radices) == expected
            fixed[expected] += 1
            if image:
                top = image.bit_length() - 1
                assert (qring.bit_monomial(alpha, radices, top)
                        == poly.lead_term())
    assert fixed[True] > 50 and fixed[False] > 50


def _drop_y_part(radices, a, image):
    """Tr(A)'s image without its y^A part: prod_{i in A} (y_i + 1),
    which leads with y^A and is not fixed."""
    return image ^ 1 << sum(r for r, i in zip(radices, a) if i)


def _drop_least_y(radices, a, image):
    """Tr(A)'s image without its term y_a x^(A-a), a = min A: the lead
    stays, but the image is no longer fixed."""
    return image ^ 1 << radices[a.index(1)]


def _lone_trace_image(mutate):
    """An installer of a ``block_images`` that passes the image of a
    lone Tr(A), the call the generator check makes per trace, through
    ``mutate``."""
    def install(monkeypatch):
        images = oracle.block_images

        def mutant(alpha, terms):
            radices, found = images(alpha, terms)
            if len(terms) == 1 and terms[0].traces:
                found = [mutate(radices, terms[0].traces[0], found[0])]
            return radices, found

        monkeypatch.setattr(oracle, "block_images", mutant)
    install.__name__ = mutate.__name__
    return install


def _drop_norm_square(monkeypatch):
    """Install a ``block_images`` that drops y_i^2 from the image of a
    lone N_i."""
    images = oracle.block_images

    def mutant(alpha, terms):
        radices, found = images(alpha, terms)
        if len(terms) == 1 and any(terms[0].ne):
            square = 2 * radices[terms[0].ne.index(1)]
            found = [found[0] ^ 1 << square]
        return radices, found

    monkeypatch.setattr(oracle, "block_images", mutant)


def _max_member_leads(monkeypatch):
    """Install ``_max_member_lead`` as the oracle's ``summand_lead``."""
    monkeypatch.setattr(oracle, "summand_lead", _max_member_lead)


@pytest.mark.parametrize("mutate", [_drop_y_part, _drop_least_y])
def test_wrong_generator_image_falls_back(monkeypatch, eliminated, mutate):
    # a block_images that breaks the image of a lone Tr(A), the call the
    # generator check makes per generator, fails the check from degree
    # 2; the blocks of the eliminated fallback hold more than one term
    # and keep their images, so the report stays byte-identical
    expected = verify_relation_ideal(4, 8)
    _lone_trace_image(mutate)(monkeypatch)
    oracle._width_leads.cache_clear()
    assert oracle._generator_leads_hold(4, 1)
    assert not oracle._generator_leads_hold(4, 2)
    eliminated.clear()
    report = verify_relation_ideal(4, 8)
    assert eliminated == [(4, alpha) for d in range(2, 9)
                          for alpha in blocks.orbit_reps(d, 4)]
    assert report.to_text() == expected.to_text()
    assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
    assert report.degrees == expected.degrees


def test_wrong_norm_image_fails_the_check(monkeypatch, eliminated):
    # N_i has degree 2, above m = 1, so the check reaches degree
    # max(m, 2): an N_i image without its y_i^2 fails it at every width
    _drop_norm_square(monkeypatch)
    oracle._width_leads.cache_clear()
    for m in (1, 2, 3):
        assert oracle._generator_leads_hold(m, 1)
        assert not oracle._generator_leads_hold(m, 2)
        assert not oracle._generator_leads_hold(m, 7)


def _inserted(support, m, mono):
    """The monomial at width m whose pair ``support[i]`` is pair i of
    ``mono``, a monomial at width len(support), and zero elsewhere."""
    exps = [0] * (2 * m)
    for i, j in enumerate(support):
        exps[2 * j:2 * j + 2] = mono[2 * i:2 * i + 2]
    return tuple(exps)


def test_generators_embed_the_full_support_generators():
    # every generator at width m <= 8 is the image of the generator on
    # all of [k], k the size of its support, under the monotone
    # embedding onto that support: the same block int and member
    # radices, the embedded decoded lead and summand_lead, and the same
    # involution verdict, also on the image with any one bit flipped
    for m in range(1, 9):
        for g in _generators(m):
            alpha = multidegree(g)
            support = [i for i, a in enumerate(alpha) if a]
            full = make_qmon([g.xe[i] for i in support],
                             [g.ne[i] for i in support],
                             [[a[i] for i in support] for a in g.traces])
            beta = multidegree(full)
            radices, (image,) = qring.block_images(alpha, [g])
            weights, (base,) = qring.block_images(beta, [full])
            assert image == base, g
            assert [radices[i] for i in support] == list(weights), g
            top = image.bit_length() - 1
            assert qring.bit_monomial(alpha, radices, top) == _inserted(
                support, m, qring.bit_monomial(beta, weights, top)), g
            assert qring.summand_lead(g) == _inserted(
                support, m, qring.summand_lead(full)), g
            for flip in [0] + [1 << b for b in range(image.bit_length())]:
                assert qring.involution_fixes(image ^ flip, radices) == \
                    qring.involution_fixes(base ^ flip, weights), (g, flip)


@pytest.mark.parametrize("mutant", [
    None, _max_member_leads, _lone_trace_image(_drop_y_part),
    _lone_trace_image(_drop_least_y), _drop_norm_square])
def test_width_check_agrees_with_the_per_subset_reference(monkeypatch,
                                                          mutant):
    # the full-support generators decide what every generator of the
    # degrees a block can hold decides, for m <= 9 and d <= 2m + 1, with
    # the library's images and leads and under each wrong one above
    if mutant is not None:
        mutant(monkeypatch)
    verdicts = Counter()
    for m in range(1, 10):
        for d in range(2 * m + 2):
            expected = generator_leads_hold(m, d)
            assert oracle._generator_leads_hold(m, d) == expected, (m, d)
            verdicts[expected] += 1
    assert (verdicts[False] > 0) == (mutant is not None)


def test_each_width_is_checked_once(monkeypatch):
    # from cleared memos, the generator check at m = 13 through degree
    # 27 reads m + 1 images, x_0 and N_0 at width 1 and Tr([k]) at width
    # k = 2..13, and a second call reads none; a sweep at m = 4 after
    # one at m = 3 checks the shapes of width 4 alone
    read = []
    images = oracle.block_images

    def recording(alpha, terms):
        read.extend(terms)
        return images(alpha, terms)

    monkeypatch.setattr(oracle, "block_images", recording)
    assert oracle._generator_leads_hold(13, 27)
    assert [len(t.xe) for t in read] == [1, 1] + list(range(2, 14))
    read.clear()
    assert oracle._generator_leads_hold(13, 27)
    assert read == []
    widths = []
    check = oracle.shape_holds

    def checking(k, *shape):
        widths.append(k)
        return check(k, *shape)

    monkeypatch.setattr(oracle, "shape_holds", checking)
    assert verify_relation_ideal(3, 6).ok
    assert set(widths) == {2, 3}
    widths.clear()
    assert verify_relation_ideal(4, 8).ok
    assert widths and set(widths) == {4}


def test_passing_verify_decodes_no_image(monkeypatch, capsys):
    # a passing sweep reads the block ints alone: neither the generator
    # check nor the relation side decodes an image into a Poly
    calls = []
    original = qring.evaluate

    def counting(q):
        calls.append(q)
        return original(q)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "vecinv2"
                and getattr(module, "evaluate", None) is original):
            monkeypatch.setattr(module, "evaluate", counting)
    oracle._width_leads.cache_clear()
    assert cli.main(["verify", "-m", "4", "--dmax", "8"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls == []


def test_failed_generator_check_falls_back(monkeypatch, eliminated):
    # a degree whose generator check fails has every orbit
    # representative eliminated, and the report stays byte-identical
    expected = verify_relation_ideal(4, 8)
    assert eliminated == []
    monkeypatch.setattr(oracle, "_generator_leads_hold", lambda m, d: False)
    report = verify_relation_ideal(4, 8)
    assert eliminated == [(4, alpha) for d in range(2, 9)
                          for alpha in blocks.orbit_reps(d, 4)]
    assert report.to_text() == expected.to_text()
    assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
    assert report.degrees == expected.degrees


def _no_lead_route(monkeypatch):
    """Send every degree of a sweep to elimination."""
    monkeypatch.setattr(blocks.RelationSpans, "lead_count",
                        lambda self, d, several: None)


def test_sweep_enumerates_each_block_once(monkeypatch):
    # the shape route enumerates no block; on elimination (the caller
    # path, with the lead count off) the keys of each multiplier block
    # are enumerated once and kept for the rest of the sweep
    seen = Counter()
    enumerate_keys = blocks.RelationSpans._block_keys

    def counting(self, alpha):
        seen[self.m, alpha] += 1
        return enumerate_keys(self, alpha)

    monkeypatch.setattr(blocks.RelationSpans, "_block_keys", counting)
    assert verify_relation_ideal(4, 8).ok
    assert not seen
    assert max_relation_degree(3) == 6
    assert seen and max(seen.values()) == 1
    seen.clear()
    _no_lead_route(monkeypatch)
    assert verify_relation_ideal(4, 8, relations=relation_basis(4)).ok
    assert seen and max(seen.values()) == 1


def test_prime_keys_are_distinct_and_multiplicative():
    # a span column key is the product of one prime per symbol: distinct
    # monomials get distinct keys, and the key of a product is the
    # product of the keys, whatever its degree
    for m in (1, 2, 3):
        pack = blocks.RelationSpans(m)._pack
        found = [t for d in range(7) for alpha in blocks.compositions(d, m)
                 for t in blocks.block_monomials(m, alpha)]
        assert len(set(pack(found))) == len(set(found)) == len(found)
    rng = random.Random(2525)
    traced = 0
    for m in (1, 2, 3, 4):
        pack = blocks.RelationSpans(m)._pack
        for _ in range(300):
            s = random_qmon(rng, m, max_exp=4)
            t = random_qmon(rng, m, max_exp=4)
            (st,) = qring.times_monomial(s, QPoly.monomial(t))
            assert pack([st]) == [pack([s])[0] * pack([t])[0]], (s, t)
            traced += bool(s.traces and t.traces)
    assert traced > 100


def test_block_keys_are_the_packed_block_monomials():
    # the multiplier keys of a block, enumerated with no monomial built,
    # are the keys of its monomials
    for m in (1, 2, 3, 4):
        spans = blocks.RelationSpans(m)
        for e in range(9):
            for gamma in blocks.compositions(e, m):
                want = sorted(spans._pack(blocks.block_monomials(m, gamma)))
                assert sorted(spans._block_keys(gamma)) == want, (m, gamma)
                assert sorted(spans._multipliers(gamma)) == want


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


def test_orbit_reps_are_the_non_increasing_compositions():
    # listed as partitions, largest part first, they are the compositions
    # the filter keeps, in the same order
    for m in range(1, 7):
        for d in range(2 * m + 2):
            assert blocks.orbit_reps(d, m) == tuple(
                a for a in blocks.compositions(d, m)
                if all(map(ge, a, a[1:]))), (m, d)


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
    basis, basis4 = relation_basis(3), relation_basis(4)
    # type I on 1111 and IIIa A=1001 B=0110, both in block (1, 1, 1, 1)
    first, second = basis4[4], basis4[13]
    assert [first.label(), second.label()] == [
        "I A=1111 degree=4", "IIIa A=1001 B=0110 index=2 degree=4"]
    total = Relation("sum", first.a, second.a, None,
                     first.element + second.element, 4)
    # IIIc A=101 B=011 plus x3 times type I on 111, in block (1, 1, 2)
    lower, third = basis[0], basis[2]
    assert third.label() == "IIIc A=101 B=011 degree=4"
    shifted = Relation("shifted", third.a, third.b, None,
                       third.element + QPoly.x_power((0, 0, 1))
                       * lower.element, 4)
    cases = [
        (3, basis + [basis[0]], [basis[0].label()] * 2),
        # each of the three is the sum of the other two
        (4, basis4 + [total], [first.label(), second.label(),
                               total.label()]),
        # equal modulo a multiple of the degree-3 relation
        (3, basis + [shifted], [third.label(), shifted.label()]),
    ]
    for m, family, labels in cases:
        report = verify_relation_ideal(m, relations=family)
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


def _alpha_degree(k, alpha):
    """The degree of a shape of width k whose multidegree mask is
    ``alpha``: the sum of its bytes."""
    return sum(alpha.to_bytes(k, "big"))


def test_relations_are_evaluated_inside_the_sweep(monkeypatch):
    # the budget stops m = 4 at degree 4, so only the one degree-3 shape,
    # type I on [3], has been evaluated; no shape of degree 4..8 ever is
    calls = []

    def checking(k, alpha, lead, terms):
        calls.append(_alpha_degree(k, alpha))
        return check(k, alpha, lead, terms)

    def summing(q):
        calls.append(q.degree())
        return block_sums(q)

    # shapes are evaluated by the one-pass shape check, the relations of
    # a family passed in (or past a failed shape) by block_sums
    check = oracle.shape_holds
    monkeypatch.setattr(oracle, "shape_holds", checking)
    monkeypatch.setattr(oracle, "block_sums", summing)
    with pytest.raises(BudgetExceeded) as info:
        verify_relation_ideal(4, budget=10000)
    assert "at degree 4" in str(info.value)
    assert calls == [3]


def test_verify_m6_through_degree_ten():
    # generation and minimality at m = 6 through degree 10, where the
    # kernel has dimension 1461588; the kernel dimensions also confirm
    # that the generators span each degree's invariants
    report = verify_relation_ideal(6, 10, budget=10 ** 13)
    assert report.ok
    assert [r.degree for r in report.degrees] == list(range(2, 11))
    for r in report.degrees:
        assert r.kernel_dimension == (
            r.n_q_monomials - invariant_dimension(6, r.degree)), r.degree
    assert report.degrees[-1].kernel_dimension == 1461588


def test_verify_m6_full_certificate():
    # the whole declared family at m = 6, through its top degree 12,
    # where the kernel has dimension 13041836; every degree is decided
    # by the lead count
    report = verify_relation_ideal(6, budget=10 ** 15)
    assert report.ok
    assert report.to_text().splitlines()[-1] == (
        "PASS: generation + minimality, 1695 relations, max degree 12")
    assert [r.route for r in report.degrees] == ["leads"] * 11
    assert report.degrees[-1].kernel_dimension == 13041836


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
    # block images, whose bits number a block's monomials in mixed
    # radix, have the ranks and left kernels of the reference images'
    # rows with columns in poly_monomials order, block by block
    for m in range(1, 5):
        for d in range(7):
            index = {mono: i for i, mono in enumerate(poly_monomials(m, d))}
            assert len(index) == oracle._poly_count(m, d)
            full = q_monomials(m, d)
            linear = tuple(t for t in full if len(t.traces) <= 1)
            for basis in (full, linear):
                for alpha in blocks.compositions(d, m):
                    block = [t for t in basis if multidegree(t) == alpha]
                    want = [row_of(term_reference(t).terms, index)
                            for t in block]
                    _, got = qring.block_images(alpha, block)
                    assert left_kernel(got) == left_kernel(want), alpha
                    assert _rank(got) == _rank(want), alpha


def test_dropped_relation_reports_golden():
    for key, texts in GOLDENS["dropped"].items():
        m, flavor = int(key.split()[0]), key.split()[1]
        basis = relation_basis(m, flavor)
        assert len(texts) == len(basis)
        for position, want in enumerate(texts):
            pruned = basis[:position] + basis[position + 1:]
            report = verify_relation_ideal(m, flavor=flavor, relations=pruned)
            assert report.to_text() == want, (key, position)


def _dropped_families():
    """Families with one relation dropped: every drop at m = 3 and every
    ninth one at m = 4, the last included, in both flavors."""
    for m, step in ((3, 1), (4, 9)):
        for flavor in ("II", "III"):
            basis = relation_basis(m, flavor)
            for position in sorted({*range(0, len(basis), step),
                                    len(basis) - 1}):
                yield m, flavor, basis[:position] + basis[position + 1:]


def test_short_block_counterexamples_match_the_whole_kernel(monkeypatch):
    # the counterexample built from the short blocks alone is the first
    # member of the whole degree's kernel_basis outside the span, as
    # spans.missing finds it, in every report of the dropped families
    cases = list(_dropped_families())
    reports = [verify_relation_ideal(m, flavor=flavor, relations=family)
               for m, flavor, family in cases]
    monkeypatch.setattr(oracle, "_short_kernel",
                        lambda m, d, spans, kernel, budget:
                        kernel_basis(m, d, budget))
    for (m, flavor, family), got in zip(cases, reports):
        want = verify_relation_ideal(m, flavor=flavor, relations=family)
        assert not got.ok
        assert got.to_text() == want.to_text(), (m, flavor)
        assert got.to_json() == want.to_json()
        assert any(r.counterexample for r in got.degrees)


def test_graded_fallback_builds_no_whole_kernel(monkeypatch):
    # on the multigrading no failing degree builds kernel_basis, yet
    # every dropped family and the bogus m = 3 family names its
    # counterexamples
    def whole(*args, **kwargs):
        raise AssertionError("kernel_basis on the multigrading")

    monkeypatch.setattr(oracle, "kernel_basis", whole)
    for m, flavor, family in _dropped_families():
        report = verify_relation_ideal(m, flavor=flavor, relations=family)
        failed = [r for r in report.degrees if not r.generated]
        assert failed and failed[0].counterexample is not None
    bogus = verify_relation_ideal(3, relations=relation_basis(3) + [
        Relation("bogus", (1, 1, 0), None, None, formal_trace((1, 1, 0)),
                 2)])
    assert all(r.counterexample is not None for r in bogus.degrees)


def test_block_kernels_must_sum_to_the_degree(monkeypatch):
    # the short blocks are read off per-block kernel dimensions, which
    # must sum to the degree's; a mismatch raises, under python -O too
    family = relation_basis(3)[:-1]
    spans = blocks.RelationSpans(3)
    for p, r in enumerate(family):
        spans.add(p, _block(r), r.element)
    rank = spans.rank(6)
    kernel = oracle._q_count(3, 6) - evaluation_rank(3, 6)
    assert rank < kernel
    members = oracle._short_kernel(3, 6, spans, kernel, DEFAULT_BUDGET)
    assert members and set(members) <= set(kernel_basis(3, 6))
    # where the generator check fails, the blocks are eliminated, to the
    # same dimensions and members
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_generator_leads_hold", lambda m, d: False)
        assert oracle._short_kernel(
            3, 6, spans, kernel, DEFAULT_BUDGET) == members
    with pytest.raises(RuntimeError) as info:
        oracle._short_kernel(3, 6, spans, kernel + 1, DEFAULT_BUDGET)
    assert str(info.value) == (
        f"the block kernels of degree 6 sum to {kernel}, not {kernel + 1}")
    # the charge is kernel_basis's, taken before any block is built
    with pytest.raises(BudgetExceeded) as info:
        oracle._short_kernel(3, 6, spans, kernel, 10)
    assert str(info.value).startswith("kernel at degree 6 needs")


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
    text), and the sorted positions of the dependent relations.  It
    files each multiple of r at r.degree plus the multiplier's degree,
    so it is a reference only for relations declared at their own
    degree, the only ones verify accepts."""
    out = []
    dependent = set()
    stray = None
    unchecked = deque(sorted(relations, key=lambda r: r.degree))
    for d in range(2, d_max + 1):
        full = q_monomials(m, d)
        kernel_dimension = len(full) - _rank(_whole_rows(full))
        index = {}
        span = RowSpan()
        for r in relations:
            if r.degree < d:
                for mult in q_monomials(m, d - r.degree):
                    product = QPoly.monomial(mult) * r.element
                    span.add(row_of(product.terms, index))
        while stray is None and unchecked and unchecked[0].degree <= d:
            relation = unchecked.popleft()
            if reference_image(relation.element) != Poly.zero(m):
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
                (k for k in _whole_kernel(m, full)
                 if span.add(row_of(k.terms, index))), None)
        generated = stray is None and span_rank == kernel_dimension
        out.append((kernel_dimension, span_rank, generated,
                    str(counterexample) if counterexample else None))
    return out, sorted(dependent)


def _block(r):
    """The block ``RelationSpans`` files the relation r under."""
    return blocks.relation_block(r.degree, blocks.multidegrees(r.element))


def _shifted(m, family, position, lower):
    """``family`` with relation ``position`` replaced by itself plus a
    monomial multiple of relation ``lower`` that lies in its block: the
    same ideal and still minimal, but no longer the declared set."""
    r, s = family[position], family[lower]
    beta, gamma = _block(r), _block(s)
    mult = blocks.block_monomials(m, tuple(map(sub, beta, gamma)))[0]
    element = r.element + QPoly.monomial(mult) * s.element
    shifted = Relation("shifted", r.a, r.b, r.index, element, r.degree)
    return family[:position] + [shifted] + family[position + 1:]


def _route_table():
    """Families with the route verify takes at each degree: the declared
    ones for m <= 4, and mutants of them."""
    basis3 = relation_basis(3)
    basis4 = relation_basis(4)
    tr110 = Relation("bogus", (1, 1, 0), None, None,
                     formal_trace((1, 1, 0)), 2)
    multiple = Relation("multiple", (1, 1, 1), None, None,
                        QPoly.x_power((0, 0, 1)) * basis3[0].element, 4)
    # shifted relations and duplicates in blocks off the orbit
    # representatives (1, 1, 2), (0, 1, 1, 2), (1, 2, 2) and (1, 1, 2, 2)
    assert [_block(r)
            for r in (basis3[2], basis4[6], basis3[7], basis4[39])] == [
        (1, 1, 2), (0, 1, 1, 2), (1, 2, 2), (1, 1, 2, 2)]
    assert [r.degree for r in (basis3[1], basis4[5])] == [4, 4]
    # the lead count decides every degree of a declared family
    cases = [(m, flavor, relation_basis(m, flavor), ["leads"] * (2 * m - 1))
             for m in (1, 2, 3, 4) for flavor in ("II", "III")]
    cases += [
        # degree 2 fails, so the later degrees are counted on every block
        (3, "III", basis3 + [tr110], ["blocks"] * 5),
        # a repeated lead at degree 4
        (3, "III", basis3 + [basis3[4]], ["leads"] * 2 + ["blocks"]
         + ["leads"] * 2),
        # a multiple of the degree-3 relation in block (1, 1, 2): it lies
        # in J_beta, and its lead is not fresh
        (3, "III", basis3 + [multiple], ["leads"] * 2 + ["blocks"]
         + ["leads"] * 2),
        # the same multiple in place of the relation of block (1, 1, 2):
        # as many leads as the kernel needs, but one is not fresh
        (3, "III", basis3[:2] + basis3[3:] + [multiple],
         ["leads"] * 2 + ["blocks"] * 3),
        # degree 4 lacks the dropped relation: the count falls short
        (3, "III", basis3[:1] + basis3[2:], ["leads"] * 2 + ["blocks"] * 3),
        # generated degree by degree; the shifted relations keep their
        # leads, so the lead count decides throughout
        (3, "III", _shifted(3, basis3, 2, 0), ["leads"] * 5),
        (4, "III", _shifted(4, basis4, 6, 0), ["leads"] * 7),
        # degree 4 fails; the duplicate above it is found on every block
        (3, "III", basis3[:1] + basis3[2:] + [basis3[7]],
         ["leads"] * 2 + ["blocks"] * 3),
        (4, "III", basis4[:5] + basis4[6:] + [basis4[39]],
         ["leads"] * 2 + ["blocks"] * 5),
    ]
    return cases


def test_blocked_sweep_matches_whole_degree_matrices():
    basis3 = relation_basis(3)
    basis4 = relation_basis(4)
    reports = []
    for m, flavor, family, routes in _route_table():
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
    ranked, and the spans each degree keeps by block, after ``rank`` and
    any ``missing`` that follows it."""
    built = Counter()
    kept = {}
    degree = [None]

    class Counting(RowSpan):
        def __init__(self):
            super().__init__()
            built[degree[0]] += 1

    rank = blocks.RelationSpans.rank

    def ranking(self, d):
        degree[0] = d
        found = rank(self, d)
        kept[d] = self.spans
        return found

    monkeypatch.setattr(blocks, "RowSpan", Counting)
    monkeypatch.setattr(blocks.RelationSpans, "rank", ranking)
    return built, kept


def _occupied(family, d):
    """The blocks of degree d at or above the multidegree of a relation
    of ``family`` of degree at most d: those that hold something."""
    keys = {multidegree(next(iter(r.element.terms)))
            for r in family if r.degree <= d}
    return {alpha for alpha in blocks.compositions(d, family[0].element.m)
            if any(all(map(le, beta, alpha)) for beta in keys)}


def test_passing_sweep_builds_no_relation_span(monkeypatch):
    # the lead count decides every degree of a passing sweep, so no
    # relation span is built, not even J_alpha for one block
    built, _ = _count_span_builds(monkeypatch)
    report = verify_relation_ideal(4, 8)
    assert report.ok
    assert [r.route for r in report.degrees] == ["leads"] * 7
    assert not built


def test_passing_sweep_builds_one_span_per_block(monkeypatch):
    # on elimination a passing sweep builds J_alpha once for each block
    # alpha that holds something, the products of the lower relations,
    # and nothing more; the family is passed in, as the declared one is
    # decided on its shapes
    built, kept = _count_span_builds(monkeypatch)
    _no_lead_route(monkeypatch)
    family = relation_basis(4)
    report = verify_relation_ideal(4, 8, relations=family)
    assert report.ok
    assert [r.route for r in report.degrees] == ["blocks"] * 7
    assert {d: set(kept[d]) for d in kept} == {
        d: _occupied(family, d) for d in range(2, 9)}
    assert built == {d: len(kept[d]) for d in range(3, 9)}
    # of the comb(11, 3) = 165 blocks of degree 8, the 16 of the shapes
    # (8, 0, 0, 0) and (7, 1, 0, 0), under which no relation lies, are
    # skipped
    assert built[8] == 149


def test_generator_search_builds_one_span_per_block(monkeypatch):
    # max_relation_degree looks for the members its spans miss in J_alpha
    # as rank built it, closed in place by alpha's generators: a block
    # builds no second span
    built, kept = _count_span_builds(monkeypatch)
    assert max_relation_degree(4, budget=5 * 10 ** 8) == 8
    assert built == {d: len(kept[d]) for d in range(3, 10)}
    assert all(len(kept[d]) <= comb(d + 3, 3) for d in kept)


def _ranked(m, family, d_max, kernels):
    """``family`` fed to one RelationSpans degree by degree: per degree
    the span rank and the kernel members the span misses, then the
    dependent positions."""
    spans = blocks.RelationSpans(m)
    out = []
    for d in range(2, d_max + 1):
        for p, r in enumerate(family):
            if r.degree == d:
                spans.add(p, _block(r), r.element)
        rank = spans.rank(d)
        if (m, d) not in kernels:
            kernels[m, d] = kernel_basis(m, d)
        out.append((rank, list(spans.missing(d, kernels[m, d]))))
    return out, spans.dependent


def test_block_route_ranks_and_misses():
    # fed relations degree by degree, rank counts each block on its own
    # span and missing finds the kernel members that span lacks: every
    # degree of a declared family is generated with nothing missed, and
    # each case ends at its family's top degree or at its first failing
    # degree: (span rank, kernel dimension) there, and the members missed
    basis3 = relation_basis(3)
    cases = [(m, relation_basis(m, flavor), 2 * m, set(), None)
             for m in (2, 3, 4) for flavor in ("II", "III")]
    cases += [
        (3, basis3 + [basis3[4]], 6, {4, 11}, None),
        (3, basis3[:1] + basis3[2:], 4, set(), (8, 9)),
        (4, relation_basis(4)[:-1], 8, set(), (4920, 4921)),
    ]
    kernels = {}
    for m, family, d_max, dependent, short in cases:
        ranked, found = _ranked(m, family, d_max, kernels)
        for d, (rank, missed) in enumerate(ranked[:-1], start=2):
            assert (rank, missed) == (len(kernels[m, d]), []), (m, d)
        assert found == dependent, m
        kernel = len(kernels[m, d_max])
        rank, missed = ranked[-1]
        assert (rank, kernel) == (short or (kernel, kernel)), m
        assert len(missed) == kernel - rank
        assert all(blocks.relation_block(d_max, blocks.multidegrees(member))
                   for member in missed)


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

    # the shape route builds no row at all
    assert verify_relation_ideal(4, 8).ok
    block_sized(4, [])
    degree[0] = 8
    assert len(kernel_basis(4, 8)) == 8156 - evaluation_rank(4, 8)
    block_sized(4, [8])
    # without the degree-8 relation, degree 8 fails and takes its
    # counterexample from the kernels of the blocks where the span falls
    # short, and the span of its block
    basis = relation_basis(4)
    assert basis[-1].degree == 8
    report = verify_relation_ideal(4, 8, relations=basis[:-1])
    assert [r.generated for r in report.degrees] == [True] * 6 + [False]
    assert report.degrees[-1].counterexample is not None
    block_sized(4, [8])
    # degree 2 holds no relation and no kernel, so it builds no row
    assert max_relation_degree(3) == 6
    block_sized(3, list(range(3, 8)))
    # elimination at every degree that holds a relation, on the caller
    # path
    _no_lead_route(monkeypatch)
    assert verify_relation_ideal(4, 8, relations=basis).ok
    block_sized(4, list(range(3, 9)))
    assert _largest_block(4, 8) == 226


# ---------------------------------------------------------------------------
# the lead count of the relation spans


def _old_nu(sizes):
    """The order the lead count was first planned on, nu = (trace
    degree, sum of |A|^2), in place of ``blocks._nu``."""
    return sum(sizes), sum(k * k for k in sizes)


def _old_measure(t):
    return _old_nu([sum(a) for a in t.traces])


def test_quadratic_relations_lead_with_their_bare_pair():
    # under nu' the bare Tr(A)Tr(B) of each quadratic relation is its
    # strict maximum, so the pairs lead distinct relations
    cases = [(m, "III") for m in range(2, 8)]
    cases += [(m, "II") for m in range(2, 6)]
    for m, flavor in cases:
        zero = (0,) * m
        for r in relation_basis(m, flavor):
            if r.family == "I":
                continue
            pair = make_qmon(zero, zero, [r.a, r.b])
            assert pair in r.element.terms, r.label()
            top = blocks._measure(pair)
            assert all(blocks._measure(t) < top
                       for t in r.element.terms if t != pair), r.label()
    # under the old nu, Tr(A | B)Tr(A & B) tops a IIIc relation whose
    # sets share two members or more, so IIIc A=1110 B=1101 has the lead
    # of IIIb A=1111 B=1100
    iiic = type_iii_relation((1, 1, 1, 0), (1, 1, 0, 1))
    iiib = type_iii_relation((1, 1, 1, 1), (1, 1, 0, 0))
    assert (iiic.family, iiib.family) == ("IIIc", "IIIb")
    shared = make_qmon((0,) * 4, (0,) * 4, [(1, 1, 1, 1), (1, 1, 0, 0)])
    for r in (iiic, iiib):
        top = max(map(_old_measure, r.element.terms))
        assert [t for t in r.element.terms
                if _old_measure(t) == top] == [shared]


def test_type_i_shape_is_checked_once_per_width(monkeypatch):
    # type I on [k] is the same shape in every flavor, so verifying both
    # flavors checks it once per width, to the same reports
    expected = [verify_relation_ideal(4, 7, flavor=flavor).to_json()
                for flavor in ("III", "II")]
    oracle._shapes_hold.cache_clear()
    checked = []
    holds = oracle.shape_holds

    def counting(k, alpha, lead, terms):
        checked.append((k, lead[0] != 0))
        return holds(k, alpha, lead, terms)

    monkeypatch.setattr(oracle, "shape_holds", counting)
    reports = [verify_relation_ideal(4, 7, flavor=flavor).to_json()
               for flavor in ("III", "II")]
    assert reports == expected
    assert sorted(k for k, type_i in checked if type_i) == [3, 4]
    assert len(checked) > 2


def test_old_order_falls_back(monkeypatch):
    # under the old nu the IIIc shapes of degree 6 lead with Tr(A | B)
    # Tr(A & B), so the sweep leaves the shapes at degree 6; the leads of
    # degree 6 repeat and the pairs of degree 6 no longer all lead, so
    # degrees 6 to 8 are eliminated, to the same report
    expected = verify_relation_ideal(4, 8)
    monkeypatch.setattr(blocks, "_nu", _old_nu)
    oracle._shapes_hold.cache_clear()
    listed = set()
    walk = oracle.shape_cores

    def recording(k, d, flavor):
        listed.add(d)
        return walk(k, d, flavor)

    monkeypatch.setattr(oracle, "shape_cores", recording)
    report = verify_relation_ideal(4, 8)
    assert sorted(listed) == [2, 3, 4, 5, 6]
    assert [r.route for r in report.degrees] == ["leads"] * 4 + ["blocks"] * 3
    assert report.to_text() == expected.to_text()
    assert json.dumps(report.to_json()) == json.dumps(expected.to_json())


def _table_lead(r):
    """The lead the declared family's table gives r: Tr(A)Tr(B) for a
    quadratic, x_c Tr(C - {c}) for type I on C, c = min C."""
    m = len(r.a)
    zero = (0,) * m
    if r.b is not None:
        return make_qmon(zero, zero, [r.a, r.b])
    c = min_index(r.a)
    return make_qmon(singleton(m, c), zero, [r.a[:c] + (0,) + r.a[c + 1:]])


def test_lead_table_is_the_lead_of_every_declared_relation():
    # the closed-form lead is RelationSpans._lead's on every declared
    # relation for m <= 6, in both flavors, and both the reference
    # shape_leads_hold and the one-pass shape_holds pass every shape:
    # type I ties x_c1 Tr(C - c1) with x_c2 Tr(C - c2), and _lead must
    # break the tie towards the least member c1
    for m in range(1, 7):
        for flavor in ("II", "III"):
            for r in relation_basis(m, flavor):
                assert blocks.RelationSpans._lead(r.element) == _table_lead(
                    r), r.label()
            for d in range(2 * m + 1):
                assert all(map(shape_leads_hold,
                               relation_shapes(m, d, flavor)))
                assert all(shapes.shape_holds(m, *shape)
                           for shape in shapes.shape_cores(m, d, flavor))


def test_shape_check_refuses_a_term_of_one_factor():
    # a term that is a single generator keeps the lead of type I on [3]
    # but could be a divisor of another relation's lead, so the shape
    # fails the check; so does a shape whose lead is off the table
    shape = relations._type_i((1, 1, 1))
    assert shape_leads_hold(shape)
    norm = make_qmon((0, 0, 0), (1, 0, 0), [])
    bare = shape.element + QPoly.monomial(norm)
    assert blocks.RelationSpans._lead(bare) == _table_lead(shape)
    for element in (bare, QPoly.x_power((1, 0, 0)) * shape.element):
        assert not shape_leads_hold(
            Relation("I", shape.a, None, None, element, 3))
    # on the core's terms: Tr(C) itself, of the shape's multidegree, and
    # a pair of such terms, which cancel
    ((alpha, lead, terms),) = shapes.shape_cores(3, 3)
    assert shapes.shape_holds(3, alpha, lead, terms)
    assert not shapes.shape_holds(3, alpha, lead, terms + [(0, 0, alpha)])
    assert not shapes.shape_holds(3, alpha, lead, terms + [(0, 0, alpha)] * 2)


def test_shape_check_reads_each_term_on_its_own():
    # the one-pass check does not depend on the order of the terms; it
    # leaves type I's tie to _tie_break, so x_c Tr(C - c) leads only at
    # c = 0; it refuses a term off the shape's block, here one copy of
    # x_1 x_2 x_3 times x_1, which an image at x = 1 cannot tell from
    # the copy; and it refuses a one-factor term even where a
    # duplicate cancels it, where the collected element would pass
    for k in range(1, 6):
        for flavor in ("II", "III"):
            for d in range(2 * k + 1):
                for alpha, lead, terms in shapes.shape_cores(k, d, flavor):
                    assert shapes.shape_holds(k, alpha, lead, terms[::-1])
    for k in range(3, 7):
        alpha, (_, n, _), terms = next(shapes.shape_cores(k, k))
        for member in range(1, k):
            x = 1 << 8 * (k - 1 - member)
            assert not shapes.shape_holds(k, alpha, (x, n, (alpha ^ x,)),
                                          terms)
    ((alpha, lead, terms),) = shapes.shape_cores(3, 3)
    off = [(x + (1 << 16), n, t) if t == 0x000001 else (x, n, t)
           for x, n, t in terms]
    assert not shapes.shape_holds(3, alpha, lead, off)
    assert not vanishes(QPoly(3, parity_collect(
        t for t in (relations._term(3, *t) for t in off) if t)))
    disjoint = [shape for shape in shapes.shape_cores(4, 4)
                if shape[1][2] == (0x01010000, 0x00000101)]
    ((alpha, lead, terms),) = disjoint
    assert shapes.shape_holds(4, alpha, lead, terms)
    assert not shapes.shape_holds(4, alpha, lead,
                                  terms + [(0, 0, alpha)] * 2)


def test_standard_count_is_the_invariant_dimension():
    # the standard monomials of the declared leads number the invariants
    # of every degree: the series identity the shape route rests on
    for m in range(1, 13):
        for d in range(41):
            assert oracle._standard_count(m, d) == invariant_dimension(
                m, d), (m, d)


def test_closed_count_is_the_lead_count(monkeypatch):
    # the shape route's span rank, q_count - standard_count, is what the
    # lead count finds from the relations filed, at every degree through
    # 2m + 1 for m <= 7, with the declared family passed in
    counted = {}
    lead_count = blocks.RelationSpans.lead_count

    def recording(self, d, several):
        counted[d] = lead_count(self, d, several)
        return counted[d]

    monkeypatch.setattr(blocks.RelationSpans, "lead_count", recording)
    for m in range(1, 8):
        for flavor in ("II", "III"):
            counted.clear()
            report = verify_relation_ideal(
                m, 2 * m + 1, flavor, budget=10 ** 30,
                relations=relation_basis(m, flavor))
            assert report.ok
            assert counted == {
                d: oracle._q_count(m, d) - oracle._standard_count(m, d)
                for d in range(2, 2 * m + 2)}, (m, flavor)


def _stray_type_i(monkeypatch):
    """A type I core that drops a term on four pairs, so that type I on
    [4] does not vanish, as a shape and as a relation."""
    core = relations._core_i
    monkeypatch.setattr(relations, "_core_i", lambda c: core(c)[
        c.bit_count() == 4:])
    return 4


def _failing_leads(monkeypatch):
    """A lead table that names a wrong lead, an extra x, for every shape
    of degree 6."""
    check = oracle.shape_holds

    def checking(k, alpha, lead, terms):
        if _alpha_degree(k, alpha) == 6:
            lead = (lead[0] + 1,) + lead[1:]
        return check(k, alpha, lead, terms)

    monkeypatch.setattr(oracle, "shape_holds", checking)
    return 6


def _missed_count(monkeypatch):
    """A standard count one too high at degree 5."""
    count = oracle._standard_count
    monkeypatch.setattr(oracle, "_standard_count",
                        lambda m, d: count(m, d) + (d == 5))
    return 5


@pytest.mark.parametrize("mutant",
                         [_stray_type_i, _failing_leads, _missed_count])
def test_failed_shape_falls_back(monkeypatch, mutant):
    # a shape that does not vanish, a shape that leads off the table, or
    # a count that misses the kernel dimension sends the sweep down the
    # per-relation path from that degree on: the relations below it are
    # filed first, in order, and each mutant's report, routes included,
    # is the one the family passed in gets
    shaped, walk = [], oracle.shape_cores
    listed, due = [], oracle.relations_of_degree

    def shaping(k, d, flavor):
        shaped.append(d)
        return walk(k, d, flavor)

    def listing(m, d, flavor):
        listed.append(d)
        return due(m, d, flavor)

    expected = verify_relation_ideal(4, 8)
    d = mutant(monkeypatch)
    oracle._shapes_hold.cache_clear()
    monkeypatch.setattr(oracle, "shape_cores", shaping)
    monkeypatch.setattr(oracle, "relations_of_degree", listing)
    report = verify_relation_ideal(4, 8)
    assert (max(shaped), listed) == (d, list(range(2, 9)))
    passed = verify_relation_ideal(4, 8, relations=relation_basis(4))
    assert report.to_text() == passed.to_text()
    assert json.dumps(report.to_json()) == json.dumps(passed.to_json())
    assert report.degrees == passed.degrees
    # only the stray changes the verdict
    assert report.ok == (mutant is not _stray_type_i)
    assert (report == expected) == report.ok


def _tied_quadratics(monkeypatch):
    """Quadratic cores that write their first term, Tr(A)Tr(B), twice
    more: every relation stays as it was, but the top terms of every
    quadratic shape tie."""
    core_ii, core_iii = relations._core_ii, relations._core_iii

    def tied(a, b):
        *named, terms = core_iii(a, b)
        return (*named, terms + terms[:1] * 2)

    monkeypatch.setattr(relations, "_core_ii",
                        lambda a, b: core_ii(a, b) + [(0, 0, a, b)] * 2)
    monkeypatch.setattr(relations, "_core_iii", tied)


def test_tied_representative_falls_back(monkeypatch):
    # a class representative whose top terms tie is refused, even where
    # the tied terms collect to its table lead alone, as it stands for
    # shapes the tie-break would read in another pair order; type I on
    # [k], a class of its own, still has its tie broken.  The sweep
    # takes the per-relation path from degree 4, the first with a
    # quadratic, to the report the family passed in gets, which is the
    # declared one
    shaped, walk = [], oracle.shape_cores
    listed, due = [], oracle.relations_of_degree

    def shaping(k, d, flavor):
        shaped.append(d)
        return walk(k, d, flavor)

    def listing(m, d, flavor):
        listed.append(d)
        return due(m, d, flavor)

    for flavor in ("II", "III"):
        expected = verify_relation_ideal(4, 8, flavor)
        with monkeypatch.context() as patch:
            _tied_quadratics(patch)
            oracle._shapes_hold.cache_clear()
            for k in range(1, 6):
                for d in range(2 * k + 1):
                    for alpha, lead, terms in shapes.shape_cores(k, d, flavor):
                        x, n, traces = lead
                        assert shapes.shape_holds(k, alpha, lead, terms) == (
                            len(traces) == 1)
                        if len(traces) > 1:
                            assert shapes.shape_holds(k, alpha, lead,
                                                      terms[:-2])
                        else:
                            assert shapes.shape_holds(
                                k, alpha, lead, terms + [(x, n, *traces)] * 2)
            shaped.clear()
            listed.clear()
            patch.setattr(oracle, "shape_cores", shaping)
            patch.setattr(oracle, "relations_of_degree", listing)
            report = verify_relation_ideal(4, 8, flavor)
            assert (max(shaped), listed) == (4, list(range(2, 9)))
            passed = verify_relation_ideal(
                4, 8, flavor, relations=relation_basis(4, flavor))
        assert report.to_text() == passed.to_text()
        assert json.dumps(report.to_json()) == json.dumps(passed.to_json())
        assert report == passed == expected


def test_one_pass_check_agrees_with_the_reference():
    # exhaustively for k <= 6, d <= 2k, both flavors: the one-pass check
    # on the core terms of every shape, not only the class
    # representatives that shape_cores lists, accepts exactly where the
    # built relation vanishes and passes the reference lead-table and
    # two-factor check
    seen = 0
    for k in range(1, 7):
        for flavor in ("II", "III"):
            for d in range(2 * k + 1):
                for shape, r in zip(every_shape_core(k, d, flavor),
                                    relation_shapes(k, d, flavor)):
                    assert shapes.shape_holds(k, *shape), r.label()
                    assert vanishes(r.element) and shape_leads_hold(r)
                    seen += 1
    assert seen == 2 * sum((3 ** k - 4 * k - 1) // 2 + 1
                           for k in range(3, 7)) + 2


def _dropped_term(monkeypatch):
    """Quadratic cores that drop their last term."""
    core_ii, core_iii = relations._core_ii, relations._core_iii

    def dropped(a, b):
        *named, terms = core_iii(a, b)
        return (*named, terms[:-1])

    monkeypatch.setattr(relations, "_core_ii", lambda a, b: core_ii(a, b)[:-1])
    monkeypatch.setattr(relations, "_core_iii", dropped)
    return ("II", "III")


def _moved_member(monkeypatch):
    """A IIIb core whose last term singles out the greatest member of B,
    the others its least."""
    core = relations._core_iii

    def moved(a, b):
        family, a, b, i, terms = core(a, b)
        if family == "IIIb":
            g = b & -b
            terms = terms[:-1] + [(g, b ^ g, (a & ~b) | g)]
        return family, a, b, i, terms

    monkeypatch.setattr(relations, "_core_iii", moved)
    return ("III",)


def _swapped_types(monkeypatch):
    """A IIIb core whose second term swaps A and B: x_i Tr(B)Tr(A - i)
    for x_i Tr(A)Tr(B - i)."""
    core = relations._core_iii

    def swapped(a, b):
        family, a, b, i, terms = core(a, b)
        if family == "IIIb":
            terms = terms[:1] + [(i, 0, b, a ^ i)] + terms[2:]
        return family, a, b, i, terms

    monkeypatch.setattr(relations, "_core_iii", swapped)
    return ("III",)


def _single_factor(monkeypatch):
    """A type I core that keeps the term of L = C, Tr(C) alone."""
    core = relations._core_i
    monkeypatch.setattr(relations, "_core_i", lambda c: core(c) + [(0, 0, c)])
    return ("II", "III")


@pytest.mark.parametrize("mutant", [_dropped_term, _moved_member,
                                    _swapped_types, _single_factor])
def test_mutated_cores_are_refused(monkeypatch, mutant):
    # a mutated core changes the constructors and the shapes alike: the
    # one-pass check agrees with the reference on every shape for
    # k <= 6, refuses some, and the sweep on the class representatives
    # falls back to the report, routes included, that the mutated family
    # gets when passed in
    for flavor in mutant(monkeypatch):
        refused = 0
        for k in range(1, 7):
            for d in range(2 * k + 1):
                for shape, r in zip(every_shape_core(k, d, flavor),
                                    relation_shapes(k, d, flavor)):
                    holds = shapes.shape_holds(k, *shape)
                    assert holds == (vanishes(r.element)
                                     and shape_leads_hold(r)), r.label()
                    refused += not holds
        assert refused, flavor
        report = verify_relation_ideal(4, 8, flavor)
        passed = verify_relation_ideal(
            4, 8, flavor, relations=relation_basis(4, flavor))
        assert not report.ok
        assert report.to_text() == passed.to_text()
        assert json.dumps(report.to_json()) == json.dumps(passed.to_json())
        assert report.degrees == passed.degrees


def test_member_moved_within_b_is_a_relation(monkeypatch):
    # IIIb singling out the greatest member of B in every term is still
    # a vanishing relation with the table's lead, so the shapes accept
    # it and the sweep passes as the declared family does; the second
    # sweep must write its IIIb shapes through the moved core
    core, moved = relations._core_iii, []

    def greatest(a, b):
        family, a, b, i, terms = core(a, b)
        if family != "IIIb":
            return family, a, b, i, terms
        moved.append((a, b))
        g = b & -b
        rest = b ^ g
        return family, a, b, g, [
            (0, 0, a, b), (g, 0, a, rest), (0, g, a ^ g, rest),
            (g, rest, (a & ~b) | g)]

    expected = verify_relation_ideal(4, 8)
    monkeypatch.setattr(relations, "_core_iii", greatest)
    oracle._shapes_hold.cache_clear()
    assert relations._type_iii((1, 1, 1), (1, 1, 0)).index == 1
    moved.clear()
    report = verify_relation_ideal(4, 8)
    assert moved
    assert [r.route for r in report.degrees] == ["leads"] * 7
    assert report == expected


def _reference_top(m, e):
    """The largest monomial of degree e under ``qmon_key``, by search:
    the greatest trace degree that trace sizes 2..m can make, the trace
    list found depth first over every subset, largest first, then the
    rest on N_0 and x_0."""
    subsets = sorted(all_subsets(m, min_size=2), reverse=True)

    def search(rest, start):
        if rest == 0:
            return ()
        for i in range(start, len(subsets)):
            if sum(subsets[i]) <= rest:
                tail = search(rest - sum(subsets[i]), i)
                if tail is not None:
                    return (subsets[i],) + tail
        return None

    for degree in range(e, -1, -1):
        traces = search(degree, 0)
        if traces is not None:
            free = e - degree
            zero = (0,) * (m - 1)
            return make_qmon((free % 2,) + zero, (free // 2,) + zero, traces)


def test_top_monomial_is_the_first_q_monomial():
    # the stray's lift, written down directly, is q_monomials(m, e)[0]
    # wherever that is enumerated cheaply, and the search's largest
    # monomial for every m <= 7, e <= 14
    for m in range(1, 8):
        for e in range(15):
            top = qring.largest_qmon(m, e)
            assert top == _reference_top(m, e), (m, e)
            assert qmon_degree(top) == e
            if oracle._q_count(m, e) <= 40000:
                assert top == q_monomials(m, e)[0], (m, e)
    # the bogus m = 3 family's counterexamples are its lifts
    bogus = formal_trace((1, 1, 0))
    report = verify_relation_ideal(3, relations=relation_basis(3) + [
        Relation("bogus", (1, 1, 0), None, None, bogus, 2)])
    assert [r.counterexample for r in report.degrees] == [
        QPoly.monomial(q_monomials(3, d - 2)[0]) * bogus
        for d in range(2, 7)]


def _lifted_verify(m, d_max, budget):
    """``python -m vecinv2 verify -m m --dmax d_max`` at ``budget`` as a
    process, in JSON: its stdout and wall time, after asserting it
    passed."""
    package_root = str(Path(oracle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "vecinv2", "verify", "-m", str(m), "--dmax",
         str(d_max), "--budget", str(budget), "--format", "json"],
        capture_output=True, env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"]
    return proc.stdout, wall


def test_verify_m11_through_degree_23():
    # lifted m = 11 through 2m + 1, whole process: the declared family
    # passes on its size classes in under 5 s and 200 MB, its JSON
    # report pinned by digest
    out, wall = _lifted_verify(11, 23, 10 ** 40)
    assert hashlib.sha256(out).hexdigest() == (
        "1f029f9eadd6eefd86e13427f9d8b23a453afe19b3da0646c4f14a2f549cf041")
    assert wall < 5
    # ru_maxrss is in KB on Linux
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 200 * 1024


@pytest.mark.slow
def test_verify_m16_through_degree_33():
    # lifted m = 16 through 2m + 1, whole process, on 491 class
    # representatives in place of about 3^16 shapes: under 10 s and
    # 200 MB, its JSON report pinned by digest
    out, wall = _lifted_verify(16, 33, 10 ** 80)
    assert hashlib.sha256(out).hexdigest() == (
        "b06a2e47371c906bcd93a55513a27078f6224ac58bfb759a292a9850069b43f0")
    assert wall < 10
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 200 * 1024


@pytest.mark.slow
def test_verify_m5_without_its_last_relation():
    # the m = 5 family without its degree-10 relation, lifted, as a
    # process: it fails at degree 10 with the report of the whole-degree
    # kernel, from its short blocks alone, in under 5 s and 150 MB
    package_root = str(Path(oracle.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    script = (
        "import json, resource\n"
        "from vecinv2.oracle import verify_relation_ideal\n"
        "from vecinv2.relations import relation_basis\n"
        "basis = relation_basis(5)\n"
        "report = verify_relation_ideal(5, relations=basis[:-1],"
        " budget=10 ** 12)\n"
        "print(report.to_text())\n"
        "print(json.dumps(report.to_json()))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    *text, blob, rss = proc.stdout.splitlines()
    assert text[-1] == "FAIL: generation"
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == (
        "33009590ec689d9657ab5dbf7b46a1f7c698d354593b75a53427e8b5dfeb058c")
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "d40fb4dcf5f5e10ba9049cc2f12052af38174ebf4a413752b752a9f7a1747fca")
    assert wall < 5
    # ru_maxrss is in KB on Linux
    assert int(rss) < 150 * 1024


def _leads_against_elimination(m, family, d_max):
    """``family`` swept as verify sweeps it, with the lead count and
    ``RelationSpans.rank`` both run on each degree they may see.  A lead
    count never tops the eliminated rank, and where it meets the kernel
    dimension elimination finds that rank and no dependent relation.
    Returns the degrees the lead count decides."""
    spans = blocks.RelationSpans(m)
    decided = []
    vanishing = True
    for d in range(2, d_max + 1):
        kernel = oracle._q_count(m, d) - evaluation_rank(m, d, 10 ** 12)
        for p, r in enumerate(family):
            if max(r.degree, 2) == d:
                spans.add(p, _block(r), r.element)
                vanishing = vanishing and vanishes(r.element)
        count = None
        if vanishing:
            count = spans.lead_count(
                d, oracle._q_count(m, d) - oracle._trace_linear_count(m, d))
        dependent = set(spans.dependent)
        rank = spans.rank(d)
        if count is not None:
            assert count <= rank, (m, d)
        if count == kernel:
            assert (rank, spans.dependent) == (count, dependent), (m, d)
            decided.append(d)
    return decided


def test_lead_count_agrees_with_elimination():
    cases = [(m, flavor, relation_basis(m, flavor)) for m in (1, 2, 3, 4, 5)
             for flavor in ("II", "III")]
    cases += [(m, flavor, family) for m, flavor, family, _ in _route_table()]
    for m, flavor, family in cases:
        decided = _leads_against_elimination(m, family, 2 * m)
        report = verify_relation_ideal(m, flavor=flavor, relations=family,
                                       budget=10 ** 12)
        assert decided == [r.degree for r in report.degrees
                           if r.route == "leads"], (m, flavor, len(family))
    assert decided  # the last case, a mutant, is decided at degrees 2, 3


def _enumerated_covered(monomials, linear):
    """How many of the trace-linear ``monomials`` some lead in ``linear``
    divides, each monomial tested.  ``linear`` groups trace-linear
    leads by their traces; a lead divides a monomial when it has the
    monomial's trace or none, and no larger x or N exponent."""
    free = linear.get((), [])
    return sum(any(all(map(le, lead.xe, t.xe)) and all(map(le, lead.ne, t.ne))
                   for lead in linear.get(t.traces, []) + (
                       free if t.traces else []))
               for t in monomials)


def _enumerated_block_covered(m, d, linear):
    """``_enumerated_covered`` over the trace-linear monomials of every
    block of degree d."""
    return sum(_enumerated_covered(trace_linear_monomials(m, alpha), linear)
               for alpha in blocks.compositions(d, m))


def _x_trace(m, c, trace):
    """The lead x_c Tr(trace)."""
    return QMon(tuple(int(i == c) for i in range(m)), (0,) * m, (trace,))


def test_covered_count_matches_enumeration():
    # the closed form counts, over every block of the degree, the
    # trace-linear monomials some lead x_c Tr(B) divides, for any lead
    # map: here seeded random ones, S_m-stable or not, on traces of
    # size up to the degree
    rng = random.Random(3011)
    subsets = {m: all_subsets(m, min_size=2) for m in range(1, 5)}
    compared = 0
    for m in range(1, 5):
        for d in range(2, 2 * m + 2):
            for _ in range(12):
                below = {trace: set(rng.sample(range(m), rng.randint(1, m)))
                         for trace in subsets[m]
                         if sum(trace) <= d and rng.random() < 0.5}
                linear = {(trace,): [_x_trace(m, c, trace) for c in indices]
                          for trace, indices in below.items()}
                assert blocks._covered_count(m, d, below) == \
                    _enumerated_block_covered(m, d, linear), (m, d, below)
                compared += bool(below)
    assert compared > 120  # of 240 maps, most hold a lead


def test_closed_covered_matches_enumeration(monkeypatch):
    # wherever the lead count reaches its closed-form _covered_count,
    # the total is the enumerated one over every block of the degree,
    # from every lower trace-linear lead, those it drops included: on
    # the declared families for m <= 5 through degree 2m + 1, passed in
    # so that the lead count runs, and on the route-table families
    asked = []
    covered = blocks._covered_count
    lead_count = blocks.RelationSpans.lead_count
    compared = Counter()

    def recording(m, d, below):
        asked.append(covered(m, d, below))
        return asked[-1]

    def checking(self, d, several):
        asked.clear()
        total = lead_count(self, d, several)
        if asked:
            linear = {}
            for block in self.filed:
                if sum(block) < d:
                    for lead in self._leads(block):
                        if len(lead.traces) < 2:
                            linear.setdefault(lead.traces, []).append(lead)
            (count,) = asked
            assert count == _enumerated_block_covered(self.m, d, linear), (
                self.m, d)
            compared[self.m] += 1
        return total

    monkeypatch.setattr(blocks, "_covered_count", recording)
    monkeypatch.setattr(blocks.RelationSpans, "lead_count", checking)
    for m in range(1, 6):
        for flavor in ("II", "III"):
            assert verify_relation_ideal(
                m, 2 * m + 1, flavor, budget=10 ** 40,
                relations=relation_basis(m, flavor)).ok
    assert all(compared[m] for m in range(1, 6))
    compared.clear()
    for m, flavor, family, _ in _route_table():
        verify_relation_ideal(m, flavor=flavor, relations=family)
    assert compared[3] and compared[4]


def test_passed_in_family_of_another_width_is_refused():
    # checked before any degree: a budget of 1 would stop degree 2
    basis3, basis4 = relation_basis(3), relation_basis(4)
    for m, family, offender in [(3, basis4, basis4[0]),
                                (4, basis3, basis3[0]),
                                (3, basis3 + [basis4[5]], basis4[5])]:
        with pytest.raises(DimensionMismatch,
                           match=re.escape(offender.label())):
            verify_relation_ideal(m, budget=1, relations=family)


def _times(relation, x):
    """``relation`` times the monomial x^x, still declared at its own
    degree."""
    return Relation(relation.family, relation.a, relation.b, relation.index,
                    QPoly.x_power(x) * relation.element, relation.degree)


def test_relation_off_its_declared_multidegree_is_refused():
    # the multigrading is the sweep's only grading, so a relation passed
    # in whose terms do not share one multidegree summing to its
    # declared degree, the zero element included, is refused where the
    # sweep files it, by its label, declared degree and multidegrees.
    # The first two, the last relation times x1 (x4 at m = 4) declared
    # at its old degree, would otherwise have their multiples counted a
    # degree too low, and read PASS
    basis3, basis4 = relation_basis(3), relation_basis(4)
    first, second = [r for r in basis3 if r.degree == 4][:2]
    assert _block(first) != _block(second)
    mixed = Relation("sum", first.a, second.a, None,
                     first.element + second.element, 4)
    # a genuine relation of degree 9 declared at degree 2
    heavy = Relation("heavy", (0, 1, 1), (0, 1, 1), 2, QPoly.x_power(
        (5, 0, 0)) * basis3[1].element, 2)
    assert {qmon_degree(t) for t in heavy.element.terms} == {9}
    assert evaluate(heavy.element) == Poly.zero(3)
    zero = Relation("zero", (1, 1, 1), None, None, QPoly.zero(3), 3)
    cases = [
        (3, basis3[:-1] + [_times(basis3[-1], (1, 0, 0))], [(3, 2, 2)]),
        (4, basis4[:-1] + [_times(basis4[-1], (0, 0, 0, 1))],
         [(2, 2, 2, 3)]),
        (3, basis3 + [mixed], [(0, 2, 2), (1, 1, 2)]),
        (3, basis3 + [heavy], [(5, 2, 2)]),
        (3, basis3 + [zero], []),
    ]
    for m, family, alphas in cases:
        offender = family[-1]
        with pytest.raises(ValueError) as info:
            verify_relation_ideal(m, relations=family)
        assert str(info.value) == (
            f"relation {offender.label()} is declared at degree"
            f" {offender.degree}, but its terms have the multidegrees"
            f" {alphas}")
    assert cases[0][1][-1].label() == "IIIb A=111 B=111 index=1 degree=6"
    assert cases[1][1][-1].label() == (
        "IIIb A=1111 B=1111 index=1 degree=8")


def test_declared_relations_are_built_at_their_degree(monkeypatch):
    # m = 8 stops at degree 5; only the 1 + 4 class representatives of
    # degree 3 and 4 at k <= 8 are built, type I on [3] and [4] and one
    # pair of two-member sets covering [2], [3] and [4] each, with
    # (|S|, |X|, |Y|) = (2, 0, 0), (1, 1, 1) and (0, 2, 2): not the seven
    # shapes of those pairs, nor the 56 + 476 relations of those degrees,
    # nor all 30847
    built = []

    def counting(core):
        def wrapper(*masks):
            built.append(sum(mask.bit_count() for mask in masks))
            return core(*masks)
        return wrapper

    # the shapes run the cores of the constructors, on masks
    for name in ("_core_i", "_core_iii"):
        monkeypatch.setattr(relations, name,
                            counting(getattr(relations, name)))
    with pytest.raises(BudgetExceeded) as info:
        verify_relation_ideal(8)
    assert str(info.value) == (
        "evaluation rank at degree 5 needs a 15088 x 15504 matrix "
        "(233924352 entries > budget 100000000)")
    assert sorted(built) == [3] + [4] * 4


def test_declared_family_is_listed_degree_by_degree(monkeypatch):
    # the sweep lists the shapes of only the degrees it reaches, at every
    # width k <= m, and counts the rest in closed form: m = 6 lists
    # degrees 2 to 5 of its 1695 relations; a passing sweep lists no
    # relation of the family itself
    listed = []
    walk = oracle.shape_cores

    def recording(k, d, flavor):
        listed.append((d, k))
        return walk(k, d, flavor)

    def whole(*args):
        raise AssertionError("the whole family was listed")

    monkeypatch.setattr(oracle, "shape_cores", recording)
    monkeypatch.setattr(oracle, "relations_of_degree", whole)
    monkeypatch.setattr(relations, "relation_degrees", whole)
    with pytest.raises(BudgetExceeded):
        verify_relation_ideal(6)
    assert listed == [(d, k) for d in range(2, 6) for k in range(1, 7)]
    listed.clear()
    oracle._shapes_hold.cache_clear()
    report = verify_relation_ideal(4, 5)
    assert listed == [(d, k) for d in range(2, 6) for k in range(1, 5)]
    assert (report.n_relations, report.max_degree, report.n_unchecked) == (
        71, 8, 21)
