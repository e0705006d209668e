"""The two rewrite procedures: eliminating products of trace symbols,
and certifying trace-linear kernel elements as combinations of the
cubic-and-up relations."""

import json
import random

import pytest

from vecinv2 import rewrite
from vecinv2.invariants import transfer
from vecinv2.poly import (
    DimensionMismatch,
    Poly,
    ZeroPolynomialError,
    all_subsets,
    cardinality,
    monomial_key,
    monomial_text,
    parity_update,
)
from vecinv2.oracle import linear_kernel_basis
from vecinv2.qring import (
    QMon,
    QPoly,
    evaluate,
    formal_trace,
    make_qmon,
    qmon_key,
    qmon_trace_degree,
)
from vecinv2.relations import VacuousRelationError, type_i_relation
from vecinv2.rewrite import (
    LinearCertificate,
    NotARelationError,
    NotTraceLinearError,
    ReductionTrace,
    linear_reduce,
    normal_form,
    reduce_product,
    summand_lead,
)

from conftest import (
    lead_achievers,
    random_qpoly,
    reference_combination,
    reference_descend,
    reference_normal_form,
    reference_replay,
    replace,
)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_reduce_product_golden_nested():
    trace = reduce_product((1, 1), (1, 1))
    assert len(trace.steps) == 1
    assert str(trace.result) == "x1*x2*Tr(11) + x2^2*N1 + x1^2*N2"
    step = trace.steps[0]
    assert step.relation.family == "IIIb"
    assert str(QPoly.monomial(step.multiplier)) == "1"
    assert step.measure == (4, 4)
    assert trace.verify()


def test_reduce_product_golden_disjoint():
    trace = reduce_product((1, 1, 0, 0), (0, 0, 1, 1))
    assert len(trace.steps) == 1
    assert str(trace.result) == (
        "x4*Tr(1110) + x3*Tr(1101) + x3*x4*Tr(1100)")
    assert trace.verify()


def test_reduce_product_rejects_singletons():
    with pytest.raises(VacuousRelationError):
        reduce_product((1, 0), (1, 1))
    with pytest.raises(VacuousRelationError):
        reduce_product((1, 1), (0, 0))


def test_reduce_product_checks_its_subsets():
    # the start is built as one monomial, after the checks that
    # formal_trace and the product of the two symbols make, in order
    widths = "mixed widths: m=2 vs m=3"
    cases = [
        ((1, 2), (1, 1), ValueError,
         "trace subset needs 0/1 entries, got (1, 2)"),
        ((1, 1, 0), [1, -1, 1, 1], ValueError,
         "trace subset needs 0/1 entries, got (1, -1, 1, 1)"),
        ((1, 1), (0, 2, 1), ValueError,
         "trace subset needs 0/1 entries, got (0, 2, 1)"),
        ((1, 1), (0, 1, 1), DimensionMismatch, widths),
        ((1, 1), (0, 1, 0), VacuousRelationError,
         "reduce_product wants two subsets with at least two members each"),
    ]
    for a, b, kind, message in cases:
        with pytest.raises(ValueError) as info:
            reduce_product(a, b)
        assert type(info.value) is kind
        assert str(info.value) == message


def test_reduce_product_starts_at_the_symbol_product():
    for m in (2, 3, 4, 5):
        pairs = all_subsets(m, min_size=2)
        for a in pairs:
            for b in pairs:
                assert (reduce_product(a, b).start
                        == formal_trace(a) * formal_trace(b))


def test_normal_form_fixes_linear_input():
    q = QPoly.parse(2, "x1*N2 + Tr(11)")
    trace = normal_form(q)
    assert trace.result == q
    assert trace.steps == ()
    assert trace.verify()
    z = normal_form(QPoly.zero(2))
    assert z.result == QPoly.zero(2) and z.steps == ()


def test_normal_form_triple_product():
    q = (QPoly.trace_symbol((1, 1, 1))
         * QPoly.trace_symbol((1, 1, 0))
         * QPoly.trace_symbol((0, 1, 1)))
    trace = normal_form(q)
    assert trace.result.is_trace_linear()
    assert len(trace.steps) >= 2
    assert trace.verify()
    want = transfer((1, 1, 1)) * transfer((1, 1, 0)) * transfer((0, 1, 1))
    assert evaluate(trace.result) == want


def test_normal_form_is_idempotent():
    trace = reduce_product((1, 1, 1), (1, 1, 0))
    again = normal_form(trace.result)
    assert again.result == trace.result
    assert again.steps == ()


def test_reduce_product_all_pairs_small():
    for m in (2, 3):
        pairs = all_subsets(m, min_size=2)
        for a in pairs:
            for b in pairs:
                trace = reduce_product(a, b)
                assert trace.result.is_trace_linear()
                assert evaluate(trace.result) == transfer(a) * transfer(b)
                assert trace.replay() == trace.result


def _mu(m, term):
    squares = sum(cardinality(f) ** 2 for f in term.traces)
    td = qmon_trace_degree(term)
    return (td, m * td - squares)


def test_normal_form_random_and_measures():
    rng = random.Random(60221)
    checked_steps = 0
    for _ in range(300):
        m = rng.randrange(2, 5)
        q = random_qpoly(rng, m, max_terms=4, max_trace_degree=8)
        trace = normal_form(q)
        assert trace.verify()
        assert evaluate(trace.result) == evaluate(q)
        measures = [s.measure for s in trace.steps]
        assert measures == sorted(measures, reverse=True)
        for step in trace.steps:
            # every replacement term is strictly smaller in the
            # termination measure than the term it replaced
            parent = _mu(m, step.term)
            update = QPoly.monomial(step.multiplier) * step.relation.element
            for child in update.terms:
                if child != step.term:
                    assert _mu(m, child) < parent
            checked_steps += 1
    assert checked_steps > 100


def _assert_largest_heavy_term_first(trace):
    """Replay the trace step by step: each step must reduce the
    qmon_key-largest term with two or more traces in the state it met."""
    state = set(trace.start.terms)
    for step in trace.steps:
        heavy = [t for t in state if len(t.traces) >= 2]
        assert step.term == max(heavy, key=qmon_key)
        update = QPoly.monomial(step.multiplier) * step.relation.element
        parity_update(state, update.terms)
    assert not any(len(t.traces) >= 2 for t in state)
    assert state == set(trace.result.terms) == set(trace.replay().terms)


def test_normal_form_schedule_cubes():
    for m, steps in ((4, 48), (5, 162), (6, 518)):
        cube = formal_trace((1,) * m) * formal_trace((1,) * m)
        cube = cube * formal_trace((1,) * m)
        trace = normal_form(cube)
        assert len(trace.steps) == steps
        _assert_largest_heavy_term_first(trace)
        assert trace.verify()


def test_normal_form_schedule_random_products():
    rng = random.Random(8128)
    checked = 0
    for _ in range(100):
        m = rng.randrange(2, 5)
        q = random_qpoly(rng, m, max_terms=3, max_trace_degree=6)
        r = random_qpoly(rng, m, max_terms=3, max_trace_degree=6)
        trace = normal_form(q * r)
        _assert_largest_heavy_term_first(trace)
        checked += len(trace.steps)
    assert checked > 200


def test_normal_form_rejects_a_step_that_keeps_its_term(monkeypatch):
    # a relation without its leading product would leave the reduced
    # term in place; the rewrite must raise, not drop it from the heap
    real = rewrite.type_iii_relation

    def headless(a, b):
        relation = real(a, b)
        lead = QPoly.trace_symbol(a) * QPoly.trace_symbol(b)
        return replace(relation, element=relation.element + lead)

    monkeypatch.setattr(rewrite, "type_iii_relation", headless)
    with pytest.raises(RuntimeError, match="left its term"):
        reduce_product((1, 1, 0), (0, 1, 1))


def test_rewrites_refuse_a_relation_above_its_degree(monkeypatch):
    # the fields hold the degree a relation is applied at; a patched
    # relation with a term above it would overflow a product
    real_iii, real_i = rewrite.type_iii_relation, rewrite.type_i_relation
    for extra in ("x1^5", "x1^300"):
        def heavy(a, b, extra=extra):
            relation = real_iii(a, b)
            return replace(relation, element=relation.element
                           + QPoly.parse(len(a), extra))

        def heavy_i(a, extra=extra):
            relation = real_i(a)
            return replace(relation, element=relation.element
                           + QPoly.parse(len(a), extra))

        with monkeypatch.context() as patch:
            patch.setattr(rewrite, "type_iii_relation", heavy)
            with pytest.raises(RuntimeError, match="above degree 4"):
                reduce_product((1, 1, 0), (0, 1, 1))
            patch.setattr(rewrite, "type_i_relation", heavy_i)
            element = real_i((1, 1, 1)).element
            with pytest.raises(RuntimeError, match="above degree 3"):
                linear_reduce(element)
            certificate = LinearCertificate(
                start=element, coefficients={(1, 1, 1): QPoly.parse(3, "1")})
            with pytest.raises(RuntimeError, match="above degree 3"):
                certificate.verify()


def test_trace_verify_rejects_a_tampered_result():
    trace = reduce_product((1, 1, 0), (0, 1, 1))
    assert trace.verify()
    for extra in ("x1*Tr(011)", "x1*x2*x3"):
        forged = replace(
            trace, result=trace.result + QPoly.parse(3, extra))
        assert not forged.verify()


def test_trace_verify_rejects_a_two_trace_result():
    # no steps, so the replay is the start and the images agree; only
    # the trace-linearity of the result is left to fail
    square = QPoly.trace_symbol((1, 1)) * QPoly.trace_symbol((1, 1))
    forged = ReductionTrace(start=square, result=square, steps=())
    assert forged.replay() == forged.result
    assert not forged.verify()


def test_trace_verify_rejects_a_relation_that_does_not_vanish():
    # the step's element gains a trace-linear term that does not
    # evaluate to zero, and the result is the forged replay: replay,
    # trace-linearity and measures all hold, and only the check that
    # each applied relation vanishes catches it (start and result also
    # have different images here)
    trace = reduce_product((1, 1, 0), (0, 1, 1))
    step = trace.steps[0]
    bogus = replace(
        step.relation,
        element=step.relation.element + QPoly.parse(3, "x1*Tr(111)"))
    steps = (replace(step, relation=bogus),) + trace.steps[1:]
    forged = ReductionTrace(start=trace.start, result=trace.result,
                            steps=steps)
    forged = replace(forged, result=forged.replay())
    assert forged.result.is_trace_linear()
    assert forged.replay() == forged.result
    assert evaluate(forged.start) != evaluate(forged.result)
    assert not forged.verify()


def test_trace_verify_rejects_a_bogus_step_applied_twice():
    # two copies of a step whose relation does not vanish cancel in the
    # replay and in the image, so replay, trace-linearity, measure log
    # and the identity of the images all hold; the relation does not
    trace = reduce_product((1, 1, 0), (0, 1, 1))
    step = trace.steps[0]
    bogus = replace(step, relation=replace(
        step.relation,
        element=step.relation.element + QPoly.parse(3, "x1*Tr(111)")))
    forged = replace(
        trace, steps=(step, bogus, bogus) + trace.steps[1:])
    assert forged.replay() == forged.result == trace.result
    assert forged.result.is_trace_linear()
    assert forged._measures_hold()
    assert evaluate(forged.start) == evaluate(forged.result)
    assert evaluate(bogus.relation.element) != Poly.zero(3)
    assert not forged.verify()


def test_trace_verify_checks_the_measure_log():
    cube = formal_trace((1,) * 4) * formal_trace((1,) * 4)
    trace = normal_form(cube * formal_trace((1,) * 4))
    assert trace.verify()
    steps = list(trace.steps)
    degree, trace_degree = steps[5].measure
    steps[5] = replace(steps[5], measure=(degree, trace_degree + 1))
    assert not replace(trace, steps=tuple(steps)).verify()
    # true measures in a rising order: the replay does not depend on
    # the order of the steps, so only the monotonicity check fails
    rising = tuple(sorted(trace.steps, key=lambda s: s.measure))
    assert rising[0].measure < rising[-1].measure
    forged = replace(trace, steps=rising)
    assert forged.replay() == forged.result
    assert not forged.verify()


def test_reduction_trace_json():
    trace = reduce_product((1, 1), (1, 1))
    blob = trace.to_json()
    assert blob["schema"] == 1
    assert blob["result"] == str(trace.result)
    assert blob["steps"][0]["family"] == "IIIb"
    assert blob["steps"][0]["multiplier"] == "1"


# ---------------------------------------------------------------------------
# summand leads
# ---------------------------------------------------------------------------

def test_summand_lead_goldens():
    t = make_qmon((0, 0), (0, 0), [(1, 1)])
    assert summand_lead(t) == (0, 1, 1, 0)  # x1*y2
    t = make_qmon((1, 0), (0, 1), [(1, 1)])
    assert summand_lead(t) == (0, 2, 3, 0)  # x1^2*y2^3
    t = make_qmon((2, 1), (0, 0), ())
    assert summand_lead(t) == (0, 2, 0, 1)  # x1^2*x2


def test_max_summand_lead_golden():
    # the largest summand lead, and the terms reaching it, which
    # linear_reduce reads off at each step
    h = QPoly.parse(2, "Tr(11) + x1*x2")
    assert lead_achievers(h) == (
        (0, 1, 1, 0), [make_qmon((0, 0), (0, 0), [(1, 1)])])
    element = type_i_relation((1, 1, 1)).element
    lead, achievers = lead_achievers(element)
    assert lead == (0, 1, 0, 1, 1, 0)  # x1*x2*y3
    assert sorted(map(str, map(QPoly.monomial, achievers))) == [
        "x1*Tr(011)", "x2*Tr(101)"]
    (step,) = linear_reduce(element).steps
    assert (step.lead, step.achievers) == (lead, len(achievers))


def test_summand_lead_matches_expansion():
    # the formula agrees with expanding the image and taking its lead
    m = 3
    grids = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
             (1, 1, 0), (0, 1, 1), (2, 0, 1), (1, 2, 0)]
    traces = [None] + list(all_subsets(m, min_size=2))
    for a in traces:
        for xe in grids:
            for ne in grids:
                t = make_qmon(xe, ne, [a] if a else [])
                expanded = evaluate(QPoly.monomial(t))
                assert summand_lead(t) == expanded.lead_term()


def test_max_summand_lead_errors():
    with pytest.raises(ZeroPolynomialError):
        lead_achievers(QPoly.zero(2))
    square = QPoly.trace_symbol((1, 1)) * QPoly.trace_symbol((1, 1))
    with pytest.raises(NotTraceLinearError):
        linear_reduce(square)


# ---------------------------------------------------------------------------
# certifying trace-linear kernel elements
# ---------------------------------------------------------------------------

def test_linear_reduce_recovers_bare_relation():
    element = type_i_relation((1, 1, 1)).element
    cert = linear_reduce(element)
    assert cert.verify()
    assert len(cert.steps) == 1
    assert cert.coefficients == {(1, 1, 1): QPoly.parse(3, "1")}
    assert cert.steps[0].subset == (1, 1, 1)
    assert cert.steps[0].achievers == 2


def test_linear_reduce_recovers_two_multipliers():
    elem = type_i_relation((1, 1, 1, 0)).element
    scale = QPoly.parse(4, "x4 + N1")
    cert = linear_reduce(scale * elem)
    assert cert.verify()
    assert set(cert.coefficients) == {(1, 1, 1, 0)}
    assert cert.coefficients[(1, 1, 1, 0)] == scale


def test_linear_reduce_random_combinations():
    rng = random.Random(314159)
    m = 4
    cubics = [a for a in all_subsets(m, min_size=3)]
    elements = {a: type_i_relation(a).element for a in cubics}
    for _ in range(100):
        h = QPoly.zero(m)
        for a in cubics:
            if rng.random() < 0.5:
                continue
            xe = tuple(rng.randrange(3) for _ in range(m))
            ne = tuple(rng.randrange(2) for _ in range(m))
            h = h + QPoly.monomial(make_qmon(xe, ne, ())) * elements[a]
        cert = linear_reduce(h)
        assert cert.verify()
        total = QPoly.zero(m)
        for a, coefficient in cert.coefficients.items():
            total = total + coefficient * elements[a]
        assert cert.combination() == total == h
        for step in cert.steps:
            assert step.achievers >= 2
            assert step.achievers % 2 == 0


def test_linear_reduce_step_cancels_lead_twice():
    # the chosen relation, scaled, contributes the current lead monomial
    # through exactly two of its summands
    elem = type_i_relation((1, 1, 1, 0)).element
    h = QPoly.parse(4, "x4 + N2 + x1*x3") * elem
    cert = linear_reduce(h)
    assert cert.verify()
    for step in cert.steps:
        update = (QPoly.monomial(step.multiplier)
                  * type_i_relation(step.subset).element)
        hits = [t for t in update.terms
                if summand_lead(t) == step.lead]
        assert len(hits) == 2
        # and nothing in the update tops the cancelled lead
        for t in update.terms:
            assert monomial_key(summand_lead(t)) <= monomial_key(step.lead)


def test_linear_reduce_rejects_non_kernel_input():
    # the message names the lead monomial of the image
    cases = [
        (QPoly.trace_symbol((1, 1)),
         "element does not evaluate to zero; image contains x1*y2"),
        (QPoly.parse(3, "x1*Tr(011) + N2*Tr(111) + x3^2"),
         "element does not evaluate to zero; image contains x1*y2^3*y3"),
    ]
    for h, message in cases:
        with pytest.raises(NotARelationError) as info:
            linear_reduce(h)
        assert str(info.value) == message


def _image_message(h):
    return ("element does not evaluate to zero; image contains "
            + monomial_text(evaluate(h).lead_term()))


def _random_trace_linear(rng, m):
    terms = []
    for _ in range(rng.randrange(1, 6)):
        xe = tuple(rng.randrange(3) for _ in range(m))
        ne = tuple(rng.randrange(2) for _ in range(m))
        traces = [rng.choice(all_subsets(m, min_size=2))]
        terms.append(make_qmon(xe, ne, traces if rng.random() < 0.7 else []))
    return QPoly.from_terms(m, terms)


def test_linear_reduce_rejects_random_non_relations():
    # no gate runs before the descent; every way it can fail on a
    # non-relation must end in the image message, not in the descent's
    # own errors. Half the inputs are a relation multiple plus a random
    # term, so that the descent runs some steps before it fails.
    rng = random.Random(27182)
    checked = 0
    while checked < 200:
        m = 3 + checked % 2
        h = _random_trace_linear(rng, m)
        if checked % 4 >= 2:
            cubic = rng.choice(all_subsets(m, min_size=3))
            h = (QPoly.monomial(make_qmon(
                tuple(rng.randrange(2) for _ in range(m)), (0,) * m, ()))
                * type_i_relation(cubic).element
                + QPoly.monomial(rng.choice(sorted(h.terms, key=qmon_key))))
        if evaluate(h) == Poly.zero(m):
            continue
        with pytest.raises(NotARelationError) as info:
            linear_reduce(h)
        assert str(info.value) == _image_message(h)
        checked += 1


def test_linear_reduce_checks_each_applied_relation(monkeypatch):
    # a patched type I relation that does not vanish: the descent
    # certifies its element as a multiple of itself, and only the check
    # of the applied relation, keyed by its element, can refuse it
    real = type_i_relation((1, 1, 1))
    assert linear_reduce(real.element).verify()  # memoizes the real one
    patched = replace(
        real, element=real.element + QPoly.parse(3, "x3^3"))
    monkeypatch.setattr(rewrite, "type_i_relation", lambda a: patched)
    with monkeypatch.context() as unchecked:
        unchecked.setattr(rewrite, "_relation_vanishes", lambda e: True)
        assert linear_reduce(patched.element).coefficients == {
            (1, 1, 1): QPoly.parse(3, "1")}
    with pytest.raises(NotARelationError) as info:
        linear_reduce(patched.element)
    assert str(info.value) == _image_message(patched.element)
    # relations that do not vanish, applied to an input that does, are
    # a fault of the relations, not of the input
    extra = QPoly.parse(4, "x1")

    def shifted(a):
        relation = type_i_relation(a)
        return replace(relation, element=relation.element + extra)

    monkeypatch.setattr(rewrite, "type_i_relation", shifted)
    h = (type_i_relation((1, 1, 1, 0)).element
         + type_i_relation((1, 0, 1, 1)).element)
    with pytest.raises(RuntimeError, match="does not vanish"):
        linear_reduce(h)


def test_linear_certificate_rejects_a_dropped_term():
    elem = type_i_relation((1, 1, 1, 0)).element
    cert = linear_reduce(QPoly.parse(4, "x4 + N1") * elem)
    assert cert.verify()
    coefficient = cert.coefficients[(1, 1, 1, 0)]
    for term in coefficient.terms:
        kept = QPoly(4, coefficient.terms - {term})
        forged = replace(
            cert, coefficients={(1, 1, 1, 0): kept})
        assert not forged.verify()


def test_linear_reduce_rejects_heavy_terms():
    square = QPoly.trace_symbol((1, 1)) * QPoly.trace_symbol((1, 1))
    with pytest.raises(NotTraceLinearError):
        linear_reduce(square)


def test_linear_reduce_zero_input():
    cert = linear_reduce(QPoly.zero(3))
    assert cert.verify()
    assert cert.coefficients == {}
    assert cert.steps == ()


def test_linear_certificate_json():
    elem = type_i_relation((1, 1, 1)).element
    blob = linear_reduce(elem).to_json()
    assert blob["schema"] == 1
    assert blob["coefficients"] == {"111": "1"}
    assert blob["steps"][0]["subset"] == "111"
    assert blob["steps"][0]["achievers"] == 2
    assert blob["steps"][0]["lead"] == "x1*x2*y3"


# ---------------------------------------------------------------------------
# the packed loops against the tuple reference
# ---------------------------------------------------------------------------

def _text(record) -> str:
    return json.dumps(record.to_json(), sort_keys=True)


def test_packed_normal_forms_match_the_tuple_reference():
    for m in range(2, 7):
        cube = formal_trace((1,) * m) * formal_trace((1,) * m)
        cube = cube * formal_trace((1,) * m)
        trace = normal_form(cube)
        assert _text(trace) == _text(reference_normal_form(cube))
        assert trace.replay() == reference_replay(trace) == trace.result
    for m in (2, 3, 4):
        pairs = all_subsets(m, min_size=2)
        for a in pairs:
            for b in pairs:
                trace = reduce_product(a, b)
                assert (_text(trace)
                        == _text(reference_normal_form(trace.start)))


def test_packed_certificates_match_the_tuple_reference():
    for m, d in ((3, 4), (3, 5), (4, 5), (4, 6), (5, 6)):
        for h in linear_kernel_basis(m, d):
            certificate = linear_reduce(h)
            assert _text(certificate) == _text(reference_descend(h)[0])
            assert (certificate.combination()
                    == reference_combination(certificate) == h)


def test_packed_fields_are_sized_from_the_degree():
    # exponents past one byte, and a trace count past what a fixed
    # small field would hold: none may alias another term
    q = QPoly.parse(3, "x1^300*N2^260*Tr(110)*Tr(011)")
    trace = normal_form(q)
    assert _text(trace) == _text(reference_normal_form(q))
    assert trace.verify()
    h = QPoly.parse(3, "x1^300") * type_i_relation((1, 1, 1)).element
    certificate = linear_reduce(h)
    assert _text(certificate) == _text(reference_descend(h)[0])
    assert certificate.verify()
    square = QPoly.parse(2, "Tr(11)^20")
    assert ReductionTrace(start=square, result=square,
                          steps=()).replay() == square


def test_packed_fields_are_sized_from_the_steps():
    # a start of degree 4 and a multiplier of degree 300: the fields
    # must hold the products, not the start alone
    trace = reduce_product((1, 1, 0), (0, 1, 1))
    big = make_qmon((300, 0, 0), (0, 0, 0), ())
    forged = replace(trace, steps=(replace(trace.steps[0], multiplier=big),))
    assert forged.replay() == reference_replay(forged)
    assert max(map(qmon_key, forged.replay().terms))[0] == 304
    assert not forged.verify()
    certificate = LinearCertificate(
        start=QPoly.zero(3), coefficients={(1, 1, 1): QPoly.parse(3, "x1^300")})
    combination = certificate.combination()
    assert combination == reference_combination(certificate)
    assert combination == QPoly.parse(3, "x1^300") * type_i_relation(
        (1, 1, 1)).element
    assert not certificate.verify()
    assert replace(certificate, start=combination).verify()


def test_packed_checks_refuse_terms_above_the_fields():
    # the fields are sized from the steps or the coefficients; a result
    # or a start with a term above them must be refused, not aliased
    square = QPoly.trace_symbol((1, 1)) * QPoly.trace_symbol((1, 1))
    trace = normal_form(square)
    certificate = linear_reduce(type_i_relation((1, 1, 1)).element)
    assert trace.verify() and certificate.verify()
    for extra in ("x1^8", "x1^300", "N1^200*x2^100"):
        forged = replace(trace, result=trace.result + QPoly.parse(2, extra))
        assert not forged.verify()
        start = certificate.start + QPoly.parse(3, extra.replace("x2", "x3"))
        assert not replace(certificate, start=start).verify()
    assert not replace(trace, result=QPoly.zero(3)).verify()


def test_trace_verify_rejects_a_multiplier_off_by_one_exponent():
    cube = formal_trace((1,) * 4) * formal_trace((1,) * 4)
    trace = normal_form(cube * formal_trace((1,) * 4))
    assert trace.verify()
    for i, step in enumerate(trace.steps):
        exponents = list(step.multiplier.xe + step.multiplier.ne)
        exponents[i % 8] += 1
        multiplier = QMon(tuple(exponents[:4]), tuple(exponents[4:]),
                          step.multiplier.traces)
        steps = list(trace.steps)
        steps[i] = replace(step, multiplier=multiplier)
        forged = replace(trace, steps=tuple(steps))
        assert forged.replay() != forged.result
        assert not forged.verify()


def test_linear_certificate_rejects_a_coefficient_on_another_subset():
    elem = type_i_relation((1, 1, 1, 0)).element
    cert = linear_reduce(QPoly.parse(4, "x4 + N1") * elem)
    assert cert.verify()
    coefficient = cert.coefficients[(1, 1, 1, 0)]
    others = [a for a in all_subsets(4, min_size=3) if a != (1, 1, 1, 0)]
    assert others
    for other in others:
        moved = replace(cert, coefficients={other: coefficient})
        assert not moved.verify()
