"""The records of the package: fields, equality, hash, immutability,
weak references, pickle and copy, one case per record class; and the
imports that plain records spare a process."""

import copy
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import vecinv2
from vecinv2.invariants import GeneratorSet, generator_set
from vecinv2.oracle import (
    DegreeReport,
    VerificationReport,
    verify_relation_ideal,
)
from vecinv2.poly import Poly
from vecinv2.qring import QPoly
from vecinv2.relations import Relation, type_i_relation, type_iii_relation
from vecinv2.rewrite import (
    LinearCertificate,
    LinearStep,
    ReductionStep,
    ReductionTrace,
    linear_reduce,
    reduce_product,
)


def _samples():
    trace = reduce_product((1, 1, 0), (0, 1, 1))
    cert = linear_reduce(QPoly.parse(4, "x4 + N1")
                         * type_i_relation((1, 1, 1, 0)).element)
    report = verify_relation_ideal(2)
    return {
        Poly: Poly.parse(2, "x1*y2 + y1^2"),
        QPoly: QPoly.parse(3, "x1*Tr(110) + N2"),
        Relation: type_iii_relation((1, 1, 0), (0, 1, 1)),
        ReductionStep: trace.steps[0],
        ReductionTrace: trace,
        LinearStep: cert.steps[0],
        LinearCertificate: cert,
        DegreeReport: report.degrees[0],
        VerificationReport: report,
        GeneratorSet: generator_set(2),
    }


SAMPLES = _samples()

# the constructor parameters, in order, as the records had them when
# they were dataclasses
FIELDS = {
    Poly: ("m", "terms"),
    QPoly: ("m", "terms"),
    Relation: ("family", "a", "b", "index", "element", "degree"),
    ReductionStep: ("term", "relation", "multiplier", "measure"),
    ReductionTrace: ("start", "result", "steps"),
    LinearStep: ("subset", "multiplier", "lead", "achievers"),
    LinearCertificate: ("start", "coefficients", "steps"),
    DegreeReport: ("degree", "n_q_monomials", "n_poly_monomials",
                   "kernel_dimension", "span_rank", "generated",
                   "counterexample", "route"),
    VerificationReport: ("m", "flavor", "d_max", "n_relations",
                         "max_degree", "degrees", "dependent",
                         "n_unchecked"),
    GeneratorSet: ("m", "xs", "norms", "traces"),
}
FROZEN = [cls for cls in SAMPLES if cls is not GeneratorSet]


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_fields_equality_and_copies(cls):
    record = SAMPLES[cls]
    assert type(record) is cls
    values = _values(record)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert by_keyword == cls(*values) == record
    assert _values(by_keyword) == values
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(FIELDS[cls], values)) + ")"
    # slots: no instance dict
    assert not hasattr(record, "__dict__")
    assert weakref.ref(record)() is record
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record
        assert _values(twin) == values
    if cls is not GeneratorSet:
        assert hash(record) == hash(values if cls is not LinearCertificate
                                    else (record.start, record.steps))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_record_fields_are_read_only(cls):
    record = SAMPLES[cls]
    for name in FIELDS[cls]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_of_different_classes_differ():
    poly, qpoly = Poly(2, frozenset()), QPoly(2, frozenset())
    assert poly != qpoly and qpoly != poly
    assert Poly(2, frozenset()) == poly
    assert Poly(3, frozenset()) != poly
    # only the compared fields, in order, make the hash
    assert {poly: 1}[Poly(2, frozenset())] == 1
    assert hash(poly) == hash((2, frozenset()))


def test_linear_certificate_compares_without_its_coefficients():
    cert = SAMPLES[LinearCertificate]
    other = LinearCertificate(cert.start, {}, cert.steps)
    assert other == cert
    assert hash(other) == hash(cert) == hash((cert.start, cert.steps))
    assert LinearCertificate(cert.start, cert.coefficients) != cert
    assert LinearCertificate(cert.start, cert.coefficients).steps == ()
    assert LinearCertificate(start=cert.start, coefficients={}) == \
        LinearCertificate(cert.start, cert.coefficients, ())


def test_generator_set_is_mutable_and_unhashable():
    gens = SAMPLES[GeneratorSet]
    with pytest.raises(TypeError):
        hash(gens)
    bare = GeneratorSet(m=2, xs=gens.xs, norms=gens.norms)
    assert bare.traces == {}
    assert GeneratorSet(2, (), ()).traces is not bare.traces
    assert bare != gens
    bare.traces = dict(gens.traces)
    assert bare == gens
    bare.m = 3
    assert bare.m == 3 and bare != gens
    del bare.m
    assert not hasattr(bare, "m")


def _fresh_run(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports the package
    under test; returns its lines of standard output."""
    package_root = str(Path(vecinv2.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# a process that imports the package, or runs a verify, loads neither
# the dataclasses module nor inspect, which alone cost about a third of
# the package's import time
_LEAKS = ("print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)),"
          " 'end')")


def test_import_loads_no_dataclasses():
    assert _fresh_run("import sys, vecinv2\n" + _LEAKS) == ["end"]


def test_verify_process_loads_no_dataclasses():
    # runs the package as ``python -m vecinv2 verify -m 2`` does
    code = ("import runpy, sys\n"
            "sys.argv = ['vecinv2', 'verify', '-m', '2']\n"
            "try:\n"
            "    runpy.run_module('vecinv2', run_name='__main__',"
            " alter_sys=True)\n"
            "except SystemExit as exit:\n"
            "    print('exit', exit.code)\n" + _LEAKS)
    lines = _fresh_run(code)
    assert lines[-3].startswith("PASS")
    assert lines[-2:] == ["exit 0", "end"]
