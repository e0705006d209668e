"""The three workloads, as operations on ``vecinv2`` with their checks.

An operation is a group of program calls, timed as one, followed by an
untimed check of their output against ``reference``.  The check either
passes, reports a wrong output (the run is then not correct), or, for
the negative operations of ``verify-deep``, reports that the program did
not refuse what it should have: that operation counts as failed.

Every call's time is added to a *kind*, the part of the workload it
belongs to.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import reference as ref
import vecinv2
from vecinv2 import cli

# Program functions are looked up on the package at call time, so that
# the wrappers ``tracer`` installs there are the ones called.

# Independent random points per checked element; a wrong element
# survives one point with probability at most (degree / 2^16).
POINTS = 3


class Round:
    """One pass over a workload's operations."""

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.kinds: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def run(self, name: str, kind: str, call, check) -> object:
        """Time ``call()``, then ``check(output)``; the check returns a
        list of wrong outputs, or raises ``Refusal`` for a failed
        operation.  Returns the output, or None when the call raised."""
        self.attempted += 1
        timed = call
        if self.tracer is not None:
            timed = lambda: self.tracer.operation(self.attempted, name, call)
        start = time.perf_counter()
        if self.sampler is not None:
            self.sampler.spent = 0.0
            self.sampler.kind = kind
        try:
            output = timed()
        except Exception as err:   # an operation that raises has failed
            output, raised = None, err
        else:
            raised = None
        if self.sampler is not None:
            self.sampler.kind = None
            start += self.sampler.spent
        self.kinds[kind] = self.kinds.get(kind, 0.0) + time.perf_counter() - start
        if raised is not None:
            self.failed += 1
            self.problems.append(f"{name}: raised {raised!r}")
            return None
        try:
            wrong = check(output)
        except Refusal as why:
            self.failed += 1
            self.problems.append(f"{name}: failed: {why}")
            return output
        except Exception as err:   # unreadable output is a wrong output
            wrong = [f"check raised {err!r}"]
        self.wrong += len(wrong)
        self.problems.extend(f"{name}: WRONG: {message}" for message in wrong)
        return output


class Refusal(Exception):
    """The program accepted input or a family it should have rejected."""


# ---------------------------------------------------------------------------
# verify workloads


def _cli(argv: list[str]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main(argv)
    return status, buffer.getvalue()


def _check_verify(m: int, d_max: int):
    def check(output) -> list[str]:
        status, text = output
        wrong = []
        report = json.loads(text)
        if status != 0 or report["ok"] is not True:
            wrong.append(f"exit {status}, ok {report['ok']}")
        degrees = [r["degree"] for r in report["degrees"]]
        if degrees != list(range(2, d_max + 1)):
            wrong.append(f"degrees {degrees}")
        for r in report["degrees"]:
            d = r["degree"]
            want = {
                "kernel_dimension": ref.kernel_dimension(m, d),
                "span_rank": ref.kernel_dimension(m, d),
                "q_monomials": ref.q_monomial_count(m, d),
                "poly_monomials": ref.poly_monomial_count(m, d),
            }
            for key, value in want.items():
                if r[key] != value:
                    wrong.append(f"degree {d} {key} {r[key]} != {value}")
        if report["dependent"]:
            wrong.append(f"dependent {report['dependent']}")
        if report["max_degree"] != 2 * m:
            wrong.append(f"max_degree {report['max_degree']} != {2 * m}")
        if report["relations"] != ref.relation_count(m):
            wrong.append(f"relations {report['relations']}")
        return wrong
    return check


def _verify(rnd: Round, kind: str, m: int, d_max: int | None,
            flavor: str = "III") -> None:
    argv = ["verify", "-m", str(m)]
    if d_max is not None:
        argv += ["--dmax", str(d_max)]
    if flavor != "III":
        argv += ["--flavor", flavor]
    rnd.run(" ".join(argv), kind, lambda: _cli(argv + ["--format", "json"]),
            _check_verify(m, 2 * m if d_max is None else d_max))


def _expect_usage_error(output) -> list[str]:
    status, _ = output
    if status != 2:
        raise Refusal(f"exit {status}, want 2 (usage error)")
    return []


def _bogus_family():
    """The m=3 family with the non-relation Tr(110) appended."""
    relations = vecinv2.relation_basis(3)
    bogus = vecinv2.formal_trace((1, 1, 0))
    relations.append(vecinv2.Relation("bogus", (1, 1, 0), None, None, bogus, 2))
    return vecinv2.verify_relation_ideal(3, relations=relations)


def _expect_fail(report) -> list[str]:
    if report.ok:
        raise Refusal("a family with a non-relation passed")
    return []


def verify_deep(rnd: Round, rng: random.Random) -> None:
    _verify(rnd, "verify_m3", 3, None)
    _verify(rnd, "verify_m4_d8", 4, 8)
    rnd.run("bogus family m=3", "negative", _bogus_family, _expect_fail)
    for argv in (["verify", "-m", "0"], ["verify", "-m", "2", "--dmax", "1"]):
        rnd.run(" ".join(argv), "negative",
                lambda argv=argv: _cli(argv + ["--format", "json"]),
                _expect_usage_error)


def verify_wide(rnd: Round, rng: random.Random) -> None:
    _verify(rnd, "verify_m5_d6", 5, 6)
    _verify(rnd, "verify_m4_d7_ii", 4, 7, "II")


# ---------------------------------------------------------------------------
# rewrite workload


def _trace_linear(q) -> bool:
    return all(len(term.traces) <= 1 for term in q.terms)


def _check_normal_form(points, value):
    """The result is trace-linear and equals ``value(point)`` at every
    point, where the real invariants are substituted."""
    def check(trace) -> list[str]:
        wrong = []
        if not _trace_linear(trace.result):
            wrong.append("result is not trace-linear")
        for point in points:
            if point.element(trace.start) != value(point):
                wrong.append("start is not the requested product")
            if point.element(trace.result) != value(point):
                wrong.append("result differs from start at a point")
        return wrong
    return check


def _check_true(flag) -> list[str]:
    return [] if flag is True else [f"self-check returned {flag!r}"]


def _check_linear_kernel(m: int, d: int, points):
    def check(kernel) -> list[str]:
        wrong = []
        want = ref.linear_kernel_dimension(m, d)
        if len(kernel) != want:
            wrong.append(f"{len(kernel)} elements, want {want}")
        if ref.rank([q.terms for q in kernel]) != len(kernel):
            wrong.append("elements are dependent")
        for q in kernel:
            if not _trace_linear(q) or any(p.element(q) for p in points):
                wrong.append(f"{q} is not a trace-linear relation")
        return wrong
    return check


def _check_certificate(start, points, type_i):
    """The certified combination equals ``start`` with the formal symbols
    free, and the program's own check agreed."""
    def check(output) -> list[str]:
        certificate, verified = output
        wrong = _check_true(verified)
        for point, relations in zip(points, type_i):
            total = 0
            for subset, coefficient in certificate.coefficients.items():
                if subset not in relations:
                    relations[subset] = point.type_i(subset)
                total ^= ref.gf_mul(point.element(coefficient), relations[subset])
            if total != point.element(start):
                wrong.append(f"combination differs from {start}")
        return wrong
    return check


def rewrite(rnd: Round, rng: random.Random) -> None:
    for m in range(4, 8):
        ones = (1,) * m
        points = [ref.invariant_point(m, rng) for _ in range(POINTS)]
        trace_ones = vecinv2.formal_trace(ones)
        cube = trace_ones * trace_ones * trace_ones
        trace = rnd.run(
            f"normal_form Tr(1^{m})^3", "normal_form",
            lambda cube=cube: vecinv2.normal_form(cube),
            _check_normal_form(points, lambda p, a=ones: ref.gf_mul(
                p.trace(a), ref.gf_mul(p.trace(a), p.trace(a)))))
        if trace is not None:
            rnd.run(f"verify trace Tr(1^{m})^3", "trace_check", trace.verify,
                    _check_true)

    m = 5
    points = [ref.invariant_point(m, rng) for _ in range(POINTS)]
    traces = ref.subsets(m, 2)
    pairs = [(a, b) for i, a in enumerate(traces) for b in traces[:i + 1]]
    rng.shuffle(pairs)
    for a, b in pairs:
        rnd.run("reduce_product", "normal_form",
                lambda a=a, b=b: vecinv2.reduce_product(a, b),
                _check_normal_form(points, lambda p, a=a, b=b: ref.gf_mul(
                    p.trace(a), p.trace(b))))

    d = 6
    kernel = rnd.run(f"linear_kernel_basis({m}, {d})", "linear_certify",
                     lambda: vecinv2.linear_kernel_basis(m, d),
                     _check_linear_kernel(m, d, points)) or []
    kernel = list(kernel)
    rng.shuffle(kernel)
    free = [ref.free_point(m, rng) for _ in range(POINTS)]
    type_i = [{} for _ in free]

    def certify(h):
        certificate = vecinv2.linear_reduce(h)
        return certificate, certificate.verify()

    for h in kernel:
        rnd.run("linear_reduce", "linear_certify", lambda h=h: certify(h),
                _check_certificate(h, free, type_i))


WORKLOADS = {
    "verify-deep": verify_deep,
    "verify-wide": verify_wide,
    "rewrite": rewrite,
}
