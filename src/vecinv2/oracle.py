"""Brute-force verification of the relation families, degree by degree.

Everything here reduces questions about the presentation to GF(2)
linear algebra over monomial bases:

* ``kernel_basis(m, d)`` finds every degree-d element of the
  presentation ring that evaluates to zero, by computing the left
  kernel of the evaluation matrix (rows: presentation monomials of
  degree d, columns: polynomial monomials of degree d);
* ``verify_relation_ideal`` checks a relation family degree by degree
  up to a bound.  Its report passes when every declared relation
  evaluates to zero (so the relation span lies in the kernel), the
  span has the kernel's dimension in every checked degree (so the two
  are equal: generation), no declared relation lies in the span of
  the others at its own degree (minimality), and at least one degree
  was checked.  The kernel dimension is a rank count, so no kernel
  basis is built unless a degree fails and a counterexample is wanted;
* ``max_relation_degree`` finds the largest degree where the kernel is
  not yet generated by lower-degree kernel elements — the degree at
  which the last new relation appears — by the same rank comparison;
* ``invariant_dimension`` counts fixed polynomials of a degree
  directly, and ``evaluation_rank`` counts what the generators span
  there; the two agree exactly when the generators generate.

Matrix shapes grow quickly with the number of variable pairs, so every
matrix build is gated by an entry budget (rows times columns); blowing
it raises ``BudgetExceeded`` instead of grinding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .f2 import RowSpan, left_kernel
from .invariants import involution
from .poly import Monomial, Poly, all_subsets, cardinality, monomial_key
from .qring import QMon, QPoly, evaluate, make_qmon, qmon_key
from .relations import Relation, relation_basis

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "poly_monomials",
    "q_monomials",
    "kernel_basis",
    "linear_kernel_basis",
    "evaluation_rank",
    "invariant_dimension",
    "span_contains",
    "max_relation_degree",
    "DegreeReport",
    "VerificationReport",
    "verify_relation_ideal",
]

DEFAULT_BUDGET = 10 ** 8


class BudgetExceeded(RuntimeError):
    """Raised before building a matrix whose entry count tops the budget."""


def _charge(rows: int, cols: int, budget: int, what: str) -> None:
    if rows * cols > budget:
        raise BudgetExceeded(
            f"{what} needs a {rows} x {cols} matrix "
            f"({rows * cols} entries > budget {budget})")


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def poly_monomials(m: int, d: int) -> tuple[Monomial, ...]:
    """All polynomial monomials of total degree d, largest first."""
    monos = list(_compositions(d, 2 * m))
    monos.sort(key=monomial_key, reverse=True)
    return tuple(monos)


@lru_cache(maxsize=None)
def q_monomials(m: int, d: int) -> tuple[QMon, ...]:
    """All presentation-ring monomials of degree d, largest first.

    A monomial is a choice of exponents on the x's (degree 1 each), the
    norms (degree 2 each), and a multiset of trace symbols (degree =
    subset size)."""
    traces = all_subsets(m, min_size=2)
    found: list[QMon] = []

    def fill(index: int, remaining: int, chosen: tuple) -> None:
        if index == len(traces):
            for total_n in range(remaining // 2 + 1):
                for ne in _compositions(total_n, m):
                    for xe in _compositions(remaining - 2 * total_n, m):
                        found.append(make_qmon(xe, ne, chosen))
            return
        weight = cardinality(traces[index])
        for count in range(remaining // weight + 1):
            fill(index + 1, remaining - count * weight,
                 chosen + (traces[index],) * count)

    fill(0, d, ())
    found.sort(key=qmon_key, reverse=True)
    return tuple(found)


def _row(element, index: dict) -> int:
    """Bit mask of an element's terms, with ``index`` mapping each term
    to its column; works for ``Poly`` and ``QPoly`` alike."""
    bits = 0
    for term in element.terms:
        bits |= 1 << index[term]
    return bits


@lru_cache(maxsize=None)
def _poly_index(m: int, d: int) -> dict:
    return {mono: i for i, mono in enumerate(poly_monomials(m, d))}


@lru_cache(maxsize=None)
def _evaluation_rows(m: int, d: int) -> tuple[int, ...]:
    index = _poly_index(m, d)
    return tuple(_row(evaluate(QPoly.monomial(t)), index)
                 for t in q_monomials(m, d))


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kernel_from_rows(m: int, d: int, basis: tuple[QMon, ...],
                      rows: list[int]) -> list[QPoly]:
    ncols = len(poly_monomials(m, d))
    members = []
    for mask in left_kernel(rows, ncols):
        members.append(QPoly.from_terms(m, (basis[i] for i in _bits(mask))))
    return members


def kernel_basis(m: int, d: int, budget: int = DEFAULT_BUDGET) -> list[QPoly]:
    """A basis of the degree-d elements that evaluate to zero."""
    basis = q_monomials(m, d)
    _charge(len(basis), len(poly_monomials(m, d)), budget,
            f"kernel at degree {d}")
    return _kernel_from_rows(m, d, basis, list(_evaluation_rows(m, d)))


def linear_kernel_basis(m: int, d: int,
                        budget: int = DEFAULT_BUDGET) -> list[QPoly]:
    """Same kernel, restricted to terms with at most one trace factor."""
    basis = tuple(t for t in q_monomials(m, d) if len(t.traces) <= 1)
    _charge(len(basis), len(poly_monomials(m, d)), budget,
            f"trace-linear kernel at degree {d}")
    index = _poly_index(m, d)
    rows = [_row(evaluate(QPoly.monomial(t)), index) for t in basis]
    return _kernel_from_rows(m, d, basis, rows)


def evaluation_rank(m: int, d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the degree-d space the generators span."""
    rows = q_monomials(m, d)
    _charge(len(rows), len(poly_monomials(m, d)), budget,
            f"evaluation rank at degree {d}")
    span = RowSpan(len(poly_monomials(m, d)))
    for row in _evaluation_rows(m, d):
        span.add(row)
    return span.rank


def invariant_dimension(m: int, d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the space of degree-d polynomials fixed by the
    involution, counted directly from the action on monomials."""
    monos = poly_monomials(m, d)
    _charge(len(monos), len(monos), budget, f"invariant dimension at degree {d}")
    index = _poly_index(m, d)
    span = RowSpan(len(monos))
    for mono in monos:
        single = Poly.monomial(m, mono)
        span.add(_row(involution(single) + single, index))
    return len(monos) - span.rank


# ---------------------------------------------------------------------------
# the relation ideal


def _lower_span(m: int, d: int, relations: list[Relation], budget: int,
                index: dict) -> RowSpan:
    """Row space, in degree-d presentation coordinates, of every product
    (monomial of degree d - deg r) * (relation element r) with deg r < d.
    The budget is charged for the relations of degree d as well, one row
    each, since every caller adds those rows next."""
    ncols = len(index)
    nrows = sum(len(q_monomials(m, d - r.degree))
                for r in relations if r.degree <= d)
    _charge(nrows, ncols, budget, f"relation span at degree {d}")
    span = RowSpan(ncols)
    for relation in relations:
        if relation.degree >= d:
            continue
        for mult in q_monomials(m, d - relation.degree):
            product = QPoly.monomial(mult) * relation.element
            span.add(_row(product, index))
    return span


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    n_q_monomials: int
    n_poly_monomials: int
    kernel_dimension: int
    span_rank: int
    generated: bool
    counterexample: QPoly | None

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "q_monomials": self.n_q_monomials,
            "poly_monomials": self.n_poly_monomials,
            "kernel_dimension": self.kernel_dimension,
            "span_rank": self.span_rank,
            "generated": self.generated,
            "counterexample":
                str(self.counterexample) if self.counterexample else None,
        }


@dataclass(frozen=True)
class VerificationReport:
    m: int
    flavor: str
    d_max: int
    n_relations: int
    max_degree: int
    degrees: tuple[DegreeReport, ...]
    dependent: tuple[str, ...]

    @property
    def generated(self) -> bool:
        return all(report.generated for report in self.degrees)

    @property
    def minimal(self) -> bool:
        return not self.dependent

    @property
    def ok(self) -> bool:
        return self.generated and self.minimal

    def to_text(self) -> str:
        lines = []
        for report in self.degrees:
            line = (f"degree {report.degree}: kernel {report.kernel_dimension}"
                    f", span {report.span_rank}, "
                    + ("generated" if report.generated else "NOT GENERATED"))
            lines.append(line)
            if report.counterexample is not None:
                lines.append(f"  counterexample: {report.counterexample}")
        for label in self.dependent:
            lines.append(f"dependent relation: {label}")
        if self.ok:
            lines.append(
                f"PASS: generation + minimality, {self.n_relations} relations,"
                f" max degree {self.max_degree}")
        else:
            what = []
            if not self.generated:
                what.append("generation")
            if not self.minimal:
                what.append("minimality")
            lines.append(f"FAIL: {' + '.join(what)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.m,
            "flavor": self.flavor,
            "d_max": self.d_max,
            "relations": self.n_relations,
            "max_degree": self.max_degree,
            "degrees": [report.to_json() for report in self.degrees],
            "dependent": list(self.dependent),
            "generated": self.generated,
            "minimal": self.minimal,
            "ok": self.ok,
        }


def verify_relation_ideal(m: int, d_max: int | None = None,
                          flavor: str = "III",
                          budget: int = DEFAULT_BUDGET,
                          relations: list[Relation] | None = None,
                          ) -> VerificationReport:
    """Check generation and minimality of a relation list degree by degree.

    Generation: at each degree d from 2 to ``d_max`` (default twice the
    number of variable pairs), the span of (monomial multiples of) the
    relations must equal the kernel of the evaluation map.  Every
    relation of degree at most ``d_max`` must evaluate to zero, which
    puts the span inside the kernel; equality then holds exactly when
    the span's rank is the kernel's dimension.  Failing degrees carry a
    counterexample: a kernel element outside the span, or a monomial
    multiple of the lowest-degree relation (first among equals) that
    does not evaluate to zero.
    Minimality: no relation of degree 2 to ``d_max`` may lie in the span
    of the others at its own degree.  Both are decided by one
    elimination per degree: the relations of degree d are reduced
    modulo the multiples of the lower ones, and a relation is dependent
    exactly when some left-kernel vector of the remainders uses it.
    Passing ``relations`` overrides the declared basis, which is how
    deliberately broken families can be shown to fail.
    """
    if m < 1:
        raise ValueError(f"verify wants m >= 1 variable pairs, got {m}")
    if d_max is None:
        d_max = 2 * m
    if d_max < 2:
        raise ValueError(f"verify wants d_max >= 2, got {d_max}")
    if budget < 1:
        raise ValueError(f"verify wants a positive budget, got {budget}")
    if relations is None:
        relations = relation_basis(m, flavor)
    max_degree = max((r.degree for r in relations), default=0)
    stray = next((r for r in sorted(relations, key=lambda r: r.degree)
                  if r.degree <= d_max and evaluate(r.element)), None)
    reports = []
    dependent: set[int] = set()
    for d in range(2, d_max + 1):
        basis = q_monomials(m, d)
        index = {t: i for i, t in enumerate(basis)}
        kernel_dimension = len(basis) - evaluation_rank(m, d, budget)
        span = _lower_span(m, d, relations, budget, index)
        same = [p for p, r in enumerate(relations) if r.degree == d]
        rows = [span.remainder(_row(relations[p].element, index))
                for p in same]
        used = 0
        for mask in left_kernel(rows, len(basis)):
            used |= mask
        dependent.update(same[i] for i in _bits(used))
        for row in rows:
            span.add(row)
        counterexample = None
        if stray is not None and stray.degree <= d:
            lift = q_monomials(m, d - stray.degree)[0]
            counterexample = QPoly.monomial(lift) * stray.element
        elif span.rank != kernel_dimension:
            counterexample = next(
                member for member in kernel_basis(m, d, budget)
                if not span.contains(_row(member, index)))
        reports.append(DegreeReport(
            degree=d,
            n_q_monomials=len(basis),
            n_poly_monomials=len(poly_monomials(m, d)),
            kernel_dimension=kernel_dimension,
            span_rank=span.rank,
            generated=counterexample is None,
            counterexample=counterexample,
        ))
    return VerificationReport(
        m=m,
        flavor=flavor,
        d_max=d_max,
        n_relations=len(relations),
        max_degree=max_degree,
        degrees=tuple(reports),
        dependent=tuple(relations[p].label() for p in sorted(dependent)),
    )


def span_contains(relations: list[Relation], q: QPoly,
                  budget: int = DEFAULT_BUDGET) -> bool:
    """Degree-local ideal membership: does the homogeneous element q lie
    in the span of (monomial multiples of) the given relation elements
    at its own degree?"""
    if not q.terms:
        return True
    d = q.degree()
    if d is None:
        raise ValueError("span membership wants a homogeneous element")
    basis = q_monomials(q.m, d)
    index = {t: i for i, t in enumerate(basis)}
    span = _lower_span(q.m, d, relations, budget, index)
    for relation in relations:
        if relation.degree == d:
            span.add(_row(relation.element, index))
    return span.contains(_row(q, index))


def max_relation_degree(m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Largest degree whose kernel is not spanned by lower-degree kernel
    elements; the search stops one past twice the number of pairs.

    Multiples of kernel elements lie in the kernel, so the lower-degree
    span falls short exactly when its rank is below the kernel's
    dimension."""
    if m < 1:
        raise ValueError(
            f"max_relation_degree wants m >= 1 variable pairs, got {m}")
    if budget < 1:
        raise ValueError(
            f"max_relation_degree wants a positive budget, got {budget}")
    top = 0
    kernels: dict[int, list[QPoly]] = {}
    for d in range(2, 2 * m + 2):
        kernels[d] = kernel_basis(m, d, budget)
        if not kernels[d]:
            continue
        basis = q_monomials(m, d)
        index = {t: i for i, t in enumerate(basis)}
        ncols = len(basis)
        nrows = sum(len(q_monomials(m, d - e)) * len(kernels[e])
                    for e in range(2, d))
        _charge(nrows, ncols, budget, f"lower-degree span at degree {d}")
        span = RowSpan(ncols)
        for e in range(2, d):
            for member in kernels[e]:
                for mult in q_monomials(m, d - e):
                    span.add(_row(QPoly.monomial(mult) * member, index))
        if span.rank < len(kernels[d]):
            top = d
    return top
