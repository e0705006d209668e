"""Brute-force verification of the relation families, degree by degree.

Everything here reduces questions about the presentation to GF(2)
linear algebra over monomial bases:

* ``kernel_basis(m, d)`` finds every degree-d element of the
  presentation ring that evaluates to zero, by computing the left
  kernel of the evaluation matrix (rows: presentation monomials of
  degree d, columns: the polynomial monomials of their images);
* ``verify_relation_ideal`` checks a relation family degree by degree
  up to a bound.  Its report passes when every declared relation
  evaluates to zero (so the relation span lies in the kernel), the
  span has the kernel's dimension in every checked degree (so the two
  are equal: generation), no declared relation lies in the span of
  the others at its own degree (minimality), and at least one degree
  was checked.  Relations above the bound are never built, so those
  conditions hold only for the ones at or below it; when any lie
  above, the PASS line says "PASS through degree d" and counts them,
  and the JSON adds ``checked_through`` and ``unchecked_relations``.
  The kernel dimension is a rank count, so no kernel
  basis is built unless a degree fails and a counterexample is wanted;
* ``max_relation_degree`` finds the largest degree where the kernel is
  not yet generated by lower-degree kernel elements — the degree at
  which the last new relation appears — by the same degree sweep as
  ``verify_relation_ideal``, run over generators it discovers and
  files in the same block spans.  Ranks decide each degree; a kernel
  basis is built only where the span of the lower-degree generators
  falls short, and only the members their block's span misses are
  kept, which gives a minimal generating set;
* ``invariant_dimension`` counts the fixed polynomials of a degree in
  closed form, ``(C(d+2m-1, 2m-1) + [d even] C(d/2+m-1, m-1)) / 2``:
  the involution swaps y_i with z_i = y_i + x_i, so the fixed space is
  spanned by orbit sums of monomials in y and z, free pairs plus one
  fixed monomial per all-even multidegree.  ``evaluation_rank`` counts
  what the generators span there; the two agree exactly when the
  generators generate.

Ranks, span membership and left-kernel vectors do not depend on the
order of a matrix's columns: the left kernel is fixed by which rows
are independent of the rows before them.  So no column order is set
up in advance; a column is given to each monomial on first sight
(``f2.row_of``), and neither the polynomial monomials of a degree nor
its presentation monomials are enumerated to index the columns.  The
monomials are keyed as packed ints: evaluation rows by the packed
polynomial monomials of their images (``qring.packed_term_image``),
and relation-span rows by packed presentation monomials, so that a
product by a multiplier is one int addition per term (``blocks``).

Blocks.  Sending x_i to e_i, N_i to 2 e_i and Tr(A) to the indicator
vector 1_A grades the presentation ring by multidegree alpha in N^m,
and evaluation respects the grading when x_i and y_i both count e_i
(module ``blocks``).  So the evaluation matrix of a degree is block
diagonal, one block per alpha with |alpha| = d, whose rows are the
presentation monomials of multidegree alpha (``block_monomials``) and
whose columns are the polynomial monomials of multidegree alpha.
Permuting the variable pairs commutes with evaluation, so the blocks
of one S_m orbit have equal rank, and ``evaluation_rank`` builds one
block per orbit, the non-increasing alpha, and counts it |S_m alpha|
times.  Per block the fixed space has dimension
``(prod(alpha_i + 1) + [every alpha_i even]) / 2``; the tests check
every block rank against it rather than assume it.

Every type I, II and III relation is multihomogeneous, and so are its
monomial multiples, so ``verify_relation_ideal`` files each relation
under its multidegree and builds the relation span block by block
(``blocks.RelationSpans``): the span of block alpha holds J_alpha,
the products of the relations of block beta < alpha with the monomials
of block alpha - beta, plus the relations of block alpha.  Rows of
different blocks share no column, so a degree's span rank is the sum
of its block ranks, and a relation is dependent exactly when it is
dependent inside its own block.  The declared family is not S_m-stable
as a set (IIIa and IIIb remove the least index), so symmetry is not
assumed of it; it follows from the lower degrees passing.  When every
degree below d passed, every relation built vanishes and each degree's
span rank is its kernel dimension, so the span is the kernel there:
the relations below d generate the ideal the kernel generates, which
is S_m-stable because evaluation commutes with permuting the pairs.
Then J_beta is a renumbering of J_rho, for rho the representative of
beta's orbit, so ``RelationSpans.rank`` builds J_rho only, renumbers
into it the degree-d relations of each block of the orbit and reduces
them there: those remainders give each block's added rank and its
dependent relations, and J_rho counts |S_m rho| times.  Once a degree
fails, a stray relation or a rank shortfall, the sweep cannot know
the ideal is stable and builds every block of each later degree; its
report's ``route`` says which was used.

Fallbacks.  A relation without one multidegree, or whose multidegree
does not sum to its declared degree, or declared below degree 2,
switches the sweep to one block per total degree, from the degree at
which that relation is built on: the plain whole-degree span.  A
failing degree's counterexample is the first ``kernel_basis`` member
outside the span of its own block (``RelationSpans.missing``).  Each
member lies in one block, as ``kernel_basis`` runs one left kernel per
block, so that is the first member outside the whole-degree span,
whichever route counted the ranks.

Matrix shapes grow quickly with the number of variable pairs, so every
degree is gated by an entry budget (rows times columns); blowing it
raises ``BudgetExceeded`` instead of grinding.  The shapes come from
closed-form monomial counts, so the budget is charged before any
monomial of the degree is enumerated.  The charges stay whole-degree,
the evaluation matrix and the relation span of the degree, even where
only blocks are built: the budget then stops a sweep at the same
degree, with the same message, whatever route the ranks take.
Charging each block for its own size would admit larger sweeps but
move those exits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .blocks import (
    RelationSpans,
    block_monomials,
    multidegree,
    orbit_reps,
    orbit_size,
)
from .f2 import RowSpan, bit_indices, left_kernel, row_of
from .poly import (
    Monomial,
    all_subsets,
    cardinality,
    monomial_key,
    packed_width,
)
from .qring import (
    QMon,
    QPoly,
    evaluate,
    packed_term_image,
    qmon_key,
)
from .relations import Relation, relation_plan

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "poly_monomials",
    "q_monomials",
    "kernel_basis",
    "linear_kernel_basis",
    "evaluation_rank",
    "invariant_dimension",
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


def _series(weights: list[int], d: int) -> list[int]:
    """Coefficients of t^0..t^d in the product of 1/(1 - t^w) over the
    generator degrees ``weights``: how many monomials of each degree."""
    coeffs = [1] + [0] * d
    for w in weights:
        for i in range(w, d + 1):
            coeffs[i] += coeffs[i - w]
    return coeffs


def _enumerate(weights: list[int], d: int) -> list[list[tuple]]:
    """The monomials ``_series`` counts: entry k lists every exponent
    vector over the generator degrees ``weights`` of weighted degree k,
    for k = 0..d."""
    found = [[()]] + [[] for _ in range(d)]
    for w in weights:
        found = [[e + (k,) for k in range(i // w + 1)
                  for e in found[i - k * w]] for i in range(d + 1)]
    return found


@lru_cache(maxsize=None)
def _q_count(m: int, d: int) -> int:
    """``len(q_monomials(m, d))``, without enumerating them: x's weigh
    1, norms 2, and each trace symbol Tr(A) weighs |A|."""
    traces = [k for k in range(2, m + 1) for _ in range(comb(m, k))]
    return _series([1] * m + [2] * m + traces, d)[d]


def _trace_linear_count(m: int, d: int) -> int:
    """How many degree-d presentation monomials carry at most one trace:
    the trace-free count at d plus, for each trace symbol, at d - |A|."""
    free = _series([1] * m + [2] * m, d)
    return free[d] + sum(comb(m, k) * free[d - k]
                         for k in range(2, min(m, d) + 1))


def _poly_count(m: int, d: int) -> int:
    """``len(poly_monomials(m, d))``, without enumerating them."""
    return comb(d + 2 * m - 1, 2 * m - 1)


def poly_monomials(m: int, d: int) -> list[Monomial]:
    """All polynomial monomials of total degree d, largest first."""
    return sorted(_enumerate([1] * (2 * m), d)[d], key=monomial_key,
                  reverse=True)


@lru_cache(maxsize=None)
def q_monomials(m: int, d: int) -> tuple[QMon, ...]:
    """All presentation-ring monomials of degree d, largest first.

    A monomial is a choice of exponents on the x's (degree 1 each), the
    norms (degree 2 each), and a multiset of trace symbols (degree =
    subset size).  Each trace multiset of weight w is paired with each
    x/N part of degree d - w; the trace symbols are listed in
    descending order, so every multiset comes out in ``QMon``'s
    canonical descending form."""
    subsets = sorted(all_subsets(m, min_size=2), reverse=True)
    traces = _enumerate([cardinality(a) for a in subsets], d)
    free = _enumerate([1] * m + [2] * m, d)
    found = []
    for w in range(d + 1):
        for counts in traces[w]:
            chosen = tuple(a for a, k in zip(subsets, counts)
                           for _ in range(k))
            found += (QMon(e[:m], e[m:], chosen) for e in free[d - w])
    found.sort(key=qmon_key, reverse=True)
    return tuple(found)


def _image_rows(d: int, basis) -> list[int]:
    """Evaluation rows of the degree-d monomials ``basis``: the image of
    each, with columns read straight off its packed monomials."""
    width = packed_width(d)
    index: dict = {}
    return [row_of(packed_term_image(t, width), index) for t in basis]


def _kernel(m: int, d: int, basis: tuple[QMon, ...]) -> list[QPoly]:
    """Left kernel of the evaluation rows of ``basis``, as elements,
    found block by block.  Rows of different multidegrees share no
    column, so each mask of the whole matrix, a dependent row plus the
    one combination of earlier independent rows that sums to it, is a
    mask of that row's block; listed by dependent row, the block masks
    are the whole matrix's, in its order."""
    blocks: dict[tuple, list[int]] = {}
    for position, t in enumerate(basis):
        blocks.setdefault(multidegree(t), []).append(position)
    found = {}
    for rows in blocks.values():
        for mask in left_kernel(_image_rows(d, [basis[p] for p in rows])):
            used = [rows[i] for i in bit_indices(mask)]
            found[used[-1]] = QPoly(m, frozenset(basis[p] for p in used))
    return [found[p] for p in sorted(found)]


def kernel_basis(m: int, d: int, budget: int = DEFAULT_BUDGET) -> list[QPoly]:
    """A basis of the degree-d elements that evaluate to zero."""
    _charge(_q_count(m, d), _poly_count(m, d), budget,
            f"kernel at degree {d}")
    return _kernel(m, d, q_monomials(m, d))


def linear_kernel_basis(m: int, d: int,
                        budget: int = DEFAULT_BUDGET) -> list[QPoly]:
    """Same kernel, restricted to terms with at most one trace factor."""
    _charge(_trace_linear_count(m, d), _poly_count(m, d), budget,
            f"trace-linear kernel at degree {d}")
    return _kernel(m, d, _trace_linear_monomials(m, d))


def _trace_linear_monomials(m: int, d: int) -> tuple[QMon, ...]:
    """The members of ``q_monomials(m, d)`` with at most one trace, in
    its order, listed directly: the x/N monomials of degree d, and for
    each trace subset A those of degree d - |A| times Tr(A)."""
    free = _enumerate([1] * m + [2] * m, d)
    found = [QMon(e[:m], e[m:], ()) for e in free[d]]
    for a in all_subsets(m, min_size=2):
        k = cardinality(a)
        if k <= d:
            found += (QMon(e[:m], e[m:], (a,)) for e in free[d - k])
    found.sort(key=qmon_key, reverse=True)
    return tuple(found)


def _block_rank(m: int, alpha: tuple[int, ...]) -> int:
    """Rank of the evaluation rows of the block of multidegree alpha."""
    span = RowSpan()
    for row in _image_rows(sum(alpha), block_monomials(m, alpha)):
        span.add(row)
    return span.rank


def evaluation_rank(m: int, d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the degree-d space the generators span: the block
    ranks of the orbit representatives, each counted once per member
    of its S_m orbit."""
    _charge(_q_count(m, d), _poly_count(m, d), budget,
            f"evaluation rank at degree {d}")
    return sum(orbit_size(alpha) * _block_rank(m, alpha)
               for alpha in orbit_reps(d, m))


def invariant_dimension(m: int, d: int) -> int:
    """Dimension of the space of degree-d polynomials fixed by the
    involution.  It swaps y_i with z_i = y_i + x_i, so the fixed space
    is spanned by the orbit sums of the monomials in y and z: free
    orbits of two, plus the fixed monomials y^a z^a, one for each a
    with |a| = d/2 (one per all-even multidegree)."""
    fixed = comb(d // 2 + m - 1, m - 1) if d % 2 == 0 else 0
    return (_poly_count(m, d) + fixed) // 2


# ---------------------------------------------------------------------------
# the relation ideal


def _charge_span(m: int, d: int, degrees, budget: int) -> None:
    """Charge the degree-d relation span of generators of the given
    degrees: one row per monomial multiple of degree d, one row each
    for the generators of degree d."""
    nrows = sum(_q_count(m, d - e) for e in degrees if e <= d)
    _charge(nrows, _q_count(m, d), budget, f"relation span at degree {d}")


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    n_q_monomials: int
    n_poly_monomials: int
    kernel_dimension: int
    span_rank: int
    generated: bool
    counterexample: QPoly | None
    # how span_rank was counted (``blocks.RelationSpans.rank``): "orbits"
    # while every lower degree passed, "blocks" after one failed, and
    # "degree" once a relation has no multidegree; not part of the text
    # or JSON report
    route: str

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
    # relations above d_max: never built, so neither evaluated nor
    # tested for minimality
    n_unchecked: int

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
        if self.ok and self.n_unchecked:
            plural = "" if self.n_unchecked == 1 else "s"
            lines.append(
                f"PASS through degree {self.d_max}: generation + minimality;"
                f" {self.n_unchecked} relation{plural} above degree"
                f" {self.d_max} not checked")
        elif self.ok:
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
        blob = {
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
        if self.n_unchecked:
            blob["checked_through"] = self.d_max
            blob["unchecked_relations"] = self.n_unchecked
        return blob


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
    does not evaluate to zero.  A span rank above the kernel dimension,
    which only a relation declared off its real degree can cause, fails
    with no counterexample: no kernel element lies outside the span.
    Minimality: no relation of degree 2 to ``d_max`` may lie in the span
    of the others at its own degree.  Both are decided by one
    elimination per block: the relations of degree d in the block are
    reduced modulo the multiples of the lower ones, and a relation is
    dependent exactly when some left-kernel vector of the remainders
    uses it.
    Relations are built and evaluated inside the sweep, at their own
    degree and after that degree's budget charges (those declared below
    degree 2 at degree 2), and evaluated until one does not vanish;
    relations above ``d_max`` are never built, and the report counts
    them as unchecked: its PASS line then names the checked range
    instead of the whole family.  The declared family
    comes from ``relation_plan``, which gives every degree in closed
    form, so a budget exit never waits for the whole family.  The
    ranks are counted block by block (see the module docstring).
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
        plan = relation_plan(m, flavor)
    else:
        plan = [(r.degree, lambda r=r: r) for r in relations]
    degrees = [e for e, _ in plan]
    # lowest degree first; the sort is stable, so list order among equals
    unbuilt = deque(sorted(range(len(plan)), key=lambda p: degrees[p]))
    built: dict[int, Relation] = {}
    stray = None
    spans = RelationSpans(m)
    reports = []
    for d in range(2, d_max + 1):
        kernel_dimension = _q_count(m, d) - evaluation_rank(m, d, budget)
        _charge_span(m, d, degrees, budget)
        while unbuilt and degrees[unbuilt[0]] <= d:
            position = unbuilt.popleft()
            relation = plan[position][1]()
            if stray is None and evaluate(relation.element):
                stray = relation
            built[position] = relation
            spans.add(position, relation.degree, relation.element)
        span_rank, route = spans.rank(d)
        counterexample = None
        if stray is not None:
            lift = q_monomials(m, d - stray.degree)[0]
            counterexample = QPoly.monomial(lift) * stray.element
        elif span_rank != kernel_dimension:
            counterexample = next(
                spans.missing(d, kernel_basis(m, d, budget)), None)
        generated = stray is None and span_rank == kernel_dimension
        spans.settle(generated)
        reports.append(DegreeReport(
            degree=d,
            n_q_monomials=_q_count(m, d),
            n_poly_monomials=_poly_count(m, d),
            kernel_dimension=kernel_dimension,
            span_rank=span_rank,
            generated=generated,
            counterexample=counterexample,
            route=route,
        ))
    return VerificationReport(
        m=m,
        flavor=flavor,
        d_max=d_max,
        n_relations=len(plan),
        max_degree=max(degrees, default=0),
        degrees=tuple(reports),
        dependent=tuple(built[p].label() for p in sorted(spans.dependent)),
        n_unchecked=sum(e > d_max for e in degrees),
    )


def max_relation_degree(m: int, budget: int = DEFAULT_BUDGET) -> int:
    """Largest degree whose kernel is not spanned by lower-degree kernel
    elements; the search stops one past twice the number of pairs.

    Multiples of kernel elements lie in the kernel, so the span of the
    lower-degree generators falls short exactly when its rank is below
    the kernel's dimension; ranks decide each degree.  Only where the
    span falls short is a kernel basis built, and only the members the
    span misses become generators, so the generators found form a
    minimal generating set.  Every multiple of a lower-degree kernel
    element is a combination of multiples of these generators, so the
    next degree's span needs no other rows."""
    if m < 1:
        raise ValueError(
            f"max_relation_degree wants m >= 1 variable pairs, got {m}")
    if budget < 1:
        raise ValueError(
            f"max_relation_degree wants a positive budget, got {budget}")
    top = 0
    degrees: list[int] = []
    spans = RelationSpans(m)
    for d in range(2, 2 * m + 2):
        kernel_dimension = _q_count(m, d) - evaluation_rank(m, d, budget)
        _charge_span(m, d, degrees, budget)
        if spans.rank(d)[0] < kernel_dimension:
            for member in spans.missing(d, kernel_basis(m, d, budget)):
                spans.add(len(degrees), d, member)
                degrees.append(d)
            top = d
        # the members missing() files complete the span to the kernel, so
        # every degree ends generated and the sweep stays on orbits
        spans.settle(True)
    return top
