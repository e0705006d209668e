"""Verification of the relation families, degree by degree.

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
  was checked.  Relations above the bound are never built; when any
  lie above, the PASS line says "PASS through degree d" and counts
  them, and the JSON adds ``checked_through`` and
  ``unchecked_relations``.  The kernel dimension is a rank count, so
  no kernel basis is built unless a degree fails;
* ``invariant_dimension`` counts the fixed polynomials of a degree in
  closed form, ``(C(d+2m-1, 2m-1) + [d even] C(d/2+m-1, m-1)) / 2``:
  the involution swaps y_i with z_i = y_i + x_i, so the fixed space is
  spanned by orbit sums of monomials in y and z, free pairs plus one
  fixed monomial per all-even multidegree.  ``evaluation_rank`` counts
  what the generators span there; the two agree exactly when the
  generators generate, and ``evaluation_rank`` proves that agreement
  from the generators' leads, at every degree, where their check
  passes (below).

Ranks, span membership and left-kernel vectors do not depend on the
order of a matrix's columns: the left kernel is fixed by which rows
are independent of the rows before them.  So no column order is set
up in advance, and no monomial of a degree is enumerated to index the
columns.  An evaluation row is the block int of its monomial
(``block_images``), whose bits number the block's polynomial
monomials in mixed radix.  Relation-span rows give a column to each
presentation monomial's key on first sight (``f2.row_of``); a key is
a product of primes, one per symbol, so that a product by a
multiplier is one int multiplication per term (``blocks``).

Blocks.  Sending x_i to e_i, N_i to 2 e_i and Tr(A) to the indicator
vector 1_A grades the presentation ring by multidegree alpha in N^m,
and evaluation respects the grading when x_i and y_i both count e_i
(module ``blocks``).  So the evaluation matrix of a degree is block
diagonal, one block per alpha with |alpha| = d, whose rows are the
presentation monomials of multidegree alpha (``block_monomials``) and
whose columns are the polynomial monomials of multidegree alpha.
Per block the fixed space has dimension
``(prod(alpha_i + 1) + [every alpha_i even]) / 2``.  Once the
generators' leads are checked (``_generator_leads_hold``), a block's
trace-linear monomials have exactly that many distinct leads, so
``evaluation_rank`` is ``invariant_dimension`` with no block listed
(the proof is in its docstring).  Where the check fails, one block
per S_m orbit, the non-increasing alpha, is eliminated and counted
|S_m alpha| times: permuting the variable pairs commutes with
evaluation, so the blocks of one orbit have equal rank.

Every type I, II and III relation is multihomogeneous, and so are its
monomial multiples, so ``verify_relation_ideal`` files each relation
under its multidegree and counts the relation span block by block
(``blocks.RelationSpans``): the span of block alpha holds J_alpha,
the products of the relations of block beta < alpha with the monomials
of block alpha - beta, plus the relations of block alpha.  Rows of
different blocks share no column, so a degree's span rank is the sum
of its block ranks, and a relation is dependent exactly when it is
dependent inside its own block, where ``RelationSpans.rank`` reduces
it modulo J_alpha.

Leads.  The declared family is decided on its shapes, with nothing
built or filed.  Each relation is the image of one whose sets cover
[k] (``shapes``) under a monotone embedding [k] -> [m] of the pairs,
which the constructors, ``RelationSpans._lead`` and evaluation
(injective) commute with: an OI-module (Sam and Snowden, "Groebner
methods for representations of combinatorial categories").  So once a
degree's shapes at every k <= m vanish, lead as their table says and
have two generator factors or more per term, each read in one pass
over its core's mask terms (``shape_holds``; the verdict of each
width and degree is kept, ``_shapes_hold``), the leads are every
Tr(A)Tr(B) and x_c Tr(B), c < min B.  The lead order is a monomial
order and distinct leads are independent, so by Macaulay the span
rank is at least the number of monomials a lead divides, all but the
``_standard_count`` ones, and at most the kernel dimension; the two
meet, as their series agree.  A shape that fails, or a count that
misses, files the relations below the degree and sends the sweep on
per relation: while every relation built vanishes, ``lead_count``
counts distinct leads of the relations filed, the trace-linear
monomials lower leads x_c Tr(B) divide in closed form over every
block, from the series ``_standard_count`` reads; else, or where that
count misses, each block that holds something is eliminated, to the
same report.  ``route``
reads "leads" where a count decided.

Fallbacks.  The multigrading is the sweep's only grading: a relation
passed in must have one multidegree, summing to its declared degree
(``verify_relation_ideal``).  A failing degree's counterexample is
the first ``kernel_basis`` member outside the span of its own block
(``RelationSpans.missing``); each member lies in one block, as
``kernel_basis`` runs one left kernel per block.  Only the blocks
whose span rank falls short of their kernel dimension are built
(``_short_kernel``), in the basis's order: with every relation
vanishing, a block's span lies in its kernel, so the members of the
other blocks lie in the span.

Every degree is gated by an entry budget (rows times columns),
charged from closed-form monomial counts before any monomial of the
degree is enumerated; blowing it raises ``BudgetExceeded``.  The
charges stay whole-degree, the evaluation matrix and the relation
span, whatever route the ranks take, so the budget stops a sweep at
the same degree with the same message; charging each block for its
own size would admit larger sweeps but move those exits.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from math import comb, prod

from .blocks import (
    RelationSpans,
    block_monomials,
    compositions,
    merged_blocks,
    multidegrees,
    orbit_reps,
    orbit_size,
    relation_block,
)
from .f2 import RowSpan, bit_indices, left_kernel
from .poly import (
    DimensionMismatch,
    Monomial,
    Record,
    _set,
    all_subsets,
    monomial_key,
)
from .qring import (
    QMon,
    QPoly,
    bit_monomial,
    block_images,
    block_sums,
    involution_fixes,
    largest_qmon,
    multidegree,
    qmon_key,
    summand_lead,
)
from .relations import (
    Relation,
    relation_degrees,
    relations_of_degree,
)
from .series import free_series, q_series
from .shapes import shape_cores, shape_holds

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "poly_monomials",
    "q_monomials",
    "kernel_basis",
    "linear_kernel_basis",
    "evaluation_rank",
    "invariant_dimension",
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


def _enumerate(weights: list[int], d: int) -> list[list[tuple]]:
    """The monomials ``monomial_series`` counts, one weight in
    ``weights`` per generator: entry k lists every exponent vector of
    weighted degree k, for k = 0..d."""
    found = [[()]] + [[] for _ in range(d)]
    for w in weights:
        found = [[e + (k,) for k in range(i // w + 1)
                  for e in found[i - k * w]] for i in range(d + 1)]
    return found


def _q_count(m: int, d: int) -> int:
    """``len(q_monomials(m, d))``, without enumerating them: t^d of the
    one series table of width m (``q_series``), 0 below degree 0."""
    return q_series(m, d)[d] if d >= 0 else 0


def _trace_linear_count(m: int, d: int) -> int:
    """How many degree-d presentation monomials carry at most one trace:
    the trace-free count at d plus, for each trace symbol, at d - |A|."""
    free = free_series(m, d)[m]
    return free[d] + sum(comb(m, k) * free[d - k]
                         for k in range(2, min(m, d) + 1))


def _standard_count(m: int, d: int) -> int:
    """How many degree-d monomials no lead of the declared family
    divides: the x^I N^J, and the x^I N^J Tr(B) with I_c = 0 for every
    c < s = min B.  The t^d coefficient of 1/((1-t)^m (1-t^2)^m) plus,
    over s and k = |B| >= 2, C(m-1-s, k-1) t^k / ((1-t)^(m-s) (1-t^2)^m).
    It is ``invariant_dimension(m, d)``: times (1-t^2)^m, with j = m - s,
    u = 1/(1-t) and v = (1+t)/(1-t), so that u - 1 = tu and v - 1 = 2tu,
    the series is u^m + sum_j (tu v^(j-1) - t u^j) = (v^m + 1) / 2, the
    Hilbert series (1/(1-t)^(2m) + 1/(1-t^2)^m) / 2 times (1-t^2)^m."""
    free = free_series(m, d)  # free[j] is 1/((1-t)^j (1-t^2)^m)
    return free[m][d] + sum(comb(m - 1 - s, k - 1) * free[m - s][d - k]
                            for s in range(m)
                            for k in range(2, min(m - s, d) + 1))


def _poly_count(m: int, d: int) -> int:
    """``len(poly_monomials(m, d))``, without enumerating them."""
    return comb(d + 2 * m - 1, 2 * m - 1)


def poly_monomials(m: int, d: int) -> list[Monomial]:
    """All polynomial monomials of total degree d, largest first."""
    return sorted(_enumerate([1] * (2 * m), d)[d], key=monomial_key,
                  reverse=True)


@lru_cache(maxsize=None)
def q_monomials(m: int, d: int) -> tuple[QMon, ...]:
    """All presentation-ring monomials of degree d, largest first: those
    of every block of degree d."""
    return merged_blocks(m, compositions(d, m))


def _kernel(m: int, basis: tuple[QMon, ...]) -> list[QPoly]:
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
    for alpha, rows in blocks.items():
        _, images = block_images(alpha, [basis[p] for p in rows])
        for mask in left_kernel(images):
            used = [rows[i] for i in bit_indices(mask)]
            found[used[-1]] = QPoly(m, frozenset(basis[p] for p in used))
    return [found[p] for p in sorted(found)]


def kernel_basis(m: int, d: int, budget: int = DEFAULT_BUDGET) -> list[QPoly]:
    """A basis of the degree-d elements that evaluate to zero."""
    _charge(_q_count(m, d), _poly_count(m, d), budget,
            f"kernel at degree {d}")
    return _kernel(m, q_monomials(m, d))


def _short_kernel(m: int, d: int, spans: RelationSpans,
                  kernel_dimension: int, budget: int) -> list[QPoly]:
    """The ``kernel_basis(m, d)`` members that can lie outside the
    degree-d span ``spans.rank`` left, in that basis's order: only those
    of the blocks where the span falls short of the kernel
    (``RelationSpans.short``) are built, after ``kernel_basis``'s
    charge."""
    _charge(_q_count(m, d), _poly_count(m, d), budget,
            f"kernel at degree {d}")
    # each orbit's kernel dimension, by evaluation_rank's rule:
    # prod(alpha_i + 1) is odd exactly when every alpha_i is even
    leads = _generator_leads_hold(m, d)
    dims = {alpha: len(block_monomials(m, alpha)) - (
        (prod(a + 1 for a in alpha) + 1) // 2 if leads
        else _eliminated_rank(m, alpha)) for alpha in orbit_reps(d, m)}
    short = spans.short(d, kernel_dimension, dims)
    return _kernel(m, merged_blocks(m, short))


def linear_kernel_basis(m: int, d: int,
                        budget: int = DEFAULT_BUDGET) -> list[QPoly]:
    """Same kernel, restricted to terms with at most one trace factor."""
    _charge(_trace_linear_count(m, d), _poly_count(m, d), budget,
            f"trace-linear kernel at degree {d}")
    return _kernel(m, _trace_linear_monomials(m, d))


def _trace_linear_monomials(m: int, d: int) -> tuple[QMon, ...]:
    """The members of ``q_monomials(m, d)`` with at most one trace, in
    its order, listed directly: the x/N monomials of degree d - |A|
    times Tr(A), for no trace (|A| = 0) and each trace subset A."""
    free = _enumerate([1] * m + [2] * m, d)
    return tuple(sorted(
        (QMon(e[:m], e[m:], traces) for traces in [()] + [
            (a,) for a in all_subsets(m, min_size=2) if sum(a) <= d]
         for e in free[d - sum(map(sum, traces))]),
        key=qmon_key, reverse=True))


def _generator_leads_hold(m: int, d: int) -> bool:
    """Whether each generator a degree-d block can hold, x_i, N_i and
    Tr(A) with |A| <= d, has an image that leads with its
    ``summand_lead`` and is fixed by the involution.  Each is the image
    of a generator on all of [k] under a monotone embedding [k] -> [m],
    whose verdict is its own (``_width_leads``), so the full-support
    generators of widths k <= min(d, m) and degree at most d are read:
    m + 1 images at most, once per width in a process."""
    return all(holds for k in range(1, min(d, m) + 1)
               for degree, holds in _width_leads(k) if degree <= d)


@lru_cache(maxsize=None)
def _width_leads(k: int) -> tuple[tuple[int, bool], ...]:
    """The degree and verdict of each generator of width k whose support
    is [k]: x_0 and N_0 at k = 1, Tr([k]) above.  Its block int's top
    bit decodes to its lead, and ``involution_fixes`` tells whether it
    is invariant.

    A generator at width m is the image of one of these under a
    monotone embedding sigma: [k] -> [m], which inserts zero
    coordinates, and each reading commutes with sigma.  A zero
    coordinate has radix factor 1, so ``block_images`` gives sigma(g)
    the same int and its members the same radices, 1, 2, ..., 2^(k-1)
    for Tr([k]).  ``bit_monomial`` and ``summand_lead`` commute with
    zero insertion: a zero coordinate's digit is 0.
    ``involution_fixes`` makes no move on a zero coordinate, whose digit
    count is 1, and reads each member's weight and period as at k."""
    one, zero = (1,) * k, (0,) * k
    generators = ([QMon(one, zero, ()), QMon(zero, one, ())] if k == 1
                  else [QMon(zero, zero, (one,))])
    found = []
    for g in generators:
        alpha = multidegree(g)
        radices, (image,) = block_images(alpha, [g])
        found.append((sum(alpha), bool(image) and bit_monomial(
            alpha, radices, image.bit_length() - 1) == summand_lead(g)
            and involution_fixes(image, radices)))
    return tuple(found)


def _eliminated_rank(m: int, alpha: tuple[int, ...]) -> int:
    """Rank of the evaluation rows of the block of multidegree alpha, by
    elimination."""
    span = RowSpan()
    _, rows = block_images(alpha, block_monomials(m, alpha))
    for row in rows:
        span.add(row)
    return span.rank


def evaluation_rank(m: int, d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the degree-d space the generators span: the
    fixed-space dimension ``invariant_dimension(m, d)`` once
    ``_generator_leads_hold(m, d)``, else the eliminated ranks of the
    orbit representatives, each counted |S_m alpha| times.  The check
    reads the block int of each full-support generator, once per width,
    its top bit and its Taylor shift, and builds no ``Poly``.

    Proof (Richman's first main theorem, block by block).  In block
    alpha, images with distinct leads are independent and every image
    is invariant, so the rank lies between the number of distinct leads
    of the trace-linear monomials and the fixed-space dimension
    (P + [alpha all even]) / 2, P = prod(alpha_i + 1).  Once the
    generator check holds, those leads are ``summand_lead``s: x^I N^J
    leads with x^I y^(2J), and x^I N^J Tr(A) with
    x^(I + e_a) y^(2J + A - e_a), a = min A.  So the leads are the
    x^(alpha - b) y^b with b <= alpha all even, or with a nonempty odd
    support S and some a < min S where b_a < alpha_a (A = S + {a}).
    The other b, whose first odd coordinate comes after only
    b_i = alpha_i even, number bad(alpha), and 2 bad(alpha) =
    P - [alpha all even] by induction from bad(()) = 0: peeling
    a = alpha_1 off alpha = (a, alpha') gives bad(alpha) =
    #odd(b <= a) P(alpha') + [a even] bad(alpha'), and the two facts
    #even(b <= a) + #odd(b <= a) = a + 1 and 2 #even(b <= a) =
    (a + 1) + [a even] give 2 #odd(b <= a) = (a + 1) - [a even].  So
    the lead count P - bad(alpha) meets the dimension, and the ranks of
    the blocks of degree d sum to ``invariant_dimension(m, d)``."""
    _charge(_q_count(m, d), _poly_count(m, d), budget,
            f"evaluation rank at degree {d}")
    if _generator_leads_hold(m, d):
        return invariant_dimension(m, d)
    return sum(orbit_size(alpha) * _eliminated_rank(m, alpha)
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


_verdicts: dict = {}


def _shapes_hold(k: int, d: int, flavor: str) -> bool:
    """Whether every shape of width k and degree d holds: the verdict
    ``verify_relation_ideal`` needs at each k <= m, kept in ``_verdicts``
    once per process, as the shapes of width k do not depend on m.  Type
    I on [k], the first shape at d = k >= 3, is the same in every
    flavor, so its verdict is kept there once per width, under (k, None).
    ``_shapes_hold.cache_clear`` empties them all."""
    verdict = _verdicts.get((k, d, flavor))
    if verdict is None:
        shapes = shape_cores(k, d, flavor)
        verdict = True
        if d == k >= 3:
            first = next(shapes)
            verdict = _verdicts.get((k, None))
            if verdict is None:
                verdict = _verdicts[k, None] = shape_holds(k, *first)
        verdict = _verdicts[k, d, flavor] = verdict and all(
            shape_holds(k, *shape) for shape in shapes)
    return verdict


_shapes_hold.cache_clear = _verdicts.clear


def _charge_span(m: int, d: int, degrees: Counter, budget: int) -> None:
    """Charge the degree-d relation span of generators whose degrees
    ``degrees`` counts: one row per monomial multiple of degree d, one
    row each for the generators of degree d."""
    nrows = sum(count * _q_count(m, d - e)
                for e, count in degrees.items() if e <= d)
    _charge(nrows, _q_count(m, d), budget, f"relation span at degree {d}")


class DegreeReport(Record):
    # route, how span_rank was counted: "leads", by a count of leads, on
    # the shapes or, while every relation built vanishes, by
    # ``blocks.RelationSpans.lead_count``; else "blocks", by elimination
    # one multidegree block at a time (``RelationSpans.rank``).  Not part
    # of the text or JSON report
    __slots__ = ("degree", "n_q_monomials", "n_poly_monomials",
                 "kernel_dimension", "span_rank", "generated",
                 "counterexample", "route")

    def __init__(self, degree: int, n_q_monomials: int,
                 n_poly_monomials: int, kernel_dimension: int,
                 span_rank: int, generated: bool,
                 counterexample: QPoly | None, route: str):
        _set(self, "degree", degree)
        _set(self, "n_q_monomials", n_q_monomials)
        _set(self, "n_poly_monomials", n_poly_monomials)
        _set(self, "kernel_dimension", kernel_dimension)
        _set(self, "span_rank", span_rank)
        _set(self, "generated", generated)
        _set(self, "counterexample", counterexample)
        _set(self, "route", route)

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


class VerificationReport(Record):
    # n_unchecked counts the relations above d_max: never built, so
    # neither evaluated nor tested for minimality
    __slots__ = ("m", "flavor", "d_max", "n_relations", "max_degree",
                 "degrees", "dependent", "n_unchecked")

    def __init__(self, m: int, flavor: str, d_max: int, n_relations: int,
                 max_degree: int, degrees: tuple[DegreeReport, ...],
                 dependent: tuple[str, ...], n_unchecked: int):
        _set(self, "m", m)
        _set(self, "flavor", flavor)
        _set(self, "d_max", d_max)
        _set(self, "n_relations", n_relations)
        _set(self, "max_degree", max_degree)
        _set(self, "degrees", degrees)
        _set(self, "dependent", dependent)
        _set(self, "n_unchecked", n_unchecked)

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
    counterexample: the first ``kernel_basis`` member outside the span,
    built from the blocks where the span falls short alone on the
    multigrading (``_short_kernel``), or a monomial multiple of the
    lowest-degree relation (first among equals) that does not evaluate
    to zero.
    Minimality: no relation of degree 2 to ``d_max`` may lie in the span
    of the others at its own degree.  The declared family is decided
    on its shapes (module docstring, "Leads"), and names no dependent
    relation: its degree-d relations lead with distinct products of
    two generators, so a nonzero sum of them keeps its greatest lead,
    and every term of a lower relation times a monomial has three or
    more.  A family passed in is decided by a lead count where it can,
    else by one elimination per block: a block's degree-d relations
    are reduced modulo the multiples of the lower ones, and one is
    dependent exactly when a left-kernel vector of the remainders uses
    it.  Relations are built at their own degree, after its budget
    charges (those declared below 2 at degree 2), and evaluated by
    ``qring.block_sums``, which also names a relation's block, until
    one does not vanish.  A relation passed in whose terms do not share
    one multidegree summing to its declared degree, the zero element
    included, raises ``ValueError`` where the sweep files it: the
    relation ideal is multigraded, so its multihomogeneous elements
    generate it.  The declared family is counted in closed form
    (``relation_degrees``), so a budget exit never waits for it.
    Passing ``relations`` overrides the declared basis, so that broken
    families can be shown to fail; one of another width than m raises
    ``DimensionMismatch``, before any degree is checked.
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
        counts = relation_degrees(m, flavor)
        due = partial(relations_of_degree, m, flavor=flavor)
    else:
        wrong = next((r for r in relations if r.element.m != m), None)
        if wrong is not None:
            raise DimensionMismatch(f"relation {wrong.label()} has"
                                    f" m={wrong.element.m}, not {m}")
        counts = Counter(r.degree for r in relations)
        # lowest degree first; the sort is stable, so list order among
        # equals; those declared below degree 2 are due at degree 2
        listed: dict[int, list] = {}
        for position in sorted(range(len(relations)),
                               key=lambda p: relations[p].degree):
            listed.setdefault(max(relations[position].degree, 2), []).append(
                (position, lambda r=relations[position]: r))
        due = lambda d: listed.get(d, ())
    built: dict[int, Relation] = {}
    stray = None
    spans = RelationSpans(m)
    reports = []
    shapes = relations is None
    for d in range(2, d_max + 1):
        kernel_dimension = _q_count(m, d) - evaluation_rank(m, d, budget)
        _charge_span(m, d, counts, budget)
        if shapes and all(_shapes_hold(k, d, flavor)
                          for k in range(1, m + 1)) and (
                _q_count(m, d) - _standard_count(m, d) == kernel_dimension):
            reports.append(DegreeReport(
                d, _q_count(m, d), _poly_count(m, d), kernel_dimension,
                kernel_dimension, True, None, "leads"))
            continue
        # past a shape that failed, the relations below d too, in order
        for e in range(2 if shapes else d, d + 1):
            for position, build in due(e):
                relation = build()
                if stray is None:
                    # one grouping by multidegree: the images and the block
                    alphas = block_sums(relation.element)
                    if any(image for _, image in alphas.values()):
                        stray = relation
                else:
                    alphas = multidegrees(relation.element)
                block = relation_block(relation.degree, alphas)
                if block is None:
                    raise ValueError(
                        f"relation {relation.label()} is declared at degree"
                        f" {relation.degree}, but its terms have the"
                        f" multidegrees {sorted(alphas)}")
                built[position] = relation
                spans.add(position, block, relation.element)
        shapes = False
        span_rank, route = None, "leads"
        if stray is None:
            span_rank = spans.lead_count(
                d, _q_count(m, d) - _trace_linear_count(m, d))
        if span_rank != kernel_dimension:
            span_rank, route = spans.rank(d), "blocks"
        counterexample = None
        if stray is not None:
            counterexample = QPoly.monomial(
                largest_qmon(m, d - stray.degree)) * stray.element
        elif span_rank != kernel_dimension:
            counterexample = next(spans.missing(d, _short_kernel(
                m, d, spans, kernel_dimension, budget)))
        generated = stray is None and span_rank == kernel_dimension
        reports.append(DegreeReport(
            d, _q_count(m, d), _poly_count(m, d), kernel_dimension,
            span_rank, generated, counterexample, route))
    return VerificationReport(
        m=m,
        flavor=flavor,
        d_max=d_max,
        n_relations=counts.total(),
        max_degree=max(counts, default=0),
        degrees=tuple(reports),
        dependent=tuple(built[p].label() for p in sorted(spans.dependent)),
        n_unchecked=sum(n for e, n in counts.items() if e > d_max),
    )
