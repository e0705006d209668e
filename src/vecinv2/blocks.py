"""The multigrading of the presentation ring and the S_m action on it.

Sending x_i to e_i, N_i to 2 e_i and Tr(A) to the indicator vector 1_A
grades the presentation ring by multidegree alpha in N^m
(``multidegree``); a degree-d monomial has |alpha| = d.  Evaluation
respects the grading when x_i and y_i both count e_i, because every
generator's image is multihomogeneous of its symbol's multidegree:
x_i, y_i (y_i + x_i) and the transfer of A, whose terms y^B x^(A-B)
each count 1_A.  Every type I, II and III relation is multihomogeneous
too.  So the oracle's matrices split into blocks, one per multidegree
(``block_monomials`` lists a block's presentation monomials).

Permuting the variable pairs permutes the blocks and commutes with
evaluation.  ``orbit_reps`` picks one multidegree per S_m orbit, the
non-increasing one, and ``orbit_size`` counts its orbit.
``RelationSpans`` builds the relation span of a degree on those
representatives while the ideal of the lower relations is S_m-stable,
and on every block once it may not be.

The relation spans key their columns by packed monomials, as
``poly.pack`` does for polynomial monomials: a presentation monomial
is one int with a field of ``width`` bits for each x_i, each N_i and,
per trace subset, the count of that trace symbol.  Multiplying by a
monomial is then adding its int, with no tuple built and no trace
multiset sorted.  No field exceeds its monomial's degree, so a width
that holds the largest degree a product reaches keeps every field from
carrying into the next: one degree's width is chosen from what its
products actually reach, the multiplier degree plus the heaviest term
of the element, never from the declared degree, which a relation off
the multigrading may understate.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import factorial
from operator import ge, itemgetter, le, sub

from .f2 import RowSpan, bit_indices, left_kernel, row_of
from .poly import all_subsets, pack, packed_width
from .qring import QMon, QPoly, qmon_degree

__all__ = [
    "multidegree",
    "relation_block",
    "block_monomials",
    "compositions",
    "orbit_reps",
    "orbit_size",
    "RelationSpans",
]


def multidegree(t: QMon) -> tuple[int, ...]:
    """The multidegree of a presentation monomial: x_i counts e_i, N_i
    counts 2 e_i and Tr(A) the indicator vector of A."""
    return tuple(map(sum, zip(t.xe, t.ne, t.ne, *t.traces)))


def relation_block(degree: int, element: QPoly) -> tuple[int, ...] | None:
    """The multidegree of a relation's element, when all its terms share
    one whose total is the declared ``degree``, at least 2; else None."""
    found = {multidegree(t) for t in element.terms}
    if len(found) != 1 or degree < 2:
        return None
    (beta,) = found
    return beta if sum(beta) == degree else None


def block_monomials(m: int, alpha: tuple[int, ...]) -> list[QMon]:
    """Every presentation monomial of multidegree ``alpha``: a multiset
    of trace symbols that fits under alpha, listed in descending order,
    with each split of the rest into x's and norms."""
    subsets = [a for a in sorted(all_subsets(m, min_size=2), reverse=True)
               if all(map(le, a, alpha))]
    found = []
    stack = [(0, (), alpha)]
    while stack:
        start, traces, rest = stack.pop()
        for ne in product(*(range(r // 2 + 1) for r in rest)):
            found.append(QMon(tuple(r - 2 * n for r, n in zip(rest, ne)),
                              ne, traces))
        for k in range(start, len(subsets)):
            if all(map(le, subsets[k], rest)):
                stack.append((k, traces + (subsets[k],),
                              tuple(map(sub, rest, subsets[k]))))
    return found


def compositions(d: int, m: int):
    """Every m-tuple of naturals summing to d: each multidegree of
    degree d."""
    if m == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in compositions(d - first, m - 1):
            yield (first,) + rest


def orbit_reps(d: int, m: int) -> list[tuple[int, ...]]:
    """One multidegree of degree d from each S_m orbit: the
    non-increasing ones."""
    return [a for a in compositions(d, m) if all(map(ge, a, a[1:]))]


def orbit_size(alpha: tuple[int, ...]) -> int:
    """How many multidegrees permuting ``alpha`` gives: |S_m alpha|."""
    size = factorial(len(alpha))
    for repeats in Counter(alpha).values():
        size //= factorial(repeats)
    return size


def _sorting(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """The pairs of ``alpha`` in the order that sorts it non-increasingly
    (ties keep their order): renumbering the pairs by it maps block
    alpha onto its orbit representative."""
    return tuple(sorted(range(len(alpha)), key=lambda i: -alpha[i]))


def _renumbered(terms, order: tuple[int, ...]):
    """``terms`` with the variable pairs renumbered, new pair k being old
    pair order[k], in every x, norm and trace symbol."""
    if order == tuple(range(len(order))):
        return terms
    get = itemgetter(*order)
    return [QMon(get(t.xe), get(t.ne),
                 tuple(sorted(map(get, t.traces), reverse=True)))
            for t in terms]


class RelationSpans:
    """The relation span of each degree, block by block.

    ``add`` files a relation, by position, degree and element, under its
    block: its multidegree while every relation filed so far has one
    (``relation_block``), and block (degree,) from the first that does
    not.  The span of block alpha is J_alpha plus the relations filed
    at alpha, J_alpha being the row space of the products of the
    relations filed strictly below alpha with the monomials of the
    remaining block.  A degree is counted by ``rank``, and its outcome
    reported by ``settle`` before the next is.  The spans of the degree
    last passed to ``rank`` are kept for ``missing``.

    Columns are packed monomial keys (see the module docstring), all of
    one degree at one width.  ``excess`` is how far the heaviest term of
    any relation filed lies above its declared degree, so no product of
    degree d's spans passes degree d + excess, and the width holds that.
    The packed multiplier blocks and relation terms are cached at the
    current width, for one sweep."""

    def __init__(self, m: int):
        self.m = m
        self.graded = True
        # every degree settled so far ended with the span equal to the
        # kernel: the ideal of the relations filed is S_m-stable so far
        self.generated = True
        self.ranked: int | None = None
        self.orbits = False
        self.filed: dict[tuple, list[tuple[int, QPoly]]] = {}
        self.excess = 0
        self.width = 0
        self.trace_keys: dict[tuple, int] = {}
        self.multipliers: dict[tuple, list[int]] = {}
        self.keys: dict[tuple, list[list[int]]] = {}
        self.products: dict[tuple, tuple[RowSpan, dict]] = {}
        self.spans: dict[tuple, tuple[RowSpan, dict]] = {}
        self.dependent: set[int] = set()

    def add(self, position: int, degree: int, element: QPoly) -> None:
        beta = relation_block(degree, element)
        if beta is None:
            heaviest = max(map(qmon_degree, element.terms), default=0)
            self.excess = max(self.excess, heaviest - degree)
        self.graded = self.graded and beta is not None
        block = beta if self.graded else (degree,)
        self.filed.setdefault(block, []).append((position, element))
        self.keys.pop(block, None)

    def _set_width(self, width: int) -> None:
        """Pack at ``width`` bits a field from now on, dropping what was
        packed at another."""
        if width != self.width:
            self.width = width
            self.multipliers = {}
            self.keys = {}
            self.trace_keys = {
                a: 1 << (k * width)
                for k, a in enumerate(all_subsets(self.m, min_size=2),
                                      start=2 * self.m)}

    def _pack(self, terms) -> list[int]:
        """The packed keys of presentation monomials."""
        width, trace = self.width, self.trace_keys.__getitem__
        return [pack(t.xe + t.ne, width) + sum(map(trace, t.traces))
                for t in terms]

    def _multipliers(self, gamma: tuple) -> list[int]:
        if gamma not in self.multipliers:
            self.multipliers[gamma] = self._pack(
                block_monomials(self.m, gamma) if self.graded else
                [t for alpha in compositions(gamma[0], self.m)
                 for t in block_monomials(self.m, alpha)])
        return self.multipliers[gamma]

    def _keys(self, key: tuple) -> list[list[int]]:
        """The packed terms of the relations filed under ``key``."""
        if key not in self.keys:
            self.keys[key] = [self._pack(element.terms)
                              for _, element in self.filed[key]]
        return self.keys[key]

    def _products(self, alpha: tuple) -> tuple[RowSpan, dict, list]:
        """J_alpha with its column index, and the relations filed at
        alpha as (position, packed terms) pairs."""
        index: dict = {}
        span = RowSpan()
        same = []
        for key, filed in self.filed.items():
            # a key sums to the declared degree of the relations under it
            block = key if self.graded else (sum(key),)
            if block == alpha:
                same += zip((p for p, _ in filed), self._keys(key))
            elif all(map(le, block, alpha)):
                elements = self._keys(key)
                for mult in self._multipliers(tuple(map(sub, alpha, block))):
                    for keys in elements:
                        span.add(row_of(map(mult.__add__, keys), index))
        return span, index, same

    def _remainders(self, span: RowSpan, index: dict,
                    same) -> tuple[list[int], int]:
        """The remainders of the relations ``same``, (position, packed
        terms) pairs, modulo ``span``, and their rank.  The relations
        some left-kernel vector of the remainders uses go to
        ``dependent``."""
        rows = [span.remainder(row_of(keys, index)) for _, keys in same]
        kernel = left_kernel(rows)
        used = 0
        for mask in kernel:
            used |= mask
        self.dependent.update(same[i][0] for i in bit_indices(used))
        return rows, len(rows) - len(kernel)

    def _moved(self, beta: tuple) -> tuple[tuple, list]:
        """The representative rho of beta's orbit, and the relations
        filed at beta renumbered into block rho by beta's sorting order,
        as (position, packed terms) pairs."""
        order = _sorting(beta)
        return tuple(beta[i] for i in order), [
            (p, self._pack(_renumbered(element.terms, order)))
            for p, element in self.filed.get(beta, ())]

    def _span(self, alpha: tuple) -> tuple[RowSpan, dict]:
        """The span of block alpha and its column index, built on first
        request.  On the orbit route it is a copy of J_rho closed by the
        relations of alpha, renumbered, so it is alpha's span in the
        numbering of rho; the copies share J_rho's column index, which
        only ever gains columns."""
        if alpha not in self.spans:
            if self.orbits:
                rho, renumbered = self._moved(alpha)
                span, index = self.products[rho]
                span = span.copy()
                rows = [row_of(keys, index) for _, keys in renumbered]
            else:
                span, index, same = self._products(alpha)
                rows = self._remainders(span, index, same)[0]
            for row in rows:
                span.add(row)
            self.spans[alpha] = span, index
        return self.spans[alpha]

    def _orbit_rank(self, d: int) -> int:
        """The rank of the degree-d span from the orbit representatives,
        exact while the ideal J of the relations below d is S_m-stable.
        Renumbering the pairs by the sorting order of a block beta
        (``_sorting``) maps beta onto its representative rho, and then
        J_beta onto J_rho and the relations filed at beta onto relations
        of block rho.  So a block's rank is rank J_rho plus the rank of
        its renumbered relations modulo J_rho, and those relations are
        dependent exactly when their images are: only J_rho is built,
        and kept for ``missing``."""
        moved: dict[tuple, list[list]] = {}
        for beta in self.filed:
            if sum(beta) == d:
                rho, renumbered = self._moved(beta)
                moved.setdefault(rho, []).append(renumbered)
        total = 0
        for rho in orbit_reps(d, self.m):
            span, index, _ = self._products(rho)
            self.products[rho] = span, index
            total += orbit_size(rho) * span.rank
            for renumbered in moved.get(rho, ()):
                total += self._remainders(span, index, renumbered)[1]
        return total

    def rank(self, d: int) -> tuple[int, str]:
        """The rank of the degree-d span and the route that counted it.
        The blocks holding degree-d relations decide their minimality
        here.  Under the multigrading, while every lower degree has
        settled generated, the span of degree e < d is the kernel there,
        so the ideal J the relations below d generate is S_m-stable and
        one block per orbit is built ("orbits", ``_orbit_rank``); once
        one has not, every block of the degree ("blocks").  Under the
        one-block-per-degree grading the one block is the whole degree
        ("degree").  Only the degree-d spans are kept."""
        if self.ranked is not None:
            raise RuntimeError(
                f"degree {self.ranked} was ranked but never settled")
        self.ranked = d
        self.orbits = self.graded and self.generated
        self.products = {}
        self.spans = {}
        self._set_width(packed_width(d + self.excess))
        if not self.graded:
            return self._span((d,))[0].rank, "degree"
        if self.orbits:
            return self._orbit_rank(d), "orbits"
        return sum(self._span(alpha)[0].rank
                   for alpha in compositions(d, self.m)), "blocks"

    def settle(self, generated: bool) -> None:
        """Report the outcome of the degree last ranked: ``generated``
        when every relation filed so far vanishes and the span is the
        whole kernel there.  Once a degree has not, it stays so."""
        self.generated = self.generated and generated
        self.ranked = None

    def missing(self, d: int, members):
        """The degree-d ``members`` the span misses, in order.  Each lies
        in one block and is reduced against that block's span (block
        (d,) off the multigrading); it is added to the span when found,
        so none lies in the span of the ones before it.  On the orbit
        route a member is renumbered into its representative, like its
        block's relations (``_span``)."""
        for member in members:
            block = relation_block(d, member) if self.graded else (d,)
            span, index = self._span(block)
            terms = member.terms
            if self.orbits:
                terms = _renumbered(terms, _sorting(block))
            if span.add(row_of(self._pack(terms), index)):
                yield member
