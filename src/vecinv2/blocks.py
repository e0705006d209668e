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
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import factorial
from operator import ge, le, sub

from .f2 import RowSpan, bit_indices, left_kernel, row_of
from .poly import all_subsets
from .qring import QMon, QPoly, times_monomial

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


def _renumbered(terms, order: tuple[int, ...]) -> list[QMon]:
    """``terms`` with the variable pairs renumbered, new pair k being old
    pair order[k], in every x, norm and trace symbol."""
    return [QMon(tuple(t.xe[i] for i in order), tuple(t.ne[i] for i in order),
                 tuple(sorted((tuple(a[i] for i in order) for a in t.traces),
                              reverse=True)))
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
    last passed to ``rank`` are kept, and block monomials for the life
    of the object, one sweep."""

    def __init__(self, m: int):
        self.m = m
        self.graded = True
        # every degree settled so far ended with the span equal to the
        # kernel: the ideal of the relations filed is S_m-stable so far
        self.generated = True
        self.ranked: int | None = None
        self.filed: dict[tuple, list[tuple[int, QPoly]]] = {}
        self.spans: dict[tuple, tuple[RowSpan, dict]] = {}
        self.dependent: set[int] = set()
        self.monomials: dict[tuple, list[QMon]] = {}

    def add(self, position: int, degree: int, element: QPoly) -> None:
        beta = relation_block(degree, element)
        self.graded = self.graded and beta is not None
        block = beta if self.graded else (degree,)
        self.filed.setdefault(block, []).append((position, element))

    def _multipliers(self, gamma: tuple) -> list[QMon]:
        if gamma not in self.monomials:
            self.monomials[gamma] = (
                block_monomials(self.m, gamma) if self.graded else
                [t for alpha in compositions(gamma[0], self.m)
                 for t in block_monomials(self.m, alpha)])
        return self.monomials[gamma]

    def _products(self, alpha: tuple) -> tuple[RowSpan, dict, list]:
        """J_alpha with its column index, and the relations filed at
        alpha."""
        index: dict = {}
        span = RowSpan()
        same = []
        for key, filed in self.filed.items():
            # a key sums to the declared degree of the relations under it
            block = key if self.graded else (sum(key),)
            if block == alpha:
                same += filed
            elif all(map(le, block, alpha)):
                for mult in self._multipliers(tuple(map(sub, alpha, block))):
                    for _, element in filed:
                        span.add(row_of(times_monomial(mult, element), index))
        return span, index, same

    def _remainders(self, span: RowSpan, index: dict,
                    same) -> tuple[list[int], int]:
        """The remainders of the relations ``same``, (position, terms)
        pairs, modulo ``span``, and their rank.  The relations some
        left-kernel vector of the remainders uses go to ``dependent``."""
        rows = [span.remainder(row_of(terms, index)) for _, terms in same]
        kernel = left_kernel(rows)
        used = 0
        for mask in kernel:
            used |= mask
        self.dependent.update(same[i][0] for i in bit_indices(used))
        return rows, len(rows) - len(kernel)

    def _close(self, alpha: tuple, span: RowSpan, index: dict, same) -> int:
        """Add the relations ``same`` filed at alpha to J_alpha, deciding
        their minimality, and keep the span of alpha; returns the rank
        they add."""
        rows, rank = self._remainders(
            span, index, [(p, element.terms) for p, element in same])
        for row in rows:
            span.add(row)
        self.spans[alpha] = span, index
        return rank

    def _span(self, alpha: tuple) -> tuple[RowSpan, dict]:
        """The span of block alpha and its column index, built on first
        request."""
        if alpha not in self.spans:
            self._close(alpha, *self._products(alpha))
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
        and the span of rho."""
        moved: dict[tuple, list[list]] = {}
        for beta, filed in self.filed.items():
            if sum(beta) == d:
                order = _sorting(beta)
                rho = tuple(beta[i] for i in order)
                if rho != beta:
                    moved.setdefault(rho, []).append(
                        [(p, _renumbered(element.terms, order))
                         for p, element in filed])
        total = 0
        for rho in orbit_reps(d, self.m):
            span, index, same = self._products(rho)
            total += orbit_size(rho) * span.rank
            for renumbered in moved.get(rho, ()):
                total += self._remainders(span, index, renumbered)[1]
            total += self._close(rho, span, index, same)
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
        self.spans = {}
        if not self.graded:
            return self._span((d,))[0].rank, "degree"
        if self.generated:
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
        so none lies in the span of the ones before it."""
        for member in members:
            block = relation_block(d, member) if self.graded else (d,)
            span, index = self._span(block)
            if span.add(row_of(member.terms, index)):
                yield member
