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
non-increasing one, and ``orbit_size`` counts its orbit.  ``swap``
applies the adjacent transposition s_i, which exchanges pairs i and
i + 1; the s_i generate S_m.
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
    "swapped",
    "swap",
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


def swapped(v: tuple, i: int) -> tuple:
    """``v`` with entries i and i + 1 exchanged: the transposition s_i."""
    return v[:i] + (v[i + 1], v[i]) + v[i + 2:]


def swap(q: QPoly, i: int) -> QPoly:
    """The image of ``q`` under s_i, which exchanges variable pairs i and
    i + 1 in every x, norm and trace symbol."""
    return QPoly(q.m, frozenset(
        QMon(swapped(t.xe, i), swapped(t.ne, i),
             tuple(sorted((swapped(a, i) for a in t.traces), reverse=True)))
        for t in q.terms))


class RelationSpans:
    """The relation span of each degree, block by block.

    ``add`` files a relation, by position, degree and element, under its
    block: its multidegree while every relation filed so far has one
    (``relation_block``), and block (degree,) from the first that does
    not.  The span of block alpha is the row space of the products of
    the relations filed strictly below alpha with the monomials of the
    remaining block, plus the relations filed at alpha.  The spans of
    the degree last passed to ``rank`` are kept, and block monomials
    for the life of the object, one sweep."""

    def __init__(self, m: int):
        self.m = m
        self.graded = True
        self.stable = True
        self.filed: dict[tuple, list[tuple[int, QPoly]]] = {}
        self.unchecked: list[tuple[tuple, QPoly]] = []
        self.spans: dict[tuple, tuple[RowSpan, dict]] = {}
        self.dependent: set[int] = set()
        self.monomials: dict[tuple, list[QMon]] = {}

    def add(self, position: int, degree: int, element: QPoly) -> None:
        beta = relation_block(degree, element)
        self.graded = self.graded and beta is not None
        block = beta if self.graded else (degree,)
        self.filed.setdefault(block, []).append((position, element))
        self.unchecked.append((block, element))

    def _multipliers(self, gamma: tuple) -> list[QMon]:
        if gamma not in self.monomials:
            self.monomials[gamma] = (
                block_monomials(self.m, gamma) if self.graded else
                [t for alpha in compositions(gamma[0], self.m)
                 for t in block_monomials(self.m, alpha)])
        return self.monomials[gamma]

    def _span(self, alpha: tuple) -> tuple[RowSpan, dict]:
        """The span of block alpha and its column index, built on first
        request.  The relations filed at alpha are reduced modulo the
        products first, and those some left-kernel vector of the
        remainders uses go to ``dependent``."""
        if alpha in self.spans:
            return self.spans[alpha]
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
        rows = [span.remainder(row_of(element.terms, index))
                for _, element in same]
        used = 0
        for mask in left_kernel(rows):
            used |= mask
        self.dependent.update(same[i][0] for i in bit_indices(used))
        for row in rows:
            span.add(row)
        self.spans[alpha] = span, index
        return span, index

    def _swap_stays(self, beta: tuple, element: QPoly, i: int) -> bool:
        image, index = self._span(swapped(beta, i))
        return image.contains(row_of(swap(element, i).terms, index))

    def rank(self, d: int) -> tuple[int, str]:
        """The rank of the degree-d span and the route that counted it.
        Under the multigrading the blocks of the relations filed since
        the last call are built, deciding their minimality, and each
        such r of block beta must have s_i(r) in the span of block
        s_i(beta) for every adjacent transposition s_i.  While that has
        held for every relation filed, the truncated ideal is S_m-stable
        and one block per orbit is built ("orbits"); once it fails,
        every block of the degree ("blocks").  Under the one-block-per-
        degree grading the one block is the whole degree ("degree").
        Only the degree-d spans are kept."""
        if self.graded:
            for beta, _ in self.unchecked:
                self._span(beta)
            self.stable = self.stable and all(
                self._swap_stays(beta, element, i)
                for beta, element in self.unchecked
                for i in range(self.m - 1))
        self.unchecked = []
        self.spans = {alpha: built for alpha, built in self.spans.items()
                      if sum(alpha) == d}
        if not self.graded:
            return self._span((d,))[0].rank, "degree"
        if self.stable:
            return sum(orbit_size(alpha) * self._span(alpha)[0].rank
                       for alpha in orbit_reps(d, self.m)), "orbits"
        return sum(self._span(alpha)[0].rank
                   for alpha in compositions(d, self.m)), "blocks"

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
