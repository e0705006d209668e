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
from .relations import Relation

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


def relation_block(relation: Relation) -> tuple[int, ...] | None:
    """The multidegree of a relation's element, when all its terms share
    one whose total is the declared degree, at least 2; else None."""
    found = {multidegree(t) for t in relation.element.terms}
    if len(found) != 1 or relation.degree < 2:
        return None
    (beta,) = found
    return beta if sum(beta) == relation.degree else None


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

    A relation is filed under its block: its multidegree while every
    relation added so far has one (``relation_block``), and under the
    one-block-per-degree grading, block (degree,), from the first that
    does not.  The span of block alpha is the row space of the products
    of the relations filed strictly below alpha with the monomials of
    the remaining block, plus the relations filed at alpha.  Block
    monomials are kept for the life of the object, one sweep."""

    def __init__(self, m: int):
        self.m = m
        self.graded = True
        self.stable = True
        self.filed: list[tuple[int, Relation, tuple | None]] = []
        self.monomials: dict[tuple, list[QMon]] = {}

    def add(self, position: int, relation: Relation) -> None:
        beta = relation_block(relation)
        self.graded = self.graded and beta is not None
        self.filed.append((position, relation, beta))

    def _multipliers(self, gamma: tuple) -> list[QMon]:
        if gamma not in self.monomials:
            self.monomials[gamma] = (
                block_monomials(self.m, gamma) if self.graded else
                [t for alpha in compositions(gamma[0], self.m)
                 for t in block_monomials(self.m, alpha)])
        return self.monomials[gamma]

    def _span(self, alpha: tuple, blocks: dict,
              dependent: set) -> tuple[RowSpan, dict]:
        """The span of block alpha and its column index.  The relations
        filed at alpha are reduced modulo the products first, and those
        some left-kernel vector of the remainders uses go to
        ``dependent``."""
        index: dict = {}
        span = RowSpan()
        for beta, filed in blocks.items():
            if beta == alpha or not all(map(le, beta, alpha)):
                continue
            for mult in self._multipliers(tuple(map(sub, alpha, beta))):
                for _, relation in filed:
                    span.add(row_of(
                        times_monomial(mult, relation.element), index))
        same = blocks.get(alpha, [])
        rows = [span.remainder(row_of(r.element.terms, index))
                for _, r in same]
        used = 0
        for mask in left_kernel(rows):
            used |= mask
        dependent.update(same[i][0] for i in bit_indices(used))
        for row in rows:
            span.add(row)
        return span, index

    def rank(self, d: int, dependent: set) -> tuple[int, str]:
        """The rank of the degree-d span and the route that counted it.
        Every block holding a degree-d relation is built, which decides
        their minimality.  Under the multigrading each such relation r
        must also have s_i(r) in the span of block s_i(beta) for every
        adjacent transposition s_i; while that has held at every degree
        the truncated ideal is S_m-stable, its blocks in one orbit have
        equal ranks, and only one block per orbit is built ("orbits").
        Once it fails, every block of the degree is built ("blocks").
        Under the one-block-per-degree grading the one block is the
        whole degree ("degree")."""
        blocks: dict[tuple, list[tuple[int, Relation]]] = {}
        for position, relation, beta in self.filed:
            block = beta if self.graded else (relation.degree,)
            blocks.setdefault(block, []).append((position, relation))
        spans: dict[tuple, tuple[RowSpan, dict]] = {}

        def span(alpha):
            if alpha not in spans:
                spans[alpha] = self._span(alpha, blocks, dependent)
            return spans[alpha]

        same = [beta for beta in blocks if sum(beta) == d]
        for beta in same:
            span(beta)
        if not self.graded:
            return span((d,))[0].rank, "degree"

        def swaps_stay(beta, i):
            image, index = span(swapped(beta, i))
            return all(image.contains(row_of(swap(r.element, i).terms, index))
                       for _, r in blocks[beta])

        self.stable = self.stable and all(
            swaps_stay(beta, i) for beta in same for i in range(self.m - 1))
        if self.stable:
            return sum(orbit_size(alpha) * span(alpha)[0].rank
                       for alpha in orbit_reps(d, self.m)), "orbits"
        return sum(span(alpha)[0].rank
                   for alpha in compositions(d, self.m)), "blocks"
