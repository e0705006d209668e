"""The multigrading of the presentation ring and the S_m action on it.

Sending x_i to e_i, N_i to 2 e_i and Tr(A) to the indicator vector 1_A
grades the presentation ring by multidegree alpha in N^m
(``qring.multidegree``); a degree-d monomial has |alpha| = d.  Evaluation
respects the grading when x_i and y_i both count e_i, because every
generator's image is multihomogeneous of its symbol's multidegree:
x_i, y_i (y_i + x_i) and the transfer of A, whose terms y^B x^(A-B)
each count 1_A.  Every type I, II and III relation is multihomogeneous
too.  So the oracle's matrices split into blocks, one per multidegree
(``block_monomials`` lists a block's presentation monomials).

Permuting the variable pairs permutes the blocks and commutes with
evaluation.  ``orbit_reps`` picks one multidegree per S_m orbit, the
non-increasing one, and ``orbit_size`` counts its orbit.
``RelationSpans`` ranks a degree in one loop over its blocks, each
against its own span.  While every relation filed vanishes,
``RelationSpans.lead_count`` can count a degree with no row built, from
the distinct leads of the span's elements, all in closed form: the
monomials with two or more traces, and the trace-linear monomials that
a lower lead of the shape x_c Tr(B) divides, summed over every block of
the degree (``_covered_count``) from the x/N series of ``free_series``.

The closed-form counts, here and in ``oracle``, read one series table
per width m, kept for the process: the presentation ring's series
(``q_series``) and the x/N rows (``free_series``), each built by
``monomial_series`` once per table.  The table is built through
degree 2m + 1 when its width is first asked for and grows by at least
doubling past that, so its rows may run past the degree asked for.
Every caller gets the table's own lists, to read, never to write.

The relation spans key their columns by Goedel numbers: each symbol,
x_i, N_i and each trace subset A, gets a prime of its own, and a
presentation monomial is the product of its symbols' primes, each
raised to the symbol's exponent.  By unique factorization distinct
monomials get distinct keys, and the key of a product of monomials is
the product of their keys at any degree: no field can carry, so
there is no width to choose, and multiplying a relation by a monomial
is one int multiplication per term, with no tuple built and no trace
multiset sorted.  Keys are not ordered like monomials, so the lead
order of ``RelationSpans._lead`` breaks its last ties by the monomial
tuple itself, an order that respects multiplication as the lead
count needs.  Its first part, nu' (``_nu``), and its tie-break
(``_tie_break``) also lead the shapes that ``shapes.shape_holds``
checks on masks, so both routes read one order.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, product
from math import comb, factorial, inf, isqrt, log
from operator import le, sub

from .f2 import RowSpan, bit_indices, left_kernel, row_of
from .poly import all_subsets, monomial_key
from .qring import QMon, QPoly, multidegree, summand_lead
from .relations import pair_count

__all__ = [
    "multidegrees",
    "relation_block",
    "block_monomials",
    "compositions",
    "orbit_reps",
    "orbit_size",
    "monomial_series",
    "q_series",
    "free_series",
    "RelationSpans",
]


def multidegrees(q: QPoly) -> set[tuple[int, ...]]:
    """The multidegrees of the terms of ``q``."""
    return {multidegree(t) for t in q.terms}


def relation_block(degree: int, alphas) -> tuple[int, ...] | None:
    """The multidegree of a relation whose terms have the multidegrees
    ``alphas`` (a set, or the keys of ``qring.block_sums``), when it has
    one whose total is the declared ``degree``, at least 2; else None."""
    if len(alphas) != 1 or degree < 2:
        return None
    (beta,) = alphas
    return beta if sum(beta) == degree else None


def _splits(rest: tuple[int, ...], traces: tuple) -> list[QMon]:
    """The monomials ``traces`` times x^I N^J over every split of the
    multidegree ``rest`` into x's and norms, I + 2J = rest."""
    return [QMon(tuple(r - 2 * n for r, n in zip(rest, ne)), ne, traces)
            for ne in product(*(range(r // 2 + 1) for r in rest))]


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
        found += _splits(rest, traces)
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


@lru_cache(maxsize=None)
def orbit_reps(d: int, m: int) -> tuple[tuple[int, ...], ...]:
    """One multidegree of degree d from each S_m orbit: the
    non-increasing ones, listed largest first part first, as
    ``compositions`` lists them.  The largest part is at least d / m."""
    if m == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -(-d // m) - 1, -1)
                 for rest in orbit_reps(d - first, m - 1) if rest[0] <= first)


def orbit_size(alpha: tuple[int, ...]) -> int:
    """How many multidegrees permuting ``alpha`` gives: |S_m alpha|."""
    size = factorial(len(alpha))
    for repeats in Counter(alpha).values():
        size //= factorial(repeats)
    return size


def _nu(sizes: list[int]) -> tuple[int, int, int]:
    """nu' = (number of trace factors, sum of |A|, -sum of |A|^2) of a
    monomial whose traces Tr(A) have the sizes ``sizes``: the first part
    of the lead order.  Each part adds under multiplication."""
    return len(sizes), sum(sizes), -sum(k * k for k in sizes)


def _measure(t: QMon) -> tuple[int, int, int]:
    """``_nu`` of the trace sizes of t."""
    return _nu([sum(a) for a in t.traces])


def _top(terms) -> list[QMon]:
    """The terms of greatest ``_measure``."""
    measures = list(map(_measure, terms))
    top = max(measures)
    return [t for t, mu in zip(terms, measures) if mu == top]


def _tie_break(tied: list[QMon]) -> QMon:
    """The lead among terms of equal ``_measure``: the greatest by
    grevlex on their ``summand_lead``, then as ``QMon`` tuples,
    lexicographic on the x exponents, the N exponents and the
    descending trace list."""
    if len(tied) == 1:
        return tied[0]
    return max(tied, key=lambda t: (monomial_key(summand_lead(t)), t))


def _factors(t: QMon) -> int:
    """How many generators t is a product of."""
    return sum(t.xe) + sum(t.ne) + len(t.traces)


def monomial_series(weights: list[tuple[int, int]], d: int) -> list[int]:
    """Coefficients of t^0..t^d in the product of 1/(1 - t^w)^c over the
    pairs (w, c) of ``weights``, c generators of degree w each: how many
    monomials of each degree.  1/(1 - t^w)^c has C(j + c - 1, j) at
    t^(wj)."""
    coeffs = [1] + [0] * d
    for w, c in weights:
        if c:
            powers = [comb(j + c - 1, j) for j in range(d // w + 1)]
            coeffs = [sum(p * coeffs[i - w * j] for j, p in
                          enumerate(powers[:i // w + 1]))
                      for i in range(d + 1)]
    return coeffs


_tables: dict[int, tuple[list[int], list[list[int]]]] = {}


def _table(m: int, d: int) -> tuple[list[int], list[list[int]]]:
    """The series table of width m, through degree d at least: the
    presentation ring's series and the rows of ``free_series``.  It is
    built the first time width m is asked for, through 2m + 1, and
    rebuilt past its top through at least twice as far, so a sweep to
    degree D builds it O(log D) times and one through 2m + 1 once."""
    table = _tables.get(m)
    if table is None or len(table[0]) <= d:
        top = max(d, 2 * m + 1, 2 * len(table[0]) if table else 0)
        free = [monomial_series([(2, m)], top)]
        for _ in range(m):
            free.append(list(accumulate(free[-1])))
        traces = [(k, comb(m, k)) for k in range(2, m + 1)]
        table = _tables[m] = (
            monomial_series([(1, m), (2, m), *traces], top), free)
    return table


def q_series(m: int, d: int) -> list[int]:
    """The coefficients of t^0, t^1, ..., through t^d at least, of the
    presentation ring's series: x's weigh 1, norms 2, and the C(m, k)
    trace symbols of size k weigh k, one factor 1/(1 - t^k)^C(m, k) per
    size.  It is width m's table row, so it may run past d."""
    return _table(m, d)[0]


def free_series(m: int, d: int) -> list[list[int]]:
    """Row j, for j = 0..m: the coefficients of t^0, t^1, ..., through
    t^d at least, in 1/((1-t)^j (1-t^2)^m), how many monomials x^I N^J
    of each degree have I supported on j given indices.  Row 0 is the
    series of the norms alone, and each row the partial sums of the one
    before.  The rows are width m's table, so they may run past d."""
    return _table(m, d)[1]


def _covered_count(m: int, d: int, below: dict) -> int:
    """How many trace-linear monomials of degree d, over every block,
    some lead x_c Tr(B) divides, where ``below`` maps each trace B, of
    size at most d, to the set P(B) of its indices c.  The monomials
    x^I N^J Tr(B) of degree d number F_m(d - |B|), F_j being row j of
    ``free_series``.  No lead divides one exactly when I_c = 0 for
    every c in P(B), which leaves the x's of m - |P(B)| indices:
    F_(m - |P(B)|)(d - |B|) of them."""
    table = free_series(m, d)
    count = 0
    for trace, indices in below.items():
        rest = d - sum(trace)
        count += table[m][rest] - table[m - len(indices)][rest]
    return count


def _primes(n: int) -> list[int]:
    """The first n primes, sieved up to n (ln n + ln ln n), which
    bounds the n-th prime from n = 6 on."""
    limit = 13 if n < 6 else int(n * (log(n) + log(log(n))))
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = bytes(2)
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))[:n]


class RelationSpans:
    """The relation span of each degree, block by block.

    ``add`` files a relation, by position, degree, element and the
    multidegrees of its terms, under its block: its multidegree while
    every relation filed has one (``relation_block``).  The first that
    does not refiles them all under (declared degree,), one block per
    degree from then on.  The span of block alpha is J_alpha plus the
    relations filed at alpha, J_alpha being the row space of the
    products of the relations filed strictly below alpha with the
    monomials of the remaining block.

    ``rank`` counts a degree in one loop over its blocks: each block
    alpha builds J_alpha and closes it by the relations filed at alpha
    into the block's span.  The spans of the degree last ranked are
    kept for ``missing``.
    ``lead_count`` bounds the same rank from below with no row built; it
    keeps the leads of the relations filed and the fewest generator
    factors of any of their terms.

    Columns are the monomials' Goedel numbers (``_pack``; see the
    module docstring), on one prime table per instance, sieved when the
    first row is packed, so a key names the same monomial at every
    degree, whatever degree a relation declares.  The keyed multiplier
    blocks are cached for the whole sweep, so no block is enumerated
    twice, and the keyed terms of a block's relations until ``add``
    files another there."""

    def __init__(self, m: int):
        self.m = m
        self.graded = True
        self.filed: dict[tuple, list[tuple[int, QPoly]]] = {}
        self.primes: list[int] | None = None
        self.trace_primes: dict[tuple, int] = {}
        self.multipliers: dict[tuple, list[int]] = {}
        self.keys: dict[tuple, list[list[int]]] = {}
        self.spans: dict[tuple, tuple[RowSpan, dict]] = {}
        self.leads: dict[tuple, list[QMon]] = {}
        self.fewest = inf
        self.dependent: set[int] = set()

    def add(self, position: int, degree: int, element: QPoly, alphas) -> None:
        beta = relation_block(degree, alphas)
        if beta is None and self.graded:
            # a key sums to the declared degree of the relations under it
            self.graded = False
            refiled: dict[tuple, list[tuple[int, QPoly]]] = {}
            for key, filed in self.filed.items():
                refiled.setdefault((sum(key),), []).extend(filed)
            self.filed, self.keys = refiled, {}
        block = beta if self.graded else (degree,)
        self.filed.setdefault(block, []).append((position, element))
        self.keys.pop(block, None)
        if self.graded:
            self.leads.pop(block, None)
            self.fewest = min(self.fewest, min(map(_factors, element.terms)))

    def _pack(self, terms) -> list[int]:
        """The keys of presentation monomials: the product of the
        primes of their symbols, each to its exponent.  The primes are
        sieved at the first call, so a sweep that packs nothing, such
        as one decided on its shapes, sieves nothing."""
        if self.primes is None:
            subsets = all_subsets(self.m, min_size=2)
            primes = _primes(2 * self.m + len(subsets))
            self.primes = primes[:2 * self.m]
            self.trace_primes = dict(zip(subsets, primes[2 * self.m:]))
        primes, trace = self.primes, self.trace_primes
        keys = []
        for t in terms:
            key = 1
            for p, e in zip(primes, t.xe + t.ne):
                if e:
                    key *= p ** e
            for a in t.traces:
                key *= trace[a]
            keys.append(key)
        return keys

    def _multipliers(self, gamma: tuple) -> list[int]:
        if gamma not in self.multipliers:
            self.multipliers[gamma] = self._pack(
                block_monomials(self.m, gamma) if self.graded else
                [t for alpha in compositions(gamma[0], self.m)
                 for t in block_monomials(self.m, alpha)])
        return self.multipliers[gamma]

    def _keys(self, key: tuple) -> list[list[int]]:
        """The keyed terms of the relations filed under ``key``."""
        if key not in self.keys and key in self.filed:
            self.keys[key] = [self._pack(element.terms)
                              for _, element in self.filed[key]]
        return self.keys.get(key, [])

    def _products(self, alpha: tuple) -> tuple[RowSpan, dict]:
        """J_alpha with its column index."""
        index: dict = {}
        span = RowSpan()
        for key in self.filed:
            if key != alpha and all(map(le, key, alpha)):
                elements = self._keys(key)
                for mult in self._multipliers(tuple(map(sub, alpha, key))):
                    for keys in elements:
                        span.add(row_of(map(mult.__mul__, keys), index))
        return span, index

    def _close(self, alpha: tuple, span: RowSpan, index: dict) -> None:
        """Add to ``span``, J_alpha, the remainders modulo J_alpha of the
        relations filed at alpha.  The relations some left-kernel vector
        of those remainders uses go to ``dependent``."""
        rows = [span.remainder(row_of(keys, index))
                for keys in self._keys(alpha)]
        used = 0
        for mask in left_kernel(rows):
            used |= mask
        filed = self.filed.get(alpha, ())
        self.dependent.update(filed[i][0] for i in bit_indices(used))
        for row in rows:
            span.add(row)

    def rank(self, d: int) -> tuple[int, str]:
        """The rank of the degree-d span and the route that counted it,
        one block at a time: "blocks", or "degree" off the multigrading,
        where the one block is the whole degree.  The blocks holding
        degree-d relations decide their minimality here."""
        self.spans = {}
        total = 0
        for alpha in compositions(d, self.m) if self.graded else [(d,)]:
            span, index = self.spans[alpha] = self._products(alpha)
            self._close(alpha, span, index)
            total += span.rank
        return total, "blocks" if self.graded else "degree"

    @staticmethod
    def _lead(element: QPoly) -> QMon:
        """The lead of a relation: of its terms of greatest ``_measure``,
        the one ``_tie_break`` picks.  Each part of this order respects
        multiplication: the trace list compares like its count vector,
        largest subset first, and count vectors add."""
        return _tie_break(_top(list(element.terms)))

    def _leads(self, block: tuple) -> list[QMon]:
        """The leads of the relations filed at ``block``."""
        if block not in self.leads:
            self.leads[block] = [self._lead(element)
                                 for _, element in self.filed[block]]
        return self.leads[block]

    def lead_count(self, d: int, several: int) -> int | None:
        """A count of distinct leads among the degree-d span's elements,
        with no row built, or None where the leads cannot settle the
        degree; ``several`` is how many degree-d monomials carry two or
        more traces.

        The caller states that every relation filed vanishes.  Then each
        block's count is at most its span rank, that at most its kernel
        dimension, and a total equal to the degree's kernel dimension
        proves every block generated.  In the lead order (``_lead``) the
        lead of a monomial times a relation is the monomial times its
        lead.  Once every pair Tr(A)Tr(B) with |A| + |B| < d leads a
        relation, every monomial with two or more traces leads such a
        product, but the bare pairs of degree d.  The trace-linear
        monomials that lead such products are those a lower trace-linear
        lead divides.  A lead that another lead with its trace divides
        covers nothing more, so it is dropped; every other one must have
        the shape x_c Tr(B), and ``below`` maps each B to its indices c,
        whose multiples ``_covered_count`` counts over every block of
        degree d.  Each block alpha holding degree-d relations adds their
        leads when they are distinct and have at most ``fewest``
        generator factors: every term of an element of J_alpha is a term
        of a monomial of positive degree times a relation filed, with
        ``fewest`` + 1 factors or more, so no such element has one of
        those leads as a term, the relations are independent modulo
        J_alpha, and none is dependent.  A missing pair, a lower
        trace-linear lead of another shape, a repeated lead, one with
        more factors, or a sweep off the multigrading gives None."""
        if not self.graded:
            return None
        linear: dict[tuple, set[QMon]] = {}
        pairs = set()
        for block in self.filed:
            if sum(block) < d:
                for lead in self._leads(block):
                    if len(lead.traces) < 2:
                        linear.setdefault(lead.traces, set()).add(lead)
                    elif len(lead.traces) == 2 and not any(lead.xe + lead.ne):
                        pairs.add(lead)
        if len(pairs) < sum(pair_count(self.m, e) for e in range(d)):
            return None
        below: dict[tuple, set[int]] = {}
        for traces, leads in linear.items():
            for lead in leads:
                if any(other != lead and all(map(le, other.xe, lead.xe))
                       and all(map(le, other.ne, lead.ne))
                       for other in leads):
                    continue
                if not traces or any(lead.ne) or sum(lead.xe) != 1:
                    return None
                below.setdefault(traces[0], set()).add(lead.xe.index(1))
        total = several - pair_count(self.m, d) + _covered_count(
            self.m, d, below)
        for alpha in self.filed:
            if sum(alpha) == d:
                leads = set(self._leads(alpha))
                if (len(leads) < len(self.filed[alpha])
                        or max(map(_factors, leads)) > self.fewest):
                    return None
                total += len(leads)
        return total

    def missing(self, d: int, members):
        """The degree-d ``members`` the span misses, in order.  Each lies
        in one block (block (d,) off the multigrading) and is reduced
        against that block's span as ``rank`` closed it.  It is added to
        the span when found, so none lies in the span of the ones before
        it."""
        for member in members:
            block = (relation_block(d, multidegrees(member))
                     if self.graded else (d,))
            span, index = self.spans[block]
            if span.add(row_of(self._pack(member.terms), index)):
                yield member
