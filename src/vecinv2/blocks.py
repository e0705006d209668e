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
``RelationSpans`` ranks a degree in one loop over the blocks that hold
something, each against its own span.  While every relation filed
vanishes, ``RelationSpans.lead_count`` can count a degree with no row
built, from the distinct leads of the span's elements, all in closed
form: the monomials with two or more traces, and the trace-linear
monomials that a lower lead of the shape x_c Tr(B) divides, summed
over every block of the degree (``_covered_count``) from the x/N
series of ``series.free_series``.

The closed-form counts, here and in ``oracle``, read the series table
of module ``series``.

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
from functools import cached_property, lru_cache
from itertools import compress, product
from math import factorial, inf, isqrt, log, prod
from operator import add, le, sub

from .f2 import RowSpan, bit_indices, left_kernel, row_of
from .poly import all_subsets, monomial_key
from .qring import QMon, QPoly, multidegree, qmon_key, summand_lead
from .relations import pair_count
from .series import free_series

__all__ = [
    "multidegrees",
    "relation_block",
    "block_monomials",
    "merged_blocks",
    "compositions",
    "orbit_reps",
    "orbit_size",
    "RelationSpans",
]


def multidegrees(q: QPoly) -> set[tuple[int, ...]]:
    """The multidegrees of the terms of ``q``."""
    return {multidegree(t) for t in q.terms}


def relation_block(degree: int, alphas) -> tuple[int, ...] | None:
    """The multidegree of a relation whose terms have the multidegrees
    ``alphas`` (a set, or the keys of ``qring.block_sums``), when it has
    one whose total is the declared ``degree``; else None."""
    if len(alphas) != 1:
        return None
    (beta,) = alphas
    return beta if sum(beta) == degree else None


def _splits(rest: tuple[int, ...], traces: tuple) -> list[QMon]:
    """The monomials ``traces`` times x^I N^J over every split of the
    multidegree ``rest`` into x's and norms, I + 2J = rest."""
    return [QMon(tuple(r - 2 * n for r, n in zip(rest, ne)), ne, traces)
            for ne in product(*(range(r // 2 + 1) for r in rest))]


def _trace_multisets(m: int, alpha: tuple[int, ...]):
    """Each multiset of trace symbols that fits under ``alpha``, as its
    trace list in descending order with the rest of alpha it leaves:
    the walk of ``block_monomials`` and of the multiplier keys of
    ``RelationSpans``."""
    subsets = [a for a in sorted(all_subsets(m, min_size=2), reverse=True)
               if all(map(le, a, alpha))]
    stack = [(0, (), alpha)]
    while stack:
        start, traces, rest = stack.pop()
        yield traces, rest
        for k in range(start, len(subsets)):
            if all(map(le, subsets[k], rest)):
                stack.append((k, traces + (subsets[k],),
                              tuple(map(sub, rest, subsets[k]))))


def block_monomials(m: int, alpha: tuple[int, ...]) -> list[QMon]:
    """Every presentation monomial of multidegree ``alpha``: a multiset
    of trace symbols that fits under alpha, listed in descending order,
    with each split of the rest into x's and norms."""
    return [t for traces, rest in _trace_multisets(m, alpha)
            for t in _splits(rest, traces)]


def merged_blocks(m: int, alphas) -> tuple[QMon, ...]:
    """The monomials of the blocks ``alphas``, merged largest first by
    ``qring.qmon_key``: the members of ``oracle.q_monomials`` that lie
    in those blocks, in its order."""
    return tuple(sorted((t for alpha in alphas
                         for t in block_monomials(m, alpha)),
                        key=qmon_key, reverse=True))


@lru_cache(maxsize=None)
def compositions(d: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Every m-tuple of naturals summing to d: each multidegree of
    degree d, largest first part first."""
    if m == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -1, -1)
                 for rest in compositions(d - first, m - 1))


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

    ``add`` files a relation, by position, under its block, the one
    multidegree of its terms (``relation_block``; the caller refuses a
    relation without one).  The span of block alpha is J_alpha plus the
    relations filed at alpha, J_alpha being the row space of the
    products of the relations filed strictly below alpha with the
    monomials of the remaining block.

    ``rank`` counts a degree in one loop over the blocks at or above a
    key filed, found by adding each multiplier block gamma to each key
    beta: each builds J_alpha from its pairs (beta, gamma), and the
    blocks holding relations close it by them (``_close``) into their
    span.  Every other block holds nothing, and ``missing`` and
    ``short`` read it as an empty span.  The spans of the degree last
    ranked are kept for ``missing`` and ``short``.
    ``lead_count`` bounds the same rank from below with no row built; it
    keeps the leads of the relations filed and the fewest generator
    factors of any of their terms.

    Columns are the monomials' Goedel numbers (``_pack``; see the
    module docstring), on one prime table per instance, sieved when the
    first key is made, so a key names the same monomial at every
    degree.  A multiplier block is listed as keys alone
    (``_block_keys``), with no monomial built, and cached for the whole
    sweep, so no block is enumerated twice; the keyed terms of a
    block's relations are cached until ``add`` files another there."""

    def __init__(self, m: int):
        self.m = m
        self.filed: dict[tuple, list[tuple[int, QPoly]]] = {}
        self.multipliers: dict[tuple, list[int]] = {}
        self.keys: dict[tuple, list[list[int]]] = {}
        self.spans: dict[tuple, tuple[RowSpan, dict]] = {}
        self.leads: dict[tuple, list[QMon]] = {}
        self.fewest = inf
        self.dependent: set[int] = set()

    def add(self, position: int, block: tuple, element: QPoly) -> None:
        self.filed.setdefault(block, []).append((position, element))
        self.keys.pop(block, None)
        self.leads.pop(block, None)
        self.fewest = min(self.fewest, min(map(_factors, element.terms)))

    @cached_property
    def primes(self) -> tuple[list[int], dict]:
        """The primes of the x's and norms, and those of the traces by
        subset, sieved when first read, so a sweep that keys nothing,
        such as one decided on its shapes, sieves nothing."""
        subsets = all_subsets(self.m, min_size=2)
        primes = _primes(2 * self.m + len(subsets))
        return primes[:2 * self.m], dict(zip(subsets, primes[2 * self.m:]))

    def _pack(self, terms) -> list[int]:
        """The keys of presentation monomials: the product of the
        primes of their symbols, each to its exponent."""
        primes, trace = self.primes
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

    def _block_keys(self, alpha: tuple) -> list[int]:
        """The keys of ``block_monomials(m, alpha)``, in another order,
        with no monomial built: each trace multiset's key times the key
        of each split of its rest into x's and norms, pair by pair."""
        primes, trace = self.primes
        found = []
        for traces, rest in _trace_multisets(self.m, alpha):
            keys = [prod(map(trace.__getitem__, traces))]
            for x, n, r in zip(primes, primes[self.m:], rest):
                if r:
                    keys = [k * x ** (r - 2 * j) * n ** j
                            for k in keys for j in range(r // 2 + 1)]
            found += keys
        return found

    def _multipliers(self, gamma: tuple) -> list[int]:
        if gamma not in self.multipliers:
            self.multipliers[gamma] = self._block_keys(gamma)
        return self.multipliers[gamma]

    def _keys(self, key: tuple) -> list[list[int]]:
        """The keyed terms of the relations filed under ``key``."""
        if key not in self.keys and key in self.filed:
            self.keys[key] = [self._pack(element.terms)
                              for _, element in self.filed[key]]
        return self.keys.get(key, [])

    def _close(self, alpha: tuple, span: RowSpan, index: dict) -> None:
        """Add to ``span``, J_alpha, the remainders modulo J_alpha of the
        relations filed at alpha.  The relations some left-kernel vector
        of those remainders uses go to ``dependent``."""
        rows = [span.remainder(row_of(keys, index))
                for keys in self._keys(alpha)]
        used = 0
        for mask in left_kernel(rows):
            used |= mask
        filed = self.filed[alpha]
        self.dependent.update(filed[i][0] for i in bit_indices(used))
        for row in rows:
            span.add(row)

    def rank(self, d: int) -> int:
        """The rank of the degree-d span, one block at a time.  Only the
        blocks at or above a key filed are built, each from the pairs
        (key, gamma) with key + gamma = alpha; the rest hold nothing.
        The blocks holding degree-d relations decide their minimality
        here."""
        below: dict[tuple, list[tuple]] = {}
        for key in self.filed:
            rest = d - sum(key)
            if rest == 0:
                below.setdefault(key, [])
            elif rest > 0:
                for gamma in compositions(rest, self.m):
                    below.setdefault(tuple(map(add, key, gamma)),
                                     []).append((key, gamma))
        self.spans = {}
        total = 0
        for alpha, pairs in below.items():
            index: dict = {}
            span = RowSpan()
            for key, gamma in pairs:
                elements = self._keys(key)
                for mult in self._multipliers(gamma):
                    for keys in elements:
                        span.add(row_of(map(mult.__mul__, keys), index))
            if alpha in self.filed:
                self._close(alpha, span, index)
            self.spans[alpha] = span, index
            total += span.rank
        return total

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
        trace-linear lead of another shape, a repeated lead, or one with
        more factors gives None."""
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

    def short(self, d: int, kernel_dimension: int, dims: dict) -> list:
        """The blocks of degree d where the span ``rank`` left falls
        short of the kernel, in ``compositions`` order.  ``dims`` gives
        each block's kernel dimension at its S_m orbit's non-increasing
        representative, and a block ``rank`` skipped has span rank 0.
        The dimensions must sum to the degree's ``kernel_dimension``,
        or a RuntimeError is raised."""
        found, total = [], 0
        for alpha in compositions(d, self.m):
            dim = dims[tuple(sorted(alpha, reverse=True))]
            total += dim
            if dim > (self.spans[alpha][0].rank if alpha in self.spans
                      else 0):
                found.append(alpha)
        if total != kernel_dimension:
            raise RuntimeError(f"the block kernels of degree {d} sum to"
                               f" {total}, not {kernel_dimension}")
        return found

    def missing(self, d: int, members):
        """The degree-d ``members`` the span misses, in order.  Each lies
        in one block and is reduced against that block's span as ``rank``
        closed it.  It is added to the span when found, so none lies in
        the span of the ones before it."""
        for member in members:
            block = relation_block(d, multidegrees(member))
            if block not in self.spans:
                self.spans[block] = RowSpan(), {}
            span, index = self.spans[block]
            if span.add(row_of(self._pack(member.terms), index)):
                yield member
