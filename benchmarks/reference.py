"""Reference computations made apart from the program.

Nothing here imports ``vecinv2``.  The benchmark checks the program's
outputs against these:

* closed-form counts (presentation monomials, invariant dimensions,
  kernel dimensions, relation counts);
* an evaluator over GF(2^16) that substitutes seeded random points for
  the formal symbols (Schwartz-Zippel: two different polynomials of
  degree d agree at a random point with probability at most d / 2^16);
* a GF(2) rank of sparse rows, used to check that a basis is one.

Formal elements are read through their terms only: a term has ``xe``
(x exponents), ``ne`` (norm exponents) and ``traces`` (0/1 subset
tuples), which is the documented shape of a presentation monomial.
"""

from __future__ import annotations

import random
from array import array
from math import comb

# x^16 + x^12 + x^3 + x + 1 is primitive, so x generates GF(2^16)*.
_POLY = 0x1100B
_ORDER = (1 << 16) - 1
_EXP = array("H", bytes(4 * _ORDER))
_LOG = array("H", bytes(2 << 16))


def _build_tables() -> None:
    value = 1
    for power in range(_ORDER):
        _EXP[power] = _EXP[power + _ORDER] = value
        _LOG[value] = power
        value <<= 1
        if value >> 16:
            value ^= _POLY
    if value != 1 or len(set(_EXP[:_ORDER])) != _ORDER:
        raise RuntimeError("GF(2^16) modulus is not primitive")


_build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


# ---------------------------------------------------------------------------
# closed forms


def _series_mul(a: list[int], b: list[int], top: int) -> list[int]:
    out = [0] * (top + 1)
    for i, u in enumerate(a[:top + 1]):
        if u:
            for j, v in enumerate(b[:top + 1 - i]):
                out[i + j] += u * v
    return out


def _inverse_factor(weight: int, top: int) -> list[int]:
    """Series of 1 / (1 - t^weight) up to t^top."""
    return [1 if k % weight == 0 else 0 for k in range(top + 1)]


def _free_series(m: int, top: int) -> list[int]:
    """1 / ((1-t)^m (1-t^2)^m): monomials in m x's and m norms."""
    series = [1] + [0] * top
    for _ in range(m):
        series = _series_mul(series, _inverse_factor(1, top), top)
        series = _series_mul(series, _inverse_factor(2, top), top)
    return series


def q_monomial_count(m: int, d: int) -> int:
    """[t^d] 1 / ((1-t)^m (1-t^2)^m prod_{|A|>=2} (1 - t^|A|))."""
    series = _free_series(m, d)
    for size in range(2, m + 1):
        for _ in range(comb(m, size)):
            series = _series_mul(series, _inverse_factor(size, d), d)
    return series[d]


def trace_linear_count(m: int, d: int) -> int:
    """Presentation monomials of degree d with at most one trace factor."""
    numerator = [1] + [0] * d
    for size in range(2, min(m, d) + 1):
        numerator[size] += comb(m, size)
    return _series_mul(numerator, _free_series(m, d), d)[d]


def poly_monomial_count(m: int, d: int) -> int:
    return comb(d + 2 * m - 1, 2 * m - 1)


def invariant_dimension(m: int, d: int) -> int:
    """In the basis y_i, z_i = y_i + x_i the involution swaps y and z,
    so the invariants of degree d are spanned by monomial orbit sums."""
    fixed = comb(d // 2 + m - 1, m - 1) if d % 2 == 0 else 0
    return (poly_monomial_count(m, d) + fixed) // 2


def kernel_dimension(m: int, d: int) -> int:
    return q_monomial_count(m, d) - invariant_dimension(m, d)


def linear_kernel_dimension(m: int, d: int) -> int:
    return trace_linear_count(m, d) - invariant_dimension(m, d)


def relation_count(m: int) -> int:
    return (2 ** m - comb(m, 2) - m - 1) + comb(2 ** m - m, 2)


def subsets(m: int, min_size: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1 << m):
        subset = tuple((mask >> i) & 1 for i in range(m))
        if sum(subset) >= min_size:
            out.append(subset)
    return out


# ---------------------------------------------------------------------------
# evaluation at points


class Point:
    """Values in GF(2^16) for x_i, N_i and every Tr(A) with |A| >= 2.

    ``invariant_point`` makes the values of the real invariants at a
    random (x, y); ``free_point`` makes every formal symbol an
    independent random value, except Tr({i}) = x_i as the presentation
    ring rewrites it.
    """

    def __init__(self, x: list[int], n: list[int], traces: dict):
        self.x = x
        self.n = n
        self.traces = traces

    def trace(self, subset: tuple[int, ...]) -> int:
        size = sum(subset)
        if size == 0:
            return 0
        if size == 1:
            return self.x[subset.index(1)]
        return self.traces[subset]

    def term(self, term) -> int:
        logs = 0
        for values, exps in ((self.x, term.xe), (self.n, term.ne)):
            for value, e in zip(values, exps):
                if e:
                    if value == 0:
                        return 0
                    logs += _LOG[value] * e
        for subset in term.traces:
            value = self.traces[subset]
            if value == 0:
                return 0
            logs += _LOG[value]
        return _EXP[logs % _ORDER]

    def element(self, q) -> int:
        total = 0
        for term in q.terms:
            total ^= self.term(term)
        return total

    def type_i(self, subset: tuple[int, ...]) -> int:
        """Sum over nonempty proper submasks L of A of x^(A-L) Tr(L)."""
        members = [i for i, bit in enumerate(subset) if bit]
        total = 0
        for mask in range(1, (1 << len(members)) - 1):
            low = [0] * len(subset)
            value = 1
            for k, i in enumerate(members):
                if mask >> k & 1:
                    low[i] = 1
                else:
                    value = gf_mul(value, self.x[i])
            total ^= gf_mul(value, self.trace(tuple(low)))
        return total


def invariant_point(m: int, rng: random.Random) -> Point:
    x = [rng.randrange(1 << 16) for _ in range(m)]
    y = [rng.randrange(1 << 16) for _ in range(m)]
    n = [gf_mul(y[i], y[i]) ^ gf_mul(x[i], y[i]) for i in range(m)]
    traces = {}
    for subset in subsets(m, 2):
        left = right = 1
        for i, bit in enumerate(subset):
            if bit:
                left = gf_mul(left, y[i])
                right = gf_mul(right, y[i] ^ x[i])
        traces[subset] = left ^ right
    return Point(x, n, traces)


def free_point(m: int, rng: random.Random) -> Point:
    x = [rng.randrange(1 << 16) for _ in range(m)]
    n = [rng.randrange(1 << 16) for _ in range(m)]
    traces = {s: rng.randrange(1 << 16) for s in subsets(m, 2)}
    return Point(x, n, traces)


# ---------------------------------------------------------------------------
# linear algebra


def rank(rows: list) -> int:
    """GF(2) rank of elements given as collections of hashable terms."""
    columns: dict = {}
    pivots: dict[int, int] = {}
    for row in rows:
        bits = 0
        for term in row:
            bits ^= 1 << columns.setdefault(term, len(columns))
        while bits:
            low = (bits & -bits).bit_length() - 1
            if low not in pivots:
                pivots[low] = bits
                break
            bits ^= pivots[low]
    return len(pivots)
