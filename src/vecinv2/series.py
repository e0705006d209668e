"""Closed-form monomial counts: one series table per width.

The counts of ``oracle`` and of ``blocks.RelationSpans.lead_count``
read one table per width m, kept for the process: the x/N rows
(``free_series``) and the presentation ring's series (``q_series``),
the trace factors convolved onto x/N row m, each built by
``monomial_series`` once per table.  The table is built through degree
2m + 1 when its width is first asked for and grows by at least
doubling past that, so its rows may run past the degree asked for.
Every caller gets the table's own lists, to read, never to write.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

__all__ = ["monomial_series", "q_series", "free_series"]


def monomial_series(weights: list[tuple[int, int]], d: int,
                    coeffs: list[int] | None = None) -> list[int]:
    """Coefficients of t^0..t^d in the product of 1/(1 - t^w)^c over the
    pairs (w, c) of ``weights``, c generators of degree w each: how many
    monomials of each degree.  1/(1 - t^w)^c has C(j + c - 1, j) at
    t^(wj).  ``coeffs``, t^0..t^d of a series to start from, is 1 when
    not given; it is read, not written."""
    coeffs = coeffs or [1] + [0] * d
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
    presentation ring's series, its trace factors convolved onto row m,
    and the rows of ``free_series``.  It is
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
        table = _tables[m] = (monomial_series(traces, top, free[m]), free)
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
