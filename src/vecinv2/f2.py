"""Dense GF(2) linear algebra on int bitsets.

A vector is a Python int whose bit i is the coefficient of basis
element i; a matrix is a list of such ints, as wide as its widest
row.  XOR is addition, so rank, span membership and kernels all come
down to pivoting on bits.  Pivots sit at the highest set bit of a row
and are keyed by the row's ``bit_length()``, the index of the list
``RowSpan.pivots`` that holds them: no two stored rows share a top
bit, so any nonzero combination of them has the top bit of a stored
row, and greedy reduction (repeatedly cancel the highest set bit) is a
complete membership test, one list lookup a step.
``RowSpan.remainder`` cancels every pivot bit from the top down, which
gives one canonical residue per coset of the span.

``left_kernel`` augments row i as ``(row << nrows) | (1 << i)``: the
values sit above one marker bit per row.  A row with a value bit left
after reduction has its top bit among the values and becomes a pivot;
a row whose values cancel keeps only marker bits, which name one
kernel combination.

``row_of`` turns a set of terms into a row, giving each term a column
on first sight; ``bit_indices`` reads the set bits of a row or of a
left-kernel mask back as indices.
"""

from __future__ import annotations

__all__ = ["RowSpan", "left_kernel", "row_of", "bit_indices"]


class RowSpan:
    """Incrementally built row space with O(rank) membership tests."""

    def __init__(self):
        # entry n is the stored row whose top bit has bit_length() n, or
        # 0 when there is none; grown as wider rows arrive
        self.pivots: list[int] = [0]
        self.rank = 0

    def reduce(self, row: int) -> int:
        """Cancel pivot bits greedily from the top; the result is zero
        exactly when the row lies in the span."""
        pivots = self.pivots
        try:
            while row:
                pivot = pivots[row.bit_length()]
                if not pivot:
                    return row
                row ^= pivot
        except IndexError:
            # wider than every stored row
            pass
        return row

    def _store(self, row: int) -> None:
        top = row.bit_length()
        pivots = self.pivots
        if top >= len(pivots):
            pivots.extend([0] * (top + 1 - len(pivots)))
        pivots[top] = row
        self.rank += 1

    def add(self, row: int) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        remainder = self.reduce(row)
        if remainder == 0:
            return False
        self._store(remainder)
        return True

    def contains(self, row: int) -> bool:
        return self.reduce(row) == 0

    def remainder(self, row: int) -> int:
        """Cancel every pivot bit, not just the leading ones.  The result
        has no pivot bit, so two rows have the same remainder exactly
        when their sum lies in the span, and remainders of rows add."""
        pivots = self.pivots
        width = len(pivots)
        out = 0
        while row:
            top = row.bit_length()
            pivot = pivots[top] if top < width else 0
            if not pivot:
                pivot = 1 << (top - 1)
                out |= pivot
            row ^= pivot
        return out


def left_kernel(rows: list[int]) -> list[int]:
    """Masks over row indices whose XOR-combination of ``rows`` is zero.

    Works on rows augmented with a marker bit per row below the value
    columns (see the module docstring); when reduction empties the
    value part, the marker part names one kernel combination.  Only
    rows with a value bit left become pivots, so every pivot sits in
    the value columns.  The returned masks are linearly independent and
    span the left kernel.  Each mask names a row that depends on the
    rows before it, plus the one combination of the earlier independent
    rows that sums to it, so the masks do not depend on the column
    order or on where the pivots sit.
    """
    nrows = len(rows)
    span = RowSpan()
    kernel: list[int] = []
    for index, row in enumerate(rows):
        augmented = span.reduce((row << nrows) | (1 << index))
        if augmented >> nrows:
            span._store(augmented)
        else:
            kernel.append(augmented)
    return kernel


def row_of(terms, index: dict) -> int:
    """Bit mask of a set of terms, with ``index`` mapping each term to
    its column; a term seen for the first time takes the next free
    column.  Works for the terms of ``Poly`` and ``QPoly`` and for the
    int keys of ``blocks.RelationSpans``."""
    bits = 0
    for term in terms:
        bits |= 1 << index.setdefault(term, len(index))
    return bits


def bit_indices(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
