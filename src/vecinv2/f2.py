"""Dense GF(2) linear algebra on int bitsets.

A vector is a Python int whose bit i is the coefficient of basis
element i; a matrix is a list of such ints, as wide as its widest
row.  XOR is addition, so rank, span membership and kernels all come
down to pivoting on bits.  Pivots sit at the lowest set bit of a row:
every stored row has its pivot bit cleared in all later-examined
positions below it, which makes greedy reduction (repeatedly cancel the
lowest set bit) a complete membership test.

``row_of`` turns a set of terms into a row, giving each term a column
on first sight; ``bit_indices`` reads the set bits of a row or of a
left-kernel mask back as indices.
"""

from __future__ import annotations

__all__ = ["RowSpan", "left_kernel", "row_of", "bit_indices"]


def _low_bit(value: int) -> int:
    return (value & -value).bit_length() - 1


class RowSpan:
    """Incrementally built row space with O(rank) membership tests."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: int) -> int:
        """Cancel pivot bits greedily; the remainder is zero exactly when
        the row lies in the span."""
        while row:
            bit = _low_bit(row)
            pivot = self.pivots.get(bit)
            if pivot is None:
                return row
            row ^= pivot
        return row

    def add(self, row: int) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        remainder = self.reduce(row)
        if remainder == 0:
            return False
        self.pivots[_low_bit(remainder)] = remainder
        return True

    def contains(self, row: int) -> bool:
        return self.reduce(row) == 0

    def remainder(self, row: int) -> int:
        """Cancel every pivot bit, not just the leading ones.  The result
        has no pivot bit, so two rows have the same remainder exactly
        when their sum lies in the span, and remainders of rows add."""
        out = 0
        while row:
            low = row & -row
            pivot = self.pivots.get(low.bit_length() - 1)
            if pivot is None:
                out |= low
                row ^= low
            else:
                row ^= pivot
        return out


def left_kernel(rows: list[int]) -> list[int]:
    """Masks over row indices whose XOR-combination of ``rows`` is zero.

    Works on rows augmented with a marker bit per row above the value
    columns, which end at the widest row's top bit; when reduction
    empties the value part, the marker part names one kernel
    combination.  Only rows with a value bit left become pivots, so
    every pivot sits in the value columns.  The returned masks are
    linearly independent and span the left kernel.  Each mask names a
    row that depends on the rows before it, plus the one combination of
    the earlier independent rows that sums to it, so the masks do not
    depend on the column order.
    """
    ncols = max((row.bit_length() for row in rows), default=0)
    value_mask = (1 << ncols) - 1
    span = RowSpan()
    kernel: list[int] = []
    for index, row in enumerate(rows):
        augmented = span.reduce(row | (1 << (ncols + index)))
        if augmented & value_mask:
            span.pivots[_low_bit(augmented)] = augmented
        else:
            kernel.append(augmented >> ncols)
    return kernel


def row_of(terms, index: dict) -> int:
    """Bit mask of a set of terms, with ``index`` mapping each term to
    its column; a term seen for the first time takes the next free
    column.  Works for ``Poly``, ``QPoly`` and packed monomials."""
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
