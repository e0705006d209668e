"""Dense GF(2) linear algebra on int bitsets.

A vector is a Python int whose bit i is the coefficient of basis
element i; a matrix is a list of such ints plus a column count.  XOR is
addition, so rank, span membership, kernels, and reduced echelon forms
all come down to pivoting on bits.  Pivots sit at the lowest set bit of
a row: every stored row has its pivot bit cleared in all later-examined
positions below it, which makes greedy reduction (repeatedly cancel the
lowest set bit) a complete membership test.
"""

from __future__ import annotations

__all__ = ["RowSpan", "left_kernel", "F2Matrix"]


def _low_bit(value: int) -> int:
    return (value & -value).bit_length() - 1


class RowSpan:
    """Incrementally built row space with O(rank) membership tests."""

    def __init__(self, ncols: int):
        self.ncols = ncols
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


def left_kernel(rows: list[int], ncols: int) -> list[int]:
    """Masks over row indices whose XOR-combination of ``rows`` is zero.

    Works on rows augmented with a marker bit per row above the value
    columns; when elimination empties the value part, the marker part
    names one kernel combination.  The returned masks are linearly
    independent and span the left kernel.
    """
    value_mask = (1 << ncols) - 1
    pivots: dict[int, int] = {}
    kernel: list[int] = []
    for index, row in enumerate(rows):
        augmented = (row & value_mask) | (1 << (ncols + index))
        while augmented & value_mask:
            bit = _low_bit(augmented)
            pivot = pivots.get(bit)
            if pivot is None:
                pivots[bit] = augmented
                break
            augmented ^= pivot
        else:
            kernel.append(augmented >> ncols)
    return kernel


class F2Matrix:
    """A list of int rows with a fixed column count."""

    def __init__(self, ncols: int, rows: list[int] | None = None):
        self.ncols = ncols
        self.rows = list(rows) if rows else []

    def append(self, row: int) -> None:
        self.rows.append(row)

    def rank(self) -> int:
        span = RowSpan(self.ncols)
        for row in self.rows:
            span.add(row)
        return span.rank

    def left_kernel(self) -> list[int]:
        return left_kernel(self.rows, self.ncols)

    def in_rowspan(self, row: int) -> bool:
        span = RowSpan(self.ncols)
        for own in self.rows:
            span.add(own)
        return span.contains(row)

    def rref(self) -> "F2Matrix":
        """Canonical reduced form: each pivot occurs in exactly one row,
        rows sorted by pivot position, zero rows dropped."""
        span = RowSpan(self.ncols)
        for row in self.rows:
            span.add(row)
        reduced: dict[int, int] = {}
        for bit in sorted(span.pivots, reverse=True):
            row = span.pivots[bit]
            for done_bit, done_row in reduced.items():
                if row >> done_bit & 1:
                    row ^= done_row
            reduced[bit] = row
        return F2Matrix(self.ncols, [reduced[b] for b in sorted(reduced)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __repr__(self) -> str:
        return f"F2Matrix(ncols={self.ncols}, rows={len(self.rows)})"
