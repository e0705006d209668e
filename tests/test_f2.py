"""Bit-packed GF(2) linear algebra: row spans and left kernels, checked
against brute-force enumeration on small matrices."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from vecinv2.f2 import RowSpan, left_kernel


small_matrices = st.lists(
    st.integers(min_value=0, max_value=255), min_size=0, max_size=8)


def brute_span(rows):
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


# ---------------------------------------------------------------------------
# RowSpan
# ---------------------------------------------------------------------------

def test_rowspan_golden():
    span = RowSpan()
    assert span.add(0b0011)
    assert span.add(0b0101)
    assert not span.add(0b0110)  # dependent on the first two
    assert span.rank == 2
    assert span.contains(0b0110)
    assert span.contains(0)
    assert not span.contains(0b1000)


def test_rowspan_reduce_is_canonical():
    span = RowSpan()
    span.add(0b0011)
    span.add(0b0101)
    # reduce returns the same residue for anything in one coset
    assert span.reduce(0b0110) == 0
    assert span.reduce(0b1110) == span.reduce(0b1000)


@given(small_matrices, st.integers(min_value=0, max_value=255))
@settings(max_examples=200, deadline=None)
def test_rowspan_matches_brute_force(rows, probe):
    span = RowSpan()
    for r in rows:
        span.add(r)
    reachable = brute_span(rows)
    assert span.contains(probe) == (probe in reachable)
    assert 2 ** span.rank == len(reachable)


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_rowspan_add_reports_growth(rows):
    span = RowSpan()
    rank = 0
    for r in rows:
        grew = span.add(r)
        rank += int(grew)
        assert span.rank == rank


# ---------------------------------------------------------------------------
# left kernel
# ---------------------------------------------------------------------------

@given(small_matrices)
@settings(max_examples=200, deadline=None)
def test_left_kernel_properties(rows):
    kernel = left_kernel(rows)
    # each mask combines the rows to zero
    for mask in kernel:
        acc = 0
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= r
        assert acc == 0
    # the masks are independent and complete
    mask_span = RowSpan()
    for mask in kernel:
        assert mask != 0
        assert mask_span.add(mask)
    row_span = RowSpan()
    rank = sum(1 for r in rows if row_span.add(r))
    assert len(kernel) == len(rows) - rank


def test_left_kernel_exhaustive_small():
    rng = random.Random(8128)
    for _ in range(50):
        nrows = rng.randrange(0, 5)
        rows = [rng.randrange(16) for _ in range(nrows)]
        kernel = left_kernel(rows)
        found = set()
        for bits in itertools.product((0, 1), repeat=nrows):
            acc = 0
            for i, r in enumerate(rows):
                if bits[i]:
                    acc ^= r
            if acc == 0:
                found.add(sum(b << i for i, b in enumerate(bits)))
        assert brute_span(kernel) == found
