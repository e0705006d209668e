"""The declared family's full-support shapes, listed and checked on masks.

Every member of ``relation_basis(m, flavor)`` is the image of exactly
one shape, a member at some width k <= m whose defining sets cover all
k pairs, under a monotone embedding [k] -> [m] of the pairs.  The
constructors commute with the embedding: inserting pairs that lie in
no set keeps every order they read (cardinality then bits, the least
member, the descending trace list), so the same member is singled out
and the terms written are the embedded terms.  So are their images, as
evaluation commutes with renaming the pairs, and so is the lead order
of ``blocks.RelationSpans._lead``: inserting pairs that no symbol reads
changes neither nu', nor grevlex on the interleaved y_i, x_i, nor the
tuple order.

``shape_cores`` lists the shapes of one width and degree directly as
masks, with no ``Relation`` built: type I on [k], and the quadratics
by the set S of pairs in both A and B and an A-only submask of the
rest, each with its multidegree, its lead by the family's table and the
terms its family's mask core writes (``relations``).  ``shape_holds``
decides a shape in one pass over those terms: it vanishes, leads as
the table says, and has two generator factors or more in every term.
The cores, and the lead order's ``blocks._nu`` and ``blocks._tie_break``,
are looked up on their modules when called, so a shape is always written
and led by the code that writes and leads the relation.

A shape of width k is the same at every m >= k, so ``oracle`` keeps the
verdict of each width, degree and flavor for the process
(``oracle._shapes_hold``): verifying m = 3 and then m = 4 checks only
the shapes of width 4 the second time.  A kept verdict reads no core
again, so code that swaps a core or the lead order after a sweep
clears that memo before the next one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from operator import mul

from . import blocks, relations
from .poly import int_submasks, parity_collect
from .qring import term_image
from .relations import _term

__all__ = ["shape_cores", "shape_holds"]


def shape_cores(k: int, d: int, flavor: str = "III"):
    """The members of degree d of ``relation_basis(k, flavor)`` whose
    defining sets cover all k pairs, each as ``(alpha, lead, terms)``:
    its multidegree as a mask of bytes, the lead the family's table
    gives it as an (x, n, traces) tuple of masks, and its core's terms.
    They are type I on C = [k] when d = k >= 3, leading with
    x_0 Tr(C - {0}); and one quadratic per set S of d - k pairs in both
    A and B and submask T of the rest R, with A = S | T, B = S | (R - T)
    and |A|, |B| >= 2, leading with Tr(A)Tr(B), of multidegree 1 on [k]
    plus 1 on S.  Its pair is oriented as ``relations_of_degree``
    orients it (A before B, the larger by (cardinality, mask), since
    type II is not symmetric), so a T with B larger than A is the swap
    of one kept and is skipped."""
    relations._check_family(k, flavor)
    full = int.from_bytes(bytes([1]) * k, "big")
    if d == k >= 3:
        c = 1 << 8 * (k - 1)
        yield full, (c, 0, (full ^ c,)), relations._core_i(full)
    for both in combinations(range(k), d - k) if k <= d <= 2 * k else ():
        s = sum(1 << 8 * (k - 1 - i) for i in both)
        rest = full ^ s
        for t in int_submasks(rest):
            a, b = s | t, s | (rest ^ t)
            if (min(a.bit_count(), b.bit_count()) >= 2
                    and (a.bit_count(), a) >= (b.bit_count(), b)):
                yield full + s, (0, 0, (max(a, b), min(a, b))), (
                    relations._core_ii(a, b) if flavor == "II"
                    else relations._core_iii(a, b)[-1])


@lru_cache(maxsize=1 << 14)
def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


@lru_cache(maxsize=64)
def _weights(k: int, alpha: int) -> list[int]:
    """The weight of each bit b of a mask of width k in the block of the
    multidegree mask ``alpha``: R_i 2^s, where bit b is bit s of the
    byte of pair i, so that i = k - 1 - (b >> 3) and s = b & 7, and
    R_i = prod_{j<i} (alpha_j + 1).  A trace's members are its bits
    with s = 0; N_i^(2^s) is one factor of weight R_i 2^s."""
    radices = list(accumulate((a + 1 for a in alpha.to_bytes(k, "big")),
                              mul, initial=1))
    return [radices[k - 1 - (b >> 3)] << (b & 7) for b in range(8 * k)]


def shape_holds(k: int, alpha: int, lead: tuple, terms) -> bool:
    """Whether a shape of width k, as ``shape_cores`` gives it,
    vanishes, leads with ``lead`` (``blocks.RelationSpans._lead``) and
    has every term a product of two generators or more, decided in one
    pass over its core's ``terms``, with a ``QMon`` built only for tied
    leads.

    Each term is rewritten as ``relations._term`` rewrites it: a trace
    on no pair drops it, one on a single pair joins x.  Every term must
    have the multidegree ``alpha``, x + 2n plus its traces, so its image
    lies in that one block, where ``qring.term_image`` writes it as one
    int with the weights of ``_weights``; the shape vanishes exactly
    when their XOR is 0.  A term's factors are its exponent bytes plus
    its traces, and set bits bound the bytes from below.  nu' comes from
    the popcounts (``blocks._nu``).  A unique top term survives parity
    collection and is the lead; where several tie, they alone are
    converted, collected and handed to ``blocks._tie_break``.  A tie
    that cancels, a term off the block or one of one factor is refused
    even where its duplicate cancels it, which ``vanishes`` and
    ``_lead`` on the collected element might accept: a refusal only
    sends the sweep down its per-relation path, and the declared family
    has none of them."""
    weights = _weights(k, alpha)
    top, tied, image = None, [], 0
    for x, n, *traces in terms:
        kept, sizes = [], []
        for t in traces:
            if t & (t - 1):
                kept.append(t)
                sizes.append(t.bit_count())
            elif t:
                x += t
            else:
                break
        else:
            if x + 2 * n + sum(kept) != alpha:
                return False
            if len(kept) + x.bit_count() + n.bit_count() < 2 and (
                    len(kept) + sum(x.to_bytes(k, "big"))
                    + sum(n.to_bytes(k, "big")) < 2):
                return False
            mu = blocks._nu(sizes)
            if top is None or mu > top:
                top, tied = mu, [(x, n, kept)]
            elif mu == top:
                tied.append((x, n, kept))
            image ^= term_image(
                [(weights[b], 1) for b in _bits(n)] if n else (),
                [map(weights.__getitem__, _bits(t)) for t in kept])
    if image or not tied:
        return False
    if len(tied) == 1:
        x, n, kept = tied[0]
        return (x, n, tuple(sorted(kept, reverse=True))) == lead
    collected = parity_collect(_term(k, x, n, *kept) for x, n, kept in tied)
    x, n, traces = lead
    return bool(collected) and blocks._tie_break(list(collected)) == _term(
        k, x, n, *traces)
