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

Size classes.  A quadratic shape splits [k] into the Venn regions
S = A & B, X = A - B and Y = B - A of its pair, A the larger by
(cardinality, mask).  Its core reads nothing but those regions, the
least member of one (IIIa: of B = Y; IIIb: of B = S) and that
orientation.  A permutation of the pairs that is monotone on each region
and maps the regions of one shape onto those of another with the same
sizes (|S|, |X|, |Y|) keeps all three, so the second shape's terms are
the first's, permuted.  Evaluation commutes with every permutation of
the pairs, and none changes what ``shape_holds`` reads: the multidegree,
the factor count, nu' from popcounts and the XOR of the images.  A
quadratic has a unique top term, Tr(A)Tr(B), so ``blocks._tie_break``,
which reads the order of the pairs, is never reached.  So one shape per
class decides all of them: ``shape_cores`` lists type I on [k] and one
quadratic per size triple, with S on the first pairs, then X, then Y:
O(k^2) shapes of width k over all degrees, of about 3^k / 2.
``shape_holds`` refuses a quadratic whose top terms tie, as the
tie-break would decide it on the representative alone; the sweep then
takes its per-relation path.  The limit: Tier-1 compares every
quadratic shape with its class representative for k <= 7 and the
embedded shapes with the family for m <= 6, so a core changed to break
region-monotone commutation only at wider widths goes unseen there.

``shape_cores`` gives each shape as masks, with no ``Relation`` built:
its multidegree, its lead by the family's table and the terms its
family's mask core writes (``relations``).  ``shape_holds`` decides a
shape in one pass over those terms: it vanishes, leads as the table
says, and has two generator factors or more in every term.  The cores,
and the lead order's ``blocks._nu`` and ``blocks._tie_break``, are
looked up on their modules when called, so a shape is always written
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
from itertools import accumulate
from operator import mul

from . import blocks, relations
from .poly import parity_collect
from .qring import term_image
from .relations import _term

__all__ = ["shape_cores", "shape_holds"]


def shape_cores(k: int, d: int, flavor: str = "III"):
    """One member of degree d of ``relation_basis(k, flavor)`` for each
    size class of the members whose defining sets cover all k pairs,
    each as ``(alpha, lead, terms)``: its multidegree as a mask of
    bytes, the lead the family's table gives it as an (x, n, traces)
    tuple of masks, and its core's terms.  They are type I on C = [k]
    when d = k >= 3, leading with x_0 Tr(C - {0}); and one quadratic
    per split of [k] into S = A & B, X = A - B and Y = B - A with
    |S| = d - k, |X| >= |Y| and |A|, |B| >= 2, taking S on the first
    pairs, then X, then Y, leading with Tr(A)Tr(B), of multidegree 1 on
    [k] plus 1 on S.  A is the larger of the pair by (cardinality,
    mask), as ``relations_of_degree`` orients it, since type II is not
    symmetric."""
    relations._check_family(k, flavor)
    full = int.from_bytes(bytes([1]) * k, "big")
    if d == k >= 3:
        c = 1 << 8 * (k - 1)
        yield full, (c, 0, (full ^ c,)), relations._core_i(full)
    if not k <= d <= 2 * k:
        return
    both = full ^ (full >> 8 * (d - k))
    for y in range(max(0, k + 2 - d), (2 * k - d) // 2 + 1):
        low = full >> 8 * (k - y)
        a, b = full ^ low, both | low
        yield full + both, (0, 0, (a, b)), (
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
    collection and is the lead; where several tie, a quadratic is
    refused (module docstring, "Size classes"), and type I's are
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
    x, n, traces = lead
    if len(traces) > 1:
        return False
    collected = parity_collect(_term(k, x, n, *kept) for x, n, kept in tied)
    return bool(collected) and blocks._tie_break(list(collected)) == _term(
        k, x, n, *traces)
