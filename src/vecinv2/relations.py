"""The generating relations among the invariant-ring generators.

Three families of elements of the presentation ring evaluate to zero.
Each is given in closed form; below, I = A & B, J = A - B, K = B - A,
and Tr of the empty set is 0 and Tr({i}) is x_i:

* type I, one per subset A with at least three members:
  sum over nonempty proper L < A of x^(A-L) Tr(L);
* type II, one per pair of trace subsets: Tr(A)Tr(B)
  + sum over L < I, L != I, of x^(I-L) N^L Tr((I-L) | J | K)
  + N^I * sum over L < J, L != J, of x^(J-L) Tr(L | K);
* type III, four-term rewrites of Tr(A)Tr(B), one per shape:
  - IIIa, A and B disjoint, j = min B, B' = B - {j}:
    Tr(A)Tr(B) + Tr(A | {j})Tr(B') + x_j Tr(A | B') + x_j Tr(A)Tr(B');
  - IIIb, B inside A, i = min B, A' = A - {i}, B' = B - {i}:
    Tr(A)Tr(B) + x_i Tr(A)Tr(B') + N_i Tr(A')Tr(B')
    + x_i N^B' Tr((A - B) | {i});
  - IIIc, A and B meet and neither contains the other:
    Tr(A)Tr(B) + Tr(A | B)Tr(I) + N^I Tr(J)Tr(K).

The constructors compute on int masks with one byte per member,
big-endian: each argument is converted once, at entry, after the check
for 0/1 entries and one width (``int.from_bytes``), and a mask becomes
a tuple again only where a term is written (``_members``).  Set
algebra is ``&``, ``|``, ``& ~`` and ``^``, ``bit_count`` is the
cardinality and the highest set bit the least member.  Masks of one
width compare as their tuples do, so the canonical order is
(bit_count, mask).  A byte holds an exponent, so a sum of masks is the
exponents of a product, where an OR would lose x_i^2.

Each family has one mask core, ``_core_i``, ``_core_ii`` and
``_core_iii``: its term writer on masks, which lists every term as an
(x, n, *traces) tuple of masks and builds nothing else.  A public
constructor checks its arguments, runs its family's core and hands the
terms to ``_term`` and ``_finish``; ``shapes`` reads the same terms as
masks, so a family is written by one piece of code either way.

``_term`` writes each term straight down as a ``QMon``.  It does to a
term what ``qring.formal_trace`` does to a factor: a trace on the
empty set makes the term vanish, one on a singleton {i} becomes a
factor x_i, and the traces that remain are sorted descending.  The few
terms are then parity-collected, since some coincide (the |A|
singleton submasks of type I all give x^A, so it survives exactly when
|A| is odd).  The terms need none of ``make_qmon``'s checks: every set
formed from checked arguments is a 0/1 tuple of their width, the
exponents are sums of such sets, and ``_term`` keeps only traces with
two or more members, in canonical order.  No table over all 2^m
subsets is built, so any width works; ``_members`` keeps the tuples of
the last 4096 masks, which the terms of memoized relations share.

Type I together with either quadratic family generates the whole
relation ideal; the ``oracle`` module checks that claim degree by
degree, and ``rewrite`` uses type III as rewrite rules.

Quadratic constructors canonicalize their arguments first (the larger
subset by (cardinality, bits) comes first; nested pairs put the larger
set in the A slot), and the chosen removal index for the IIIa and IIIb
shapes is always the least member of the relevant subset.

``type_i_relation`` and ``type_iii_relation`` are memoized by their
arguments for the life of the process, because the rewrites of
``rewrite`` ask for the same few relations thousands of times.
Sharing one ``Relation`` between callers is safe: it is frozen, and its
element holds a frozenset of terms.  A vacuous or malformed argument
is not memoized, so its error is raised on every call.
``relation_basis`` builds its family fresh, through the uncached
builders, so a verify's relations are freed when it returns rather
than staying in the memo.  ``relations_of_degree`` lists the members
of one degree, each with a deferred build, and ``relation_degrees``
counts every degree in closed form, so the oracle neither lists nor
builds a relation before its sweep reaches the relation's degree.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from math import comb

from .poly import (
    DimensionMismatch,
    Record,
    Subset,
    _set,
    all_subsets,
    cardinality,
    int_submasks,
    parity_collect,
    subset_to_bits,
)
from .qring import QMon, QPoly

__all__ = [
    "VacuousRelationError",
    "Relation",
    "type_i_relation",
    "type_ii_relation",
    "type_iii_relation",
    "relation_degrees",
    "relations_of_degree",
    "pair_count",
    "relation_basis",
    "count_relations",
]


class VacuousRelationError(ValueError):
    """Raised when the defining subsets are too small to give a relation."""


class Relation(Record):
    """One named relation: the family tag, the defining subsets, the
    removal index for the IIIa/IIIb shapes (0-based, None elsewhere),
    and the element of the presentation ring that evaluates to zero."""

    __slots__ = ("family", "a", "b", "index", "element", "degree")

    def __init__(self, family: str, a: Subset, b: Subset | None,
                 index: int | None, element: QPoly, degree: int):
        _set(self, "family", family)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "index", index)
        _set(self, "element", element)
        _set(self, "degree", degree)

    def label(self) -> str:
        parts = [self.family, f"A={subset_to_bits(self.a)}"]
        if self.b is not None:
            parts.append(f"B={subset_to_bits(self.b)}")
        if self.index is not None:
            parts.append(f"index={self.index + 1}")
        parts.append(f"degree={self.degree}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.element.m,
            "family": self.family,
            "A": subset_to_bits(self.a),
            "B": subset_to_bits(self.b) if self.b is not None else None,
            "index": self.index + 1 if self.index is not None else None,
            "degree": self.degree,
            "element": str(self.element),
        }


def _finish(family: str, a: Subset, b: Subset | None, index: int | None,
            m: int, terms) -> Relation:
    """The relation whose element is the sum of ``terms``, with the
    vanished ones (None) left out."""
    element = QPoly(m, parity_collect(t for t in terms if t is not None))
    degree = element.degree()
    if degree is None:
        raise RuntimeError(f"relation element {element} is not homogeneous")
    return Relation(family, a, b, index, element, degree)


def _masks(*subsets: Subset) -> list[int]:
    """A constructor's arguments as masks, checked once at entry for
    0/1 entries and one width; see the module docstring."""
    for a in subsets:
        if not set(a) <= {0, 1}:
            raise ValueError(f"trace subset needs 0/1 entries, got {a}")
    if len({len(a) for a in subsets}) > 1:
        raise DimensionMismatch(
            "subset widths differ: " + " vs ".join(str(len(a)) for a in subsets))
    return [int.from_bytes(a, "big") for a in subsets]


@lru_cache(maxsize=1 << 12)
def _members(m: int, mask: int) -> tuple[int, ...]:
    """The tuple of a mask of width m: its 0/1 entries, or the exponents
    a sum of masks holds."""
    return tuple(mask.to_bytes(m, "big"))


def _term(m: int, x: int, n: int, *traces: int) -> QMon | None:
    """The monomial x^x N^n Tr(t1)...Tr(tk) of masks, with
    ``formal_trace``'s rewrites of a degenerate factor: a trace on the
    empty set makes the term vanish (None), and one on a singleton {i}
    becomes a factor x_i, added to the exponents.  The kept traces are
    sorted descending."""
    kept = []
    for t in traces:
        if t & (t - 1):
            kept.append(t)
        elif t:
            x += t
        else:
            return None
    kept.sort(reverse=True)
    return QMon(_members(m, x), _members(m, n),
                tuple([_members(m, t) for t in kept]))


def _core_i(c: int) -> list[tuple]:
    """Type I's terms on the mask c, each an (x, n, *traces) tuple of
    masks for ``_term``: x^(C-L) Tr(L) over proper submasks L of C,
    where L = 0 writes the vanishing Tr(empty)."""
    return [(c ^ low, 0, low) for low in int_submasks(c) if low != c]


def _core_ii(a: int, b: int) -> list[tuple]:
    """Type II's terms on the masks a and b, as ``_core_i`` gives them."""
    i_set, j_set, k_set = a & b, a & ~b, b & ~a
    terms = [(0, 0, a, b)]
    for low in int_submasks(i_set):
        if low != i_set:
            top = i_set ^ low
            terms.append((top, low, top | j_set | k_set))
    for low in int_submasks(j_set):
        if low != j_set:
            terms.append((j_set ^ low, i_set, low | k_set))
    return terms


def _core_iii(a: int, b: int) -> tuple[str, int, int, int, list[tuple]]:
    """Type III on the masks a and b: the shape, the pair as the shape
    orders it, the singled-out least member of B as a mask (0 for
    IIIc), and its terms, as ``_core_i`` gives them."""
    if not a & b:
        if (a.bit_count(), a) < (b.bit_count(), b):
            a, b = b, a
        j = 1 << (b.bit_length() - 1)
        rest = b ^ j
        return "IIIa", a, b, j, [(0, 0, a, b), (0, 0, a | j, rest),
                                 (j, 0, a | rest), (j, 0, a, rest)]
    if not a & ~b and b & ~a:
        a, b = b, a
    if not b & ~a:
        i = 1 << (b.bit_length() - 1)
        rest = b ^ i
        return "IIIb", a, b, i, [
            (0, 0, a, b), (i, 0, a, rest), (0, i, a ^ i, rest),
            (i, rest, (a & ~b) | i)]
    if (a.bit_count(), a) < (b.bit_count(), b):
        a, b = b, a
    i_set = a & b
    return "IIIc", a, b, 0, [
        (0, 0, a, b), (0, 0, a | b, i_set), (0, i_set, a & ~b, b & ~a)]


def _type_i(a: Subset) -> Relation:
    """Sum of x^(A-L) Tr(L) over nonempty proper submasks L of A."""
    (am,) = _masks(a)
    if am.bit_count() < 3:
        raise VacuousRelationError(
            f"type I needs at least three members, got {subset_to_bits(a)}")
    m = len(a)
    return _finish("I", a, None, None, m,
                   (_term(m, *t) for t in _core_i(am)))


def type_ii_relation(a: Subset, b: Subset) -> Relation:
    """The long rewrite of Tr(A)Tr(B) over submasks of the overlap."""
    am, bm = _masks(a, b)
    if am.bit_count() < 2 or bm.bit_count() < 2:
        raise VacuousRelationError(
            "type II needs two subsets with at least two members each")
    m = len(a)
    return _finish("II", a, b, None, m,
                   (_term(m, *t) for t in _core_ii(am, bm)))


def _type_iii(a: Subset, b: Subset) -> Relation:
    """Four-term rewrite of Tr(A)Tr(B), canonicalized by shape."""
    am, bm = _masks(a, b)
    if am.bit_count() < 2 or bm.bit_count() < 2:
        raise VacuousRelationError(
            "type III needs two subsets with at least two members each")
    m = len(a)
    family, first, _, single, terms = _core_iii(am, bm)
    if first != am:
        a, b = b, a
    index = m - 1 - (single.bit_length() - 1) // 8 if single else None
    return _finish(family, a, b, index, m, (_term(m, *t) for t in terms))


@lru_cache(maxsize=None)
def type_i_relation(a: Subset) -> Relation:
    """The type I relation on ``a``, built once per process."""
    return _type_i(a)


@lru_cache(maxsize=None)
def type_iii_relation(a: Subset, b: Subset) -> Relation:
    """The type III relation on ``a`` and ``b``, built once per process
    for each argument order."""
    return _type_iii(a, b)


def _check_family(m: int, flavor: str) -> None:
    if flavor not in ("II", "III"):
        raise ValueError(f"flavor must be 'II' or 'III', got {flavor!r}")
    if m < 1:
        raise ValueError("width must be at least 1")


def pair_count(m: int, d: int) -> int:
    """How many unordered pairs of trace subsets, repeats allowed, have
    sizes summing to d: the quadratic relations of degree d."""
    count = 0
    for k in range(2, d // 2 + 1):
        if d - k <= m:
            count += (comb(comb(m, k) + 1, 2) if 2 * k == d
                      else comb(m, k) * comb(m, d - k))
    return count


def relation_degrees(m: int, flavor: str = "III") -> Counter:
    """How many members of ``relation_basis(m, flavor)`` each degree
    has, in closed form: C(m, k) type I at degree k >= 3 and
    ``pair_count(m, d)`` quadratics at degree d."""
    _check_family(m, flavor)
    counts = Counter({k: comb(m, k) for k in range(3, m + 1)})
    counts.update({d: pair_count(m, d) for d in range(4, 2 * m + 1)})
    return +counts


def relations_of_degree(m: int, d: int, flavor: str = "III"):
    """``(position, build)`` for each member of degree d of
    ``relation_basis(m, flavor)``, in its order: the position in the
    basis and a call that builds the relation fresh.  Only the degree-d
    members are visited, so a caller walking the degrees up never lists
    the family above the degree it has reached."""
    _check_family(m, flavor)
    make = type_ii_relation if flavor == "II" else _type_iii
    cubic = all_subsets(m, min_size=3)
    for position, a in enumerate(cubic):
        if cardinality(a) == d:
            yield position, partial(_type_i, a)
    traces = all_subsets(m, min_size=2)
    # traces[first[k]:first[k + 1]] are the subsets of size k
    first = [0, 0, 0]
    for k in range(2, m + 1):
        first.append(first[-1] + comb(m, k))
    for hi, a in enumerate(traces):
        k = d - cardinality(a)
        if 2 <= k <= m:
            for lo in range(first[k], min(first[k + 1], hi + 1)):
                yield (len(cubic) + hi * (hi + 1) // 2 + lo,
                       partial(make, a, traces[lo]))


def relation_basis(m: int, flavor: str = "III") -> list[Relation]:
    """Type I for every subset with >= 3 members plus one quadratic per
    unordered pair (with repetition) of trace subsets, under the chosen
    quadratic flavor, gathered degree by degree from
    ``relations_of_degree``.  Built fresh, bypassing the memo, so the
    family lives only as long as the caller keeps it."""
    built = {position: build for d in relation_degrees(m, flavor)
             for position, build in relations_of_degree(m, d, flavor)}
    return [built[position]() for position in sorted(built)]


def count_relations(m: int) -> int:
    """Closed-form size of the relation basis."""
    if m < 1:
        raise ValueError("width must be at least 1")
    return (2 ** m - comb(m, 2) - m - 1) + comb(2 ** m - m, 2)
