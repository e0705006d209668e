"""The generating relations among the invariant-ring generators.

Three families of elements of the presentation ring evaluate to zero:

* type I, one per subset A with at least three members: the sum over
  nonempty proper submasks L of A of x^(A-L) Tr(L);
* type II, one per pair of trace subsets: a rewrite of Tr(A)Tr(B) with
  coefficients running over submasks of the overlap and of A minus B;
* type III, shorter four-term rewrites of Tr(A)Tr(B) split into three
  shapes by how A and B meet (disjoint, nested, or incomparable).

Type I together with either quadratic family generates the whole
relation ideal; the ``oracle`` module checks that claim degree by
degree, and ``rewrite`` uses type III as rewrite rules.

Quadratic constructors canonicalize their arguments first (the larger
subset by (cardinality, bits) comes first; nested pairs put the larger
set in the A slot), and the chosen removal index for the IIIa and IIIb
shapes is always the least member of the relevant subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .poly import (
    Subset,
    all_subsets,
    cardinality,
    drop_min,
    intersect,
    is_disjoint,
    is_subset_of,
    min_index,
    setminus,
    singleton,
    strict_submasks,
    subset_to_bits,
    union,
)
from .qring import QPoly, formal_trace

__all__ = [
    "VacuousRelationError",
    "Relation",
    "type_i_relation",
    "type_ii_relation",
    "type_iii_relation",
    "relation_basis",
    "count_relations",
]


class VacuousRelationError(ValueError):
    """Raised when the defining subsets are too small to give a relation."""


@dataclass(frozen=True)
class Relation:
    """One named relation: the family tag, the defining subsets, the
    removal index for the IIIa/IIIb shapes (0-based, None elsewhere),
    and the element of the presentation ring that evaluates to zero."""

    family: str
    a: Subset
    b: Subset | None
    index: int | None
    element: QPoly
    degree: int

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
            element: QPoly) -> Relation:
    degree = element.degree()
    if degree is None:
        raise RuntimeError(f"relation element {element} is not homogeneous")
    return Relation(family, a, b, index, element, degree)


def type_i_relation(a: Subset) -> Relation:
    """Sum of x^(A-L) Tr(L) over nonempty proper submasks L of A."""
    if cardinality(a) < 3:
        raise VacuousRelationError(
            f"type I needs at least three members, got {subset_to_bits(a)}")
    q = QPoly.zero(len(a))
    for low in strict_submasks(a):
        if cardinality(low) == 0:
            continue
        q = q + QPoly.x_power(setminus(a, low)) * formal_trace(low)
    return _finish("I", a, None, None, q)


def type_ii_relation(a: Subset, b: Subset) -> Relation:
    """The long rewrite of Tr(A)Tr(B) over submasks of the overlap."""
    if cardinality(a) < 2 or cardinality(b) < 2:
        raise VacuousRelationError(
            "type II needs two subsets with at least two members each")
    i_set = intersect(a, b)
    j_set = setminus(a, b)
    k_set = setminus(b, a)
    q = formal_trace(a) * formal_trace(b)
    for low in strict_submasks(i_set):
        rest = union(union(setminus(i_set, low), j_set), k_set)
        q = q + QPoly.x_power(setminus(i_set, low)) * QPoly.n_power(low) \
            * formal_trace(rest)
    n_i = QPoly.n_power(i_set)
    for low in strict_submasks(j_set):
        q = q + n_i * QPoly.x_power(setminus(j_set, low)) \
            * formal_trace(union(low, k_set))
    return _finish("II", a, b, None, q)


def _pair_key(a: Subset) -> tuple:
    return (cardinality(a), a)


def type_iii_relation(a: Subset, b: Subset) -> Relation:
    """Four-term rewrite of Tr(A)Tr(B), canonicalized by shape."""
    if cardinality(a) < 2 or cardinality(b) < 2:
        raise VacuousRelationError(
            "type III needs two subsets with at least two members each")
    m = len(a)
    if is_disjoint(a, b):
        if _pair_key(a) < _pair_key(b):
            a, b = b, a
        j = min_index(b)
        b_rest = drop_min(b)
        xj = QPoly.x_power(singleton(m, j))
        q = (
            formal_trace(a) * formal_trace(b)
            + formal_trace(union(a, singleton(m, j))) * formal_trace(b_rest)
            + xj * formal_trace(union(a, b_rest))
            + xj * formal_trace(a) * formal_trace(b_rest)
        )
        return _finish("IIIa", a, b, j, q)
    if is_subset_of(a, b) and not is_subset_of(b, a):
        a, b = b, a
    if is_subset_of(b, a):
        i = min_index(b)
        delta = singleton(m, i)
        a_rest = setminus(a, delta)
        b_rest = setminus(b, delta)
        xi = QPoly.x_power(delta)
        q = (
            formal_trace(a) * formal_trace(b)
            + xi * formal_trace(a) * formal_trace(b_rest)
            + QPoly.n_power(delta) * formal_trace(a_rest) * formal_trace(b_rest)
            + xi * QPoly.n_power(b_rest) * formal_trace(union(setminus(a, b), delta))
        )
        return _finish("IIIb", a, b, i, q)
    if _pair_key(a) < _pair_key(b):
        a, b = b, a
    i_set = intersect(a, b)
    q = (
        formal_trace(a) * formal_trace(b)
        + formal_trace(union(a, b)) * formal_trace(i_set)
        + QPoly.n_power(i_set) * formal_trace(setminus(a, b))
        * formal_trace(setminus(b, a))
    )
    return _finish("IIIc", a, b, None, q)


def relation_basis(m: int, flavor: str = "III") -> list[Relation]:
    """Type I for every subset with >= 3 members plus one quadratic per
    unordered pair (with repetition) of trace subsets, under the chosen
    quadratic flavor."""
    if flavor not in ("II", "III"):
        raise ValueError(f"flavor must be 'II' or 'III', got {flavor!r}")
    if m < 1:
        raise ValueError("width must be at least 1")
    make = type_ii_relation if flavor == "II" else type_iii_relation
    rels = [type_i_relation(a) for a in all_subsets(m, min_size=3)]
    traces = all_subsets(m, min_size=2)
    for hi in range(len(traces)):
        for lo in range(hi + 1):
            rels.append(make(traces[hi], traces[lo]))
    return rels


def count_relations(m: int) -> int:
    """Closed-form size of the relation basis."""
    if m < 1:
        raise ValueError("width must be at least 1")
    return (2 ** m - comb(m, 2) - m - 1) + comb(2 ** m - m, 2)
