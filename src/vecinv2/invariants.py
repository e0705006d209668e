"""The order-two algebra action and the invariant-ring generators.

The group of order two acts on each pair (y_i, x_i) by the algebra map
that fixes x_i and sends y_i to y_i + x_i.  Invariants of that action
are generated by the x_i, the norms N_i = y_i^2 + x_i*y_i, and one
transfer (orbit sum) for every subset of the copies with at least two
members.  Everything here is exact arithmetic on ``Poly`` values.
"""

from __future__ import annotations

from functools import lru_cache

from .poly import (
    Poly,
    Record,
    Subset,
    all_subsets,
    cardinality,
    strict_submasks,
    subset_to_bits,
)

__all__ = [
    "transfer",
    "norm",
    "GeneratorSet",
    "generator_set",
]


@lru_cache(maxsize=None)
def transfer(a: Subset) -> Poly:
    """Orbit sum of y^a: the sum of x^(a-L) y^L over all proper
    submasks L of a.

    Degenerate widths fall out of the same sum: the empty subset gives 0
    (the orbit sum of 1 vanishes in characteristic 2) and a singleton
    {i} gives x_i.
    """
    return Poly(len(a), frozenset(
        tuple(e for low_i, a_i in zip(low, a) for e in (low_i, a_i - low_i))
        for low in strict_submasks(a)))


def norm(m: int, i: int) -> Poly:
    """N_i = y_i^2 + x_i*y_i, the product of y_i with its image."""
    y = Poly.y_variable(m, i)
    x = Poly.x_variable(m, i)
    return y * y + x * y


class GeneratorSet(Record):
    """The minimal generating set of the invariant ring at width m; unlike
    the other records it is mutable, and so unhashable."""

    __slots__ = ("m", "xs", "norms", "traces")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, m: int, xs: tuple, norms: tuple,
                 traces: dict | None = None):
        self.m = m
        self.xs = xs
        self.norms = norms
        # subset -> Poly, |subset| >= 2
        self.traces = {} if traces is None else traces

    @property
    def count(self) -> int:
        return len(self.xs) + len(self.norms) + len(self.traces)

    def members(self):
        """Yield (name, degree, poly) in the canonical listing order."""
        for i, f in enumerate(self.xs):
            yield f"x{i + 1}", 1, f
        for i, f in enumerate(self.norms):
            yield f"N{i + 1}", 2, f
        for a, f in self.traces.items():
            yield f"tr_{subset_to_bits(a)}", cardinality(a), f

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "m": self.m,
            "count": self.count,
            "generators": [
                {"name": name, "degree": deg, "poly": str(poly)}
                for name, deg, poly in self.members()
            ],
        }


def generator_set(m: int) -> GeneratorSet:
    if m < 1:
        raise ValueError("width must be at least 1")
    xs = tuple(Poly.x_variable(m, i) for i in range(m))
    norms = tuple(norm(m, i) for i in range(m))
    traces = {a: transfer(a) for a in all_subsets(m, min_size=2)}
    gens = GeneratorSet(m, xs, norms, traces)
    if gens.count != 2 ** m + m - 1:
        raise RuntimeError(
            f"{gens.count} generators at m = {m}, want {2 ** m + m - 1}")
    return gens
