"""The order-two algebra action and the invariant-ring generators.

The group of order two acts on each pair (y_i, x_i) by the algebra map
that fixes x_i and sends y_i to y_i + x_i.  Invariants of that action
are generated by the x_i, the norms N_i = y_i^2 + x_i*y_i, and one
transfer (orbit sum) for every subset of the copies with at least two
members.  Everything here is exact arithmetic on ``Poly`` values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .poly import (
    Poly,
    Subset,
    all_subsets,
    cardinality,
    int_submasks,
    parity_collect,
    subset_to_bits,
)

__all__ = [
    "involution",
    "is_invariant",
    "transfer",
    "norm",
    "GeneratorSet",
    "generator_set",
    "count_minimal_generators",
]


def involution(f: Poly) -> Poly:
    """Apply the nontrivial algebra map: x_i -> x_i, y_i -> y_i + x_i.

    (y + x)^a expands over GF(2) to the sum of y^j x^(a-j) over the
    bitwise submasks j of a, by the parity of binomial coefficients.
    """
    return Poly(f.m, parity_collect(
        image for mono in f.terms for image in _sheared(mono)))


def _sheared(mono: tuple):
    """The terms of the image of one monomial under ``involution``."""
    hot = [i for i in range(len(mono) // 2) if mono[2 * i]]
    for combo in itertools.product(*(int_submasks(mono[2 * i]) for i in hot)):
        new = list(mono)
        for i, j in zip(hot, combo):
            new[2 * i] = j
            new[2 * i + 1] += mono[2 * i] - j
        yield tuple(new)


def is_invariant(f: Poly) -> bool:
    return involution(f) == f


@lru_cache(maxsize=None)
def transfer(a: Subset) -> Poly:
    """Orbit sum of y^a: the sum of x^(a-L) y^L over all proper
    submasks L of a.

    Degenerate widths fall out of the same sum: the empty subset gives 0
    (the orbit sum of 1 vanishes in characteristic 2) and a singleton
    {i} gives x_i.
    """
    m = len(a)
    amask = sum(1 << i for i, bit in enumerate(a) if bit)
    terms = []
    s = amask
    while True:
        if s != amask:
            mono = [0] * (2 * m)
            for i in range(m):
                if (s >> i) & 1:
                    mono[2 * i] = 1
                elif a[i]:
                    mono[2 * i + 1] = 1
            terms.append(tuple(mono))
        if s == 0:
            break
        s = (s - 1) & amask
    return Poly(m, frozenset(terms))


def norm(m: int, i: int) -> Poly:
    """N_i = y_i^2 + x_i*y_i, the product of y_i with its image."""
    y = Poly.y_variable(m, i)
    x = Poly.x_variable(m, i)
    return y * y + x * y


@dataclass
class GeneratorSet:
    """The minimal generating set of the invariant ring at width m."""

    m: int
    xs: tuple
    norms: tuple
    traces: dict = field(default_factory=dict)  # subset -> Poly, |subset| >= 2

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


def count_minimal_generators(p: int, m: int) -> int:
    """Size of the minimal generating set for a prime p and width m,
    by the closed-form count."""
    if p < 2 or m < 1:
        raise ValueError("need a prime p >= 2 and width m >= 1")
    return (
        p ** m
        - comb(m + 2 * p - 2, m)
        + m * comb(m + p - 2, m)
        + comb(m, 2)
        + 2 * m
    )
