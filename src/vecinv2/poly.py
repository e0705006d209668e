"""Sparse polynomial arithmetic over GF(2) in paired variables.

The ambient ring is F2[y1, x1, y2, x2, ..., ym, xm] for a runtime width
m.  A monomial is a tuple of 2m natural exponents listed in the fixed
variable sequence y1, x1, y2, x2, ..., ym, xm; position 2*i holds the
exponent of y_{i+1} and position 2*i+1 the exponent of x_{i+1}.

The representation lives in this module, in ``SparsePoly``, the sparse
GF(2) core that ``Poly`` here and ``qring.QPoly`` both build on.  A
polynomial is a frozenset of monomials: over the two-element field every
stored monomial has coefficient 1, addition is symmetric difference, and
a product keeps the monomials that arise from an odd number of term
pairs (``parity_collect``).  The core also owns the width check, the
text format's skeleton and its parser; each subclass supplies only its
monomial type, its constructors and its ``__mul__``.

Monomials are compared in graded reverse lexicographic order induced by
y1 > x1 > y2 > x2 > ... > ym > xm: higher total degree wins, and among
equal degrees the monomial whose rightmost nonzero exponent difference
is negative is the larger one.

Zero/one tuples of length m double as subsets of the m copies and as
exponent sequences, so a subset ``a`` also names the square free
monomial x^a.  The helpers in the first half of this module give what
the generators, the oracle and the rewrites use of the calculus of such
subsets (cardinality, union, singletons and least members, submask
enumeration, the canonical order ``subset_key``); the relation
constructors do their set algebra on int masks instead (module
``relations``).  Indices are 0-based internally; only the text formats
use 1-based variable names.

``Record`` here is the base of the package's records: the polynomials,
relations, traces, certificates, reports and the generator set.  They
are plain ``__slots__`` classes, not ``@dataclass`` ones, because a
``vecinv2`` command is one short process, and there the import is most
of the time: ``verify -m 4`` takes about 4 ms of a 147 ms process.
The module behind ``@dataclass`` pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize``, and the decorator writes and ``exec``s each class's
methods; without them ``import vecinv2`` fell from 66 to 41 ms (medians
of 40 fresh interpreters without bytecode caches, on a 2-vCPU host),
and what is left is almost all compiling the source.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import add, attrgetter
from typing import Iterable, Iterator, Tuple

Monomial = Tuple[int, ...]
Subset = Tuple[int, ...]

__all__ = [
    "DimensionMismatch",
    "ZeroPolynomialError",
    "Monomial",
    "Subset",
    "Record",
    "SparsePoly",
    "Poly",
    "parity_collect",
    "parity_update",
    "term_text",
    "variable_index",
    "monomial_key",
    "monomial_text",
    "cardinality",
    "subset_key",
    "union",
    "singleton",
    "min_index",
    "strict_submasks",
    "all_subsets",
    "subset_to_bits",
    "bits_to_subset",
    "int_submasks",
]


class DimensionMismatch(ValueError):
    """Raised when operands carry different variable counts."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation needs at least one term."""


# ---------------------------------------------------------------------------
# subsets of {0, ..., m-1}, stored as 0/1 tuples of length m
# ---------------------------------------------------------------------------

def cardinality(a: Subset) -> int:
    return sum(a)


def subset_key(a: Subset) -> tuple:
    """The canonical order on subsets: by cardinality, then by bits."""
    return (cardinality(a), a)


def union(a: Subset, b: Subset) -> Subset:
    if len(a) != len(b):
        raise DimensionMismatch(f"subset widths differ: {len(a)} vs {len(b)}")
    return tuple(u | v for u, v in zip(a, b))


def singleton(m: int, i: int) -> Subset:
    """The one-element subset {i} (0-based)."""
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range for width {m}")
    return tuple(1 if k == i else 0 for k in range(m))


def min_index(a: Subset) -> int:
    """Least member of a nonempty subset."""
    for i, bit in enumerate(a):
        if bit:
            return i
    raise ValueError("empty subset has no least member")


def _mask(a: Subset) -> int:
    m = 0
    for i, bit in enumerate(a):
        if bit:
            m |= 1 << i
    return m


def _unmask(mask: int, width: int) -> Subset:
    return tuple((mask >> i) & 1 for i in range(width))


def int_submasks(mask: int) -> Iterator[int]:
    """All bitwise submasks of ``mask``, in decreasing numeric order.

    These are exactly the j with an odd binomial(mask, j), which makes
    this the expansion rule for (y + x)^mask over GF(2).
    """
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def strict_submasks(a: Subset) -> Iterator[Subset]:
    """All subsets L with L <= a and L != a (the empty set included)."""
    amask = _mask(a)
    width = len(a)
    for s in int_submasks(amask):
        if s != amask:
            yield _unmask(s, width)


@lru_cache(maxsize=None)
def all_subsets(m: int, min_size: int = 0) -> tuple[Subset, ...]:
    """Every subset of {0..m-1} with at least ``min_size`` members,
    sorted by ``subset_key``; listed once per process for each
    argument pair."""
    out = [_unmask(s, m) for s in range(1 << m)]
    out = [a for a in out if cardinality(a) >= min_size]
    out.sort(key=subset_key)
    return tuple(out)


def subset_to_bits(a: Subset) -> str:
    return "".join(str(bit) for bit in a)


def bits_to_subset(text: str) -> Subset:
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a 0/1 bitstring: {text!r}")
    return tuple(int(c) for c in text)


# ---------------------------------------------------------------------------
# immutable records
# ---------------------------------------------------------------------------

# what a record's ``__init__`` writes its fields with, past the refusing
# ``Record.__setattr__``
_set = object.__setattr__


class Record:
    """The base of the package's records: named fields, value equality.

    A subclass names its fields in ``__slots__``, in the order of its
    constructor's parameters, and writes them in its ``__init__`` with
    ``_set``; ``_compared``, when the class sets it, names the fields
    that equality and hash read (all of them otherwise).  A subclass
    that adds no field declares ``__slots__ = ()`` and keeps its base's.

    Records are equal only to records of their own class whose compared
    fields are equal, and hash as the tuple of those fields.  Assigning
    or deleting a field raises ``AttributeError``.  Pickle and ``copy``
    rebuild a record through its constructor; weak references work.
    """

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__slots__")
        if fields:
            cls._fields = fields
            cls._key = staticmethod(
                attrgetter(*cls.__dict__.get("_compared", fields)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# the sparse GF(2) core shared by ``Poly`` and the presentation ring
# ---------------------------------------------------------------------------

def parity_update(odd: set, terms: Iterable) -> None:
    """Toggle each of ``terms`` in the set ``odd``: add it when absent,
    remove it when present.  Over GF(2) this adds the sum of ``terms``
    to the sum that ``odd`` holds."""
    for term in terms:
        if term in odd:
            odd.remove(term)
        else:
            odd.add(term)


def parity_collect(terms: Iterable) -> frozenset:
    """The terms that occur an odd number of times.  Over GF(2) a term
    listed twice cancels, so this turns a list of products into a sum."""
    odd: set = set()
    parity_update(odd, terms)
    return frozenset(odd)


def term_text(factors: Iterable[tuple[str, int]]) -> str:
    """Render a term from (symbol, exponent) factors, skipping exponent 0;
    the empty product prints as 1."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in factors if e) or "1"


def variable_index(m: int, digits: str) -> int:
    """0-based position of a 1-based variable number read from text."""
    idx = int(digits)
    if not 1 <= idx <= m:
        raise ValueError(f"variable index {idx} out of range for m={m}")
    return idx - 1


class SparsePoly(Record):
    """A polynomial over GF(2) as the frozenset of its monomials.

    Every stored monomial has coefficient 1 and addition is symmetric
    difference.  A subclass fixes the monomial type: ``_order`` (sort
    key, largest printed first), ``_check_term`` (validates one monomial
    against the width m and returns it), ``_term_text``, ``_factor`` (a
    regex for one factor of a term) and ``_parse_term`` (builds a
    monomial from the matched factors); it also defines ``__mul__``.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: frozenset):
        _set(self, "m", m)
        _set(self, "terms", terms)

    @classmethod
    def zero(cls, m: int):
        return cls(m, frozenset())

    @classmethod
    def from_terms(cls, m: int, terms: Iterable):
        """Build from monomials with mod-2 cancellation of repeats."""
        return cls(m, parity_collect(cls._check_term(m, t) for t in terms))

    def _check_m(self, other: "SparsePoly") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"mixed widths: m={self.m} vs m={other.m}")

    def __add__(self, other):
        self._check_m(other)
        return type(self)(self.m, self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms, key=self._order, reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_text(t) for t in self.sorted_terms())

    @classmethod
    def parse(cls, m: int, text: str):
        """Inverse of ``str``; accepts terms and factors in any order."""
        body = text.strip()
        if body == "0":
            return cls.zero(m)
        terms = []
        for chunk in body.split("+"):
            if not chunk.strip():
                raise ValueError(f"empty term in {text!r}")
            factors = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                if factor == "1":
                    continue
                match = cls._factor.match(factor)
                if not match:
                    raise ValueError(f"bad factor {factor!r}")
                factors.append(match.groups())
            terms.append(cls._parse_term(m, factors))
        return cls(m, parity_collect(terms))


# ---------------------------------------------------------------------------
# monomials of F2[y1, x1, ..., ym, xm]
# ---------------------------------------------------------------------------

def monomial_key(mono: Monomial):
    """Sort key realizing the graded reverse lexicographic order.

    Tuples compare by total degree first; ties are broken by the negated
    reversed exponent vector, which makes the rightmost difference
    decisive with the intended sign.
    """
    return (sum(mono), tuple(-e for e in reversed(mono)))


def monomial_text(mono: Monomial) -> str:
    """Render a single monomial the way ``Poly.__str__`` would."""
    m = len(mono) // 2
    return term_text([(f"x{i + 1}", mono[2 * i + 1]) for i in range(m)]
                     + [(f"y{i + 1}", mono[2 * i]) for i in range(m)])


def _check_monomial(m: int, exps: Iterable[int]) -> Monomial:
    exps = tuple(exps)
    if len(exps) != 2 * m:
        raise DimensionMismatch(f"expected {2 * m} exponents, got {len(exps)}")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")
    return exps


def _parse_monomial(m: int, factors: list[tuple]) -> Monomial:
    exps = [0] * (2 * m)
    for name, digits, exp in factors:
        exps[2 * variable_index(m, digits) + (name == "x")] += int(exp or 1)
    return tuple(exps)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly(SparsePoly):
    """A polynomial over GF(2); ``terms`` is a frozenset of monomials."""

    __slots__ = ()
    _order = staticmethod(monomial_key)
    _check_term = staticmethod(_check_monomial)
    _term_text = staticmethod(monomial_text)
    _factor = re.compile(r"([xy])(\d+)(?:\^(\d+))?\Z")
    _parse_term = staticmethod(_parse_monomial)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(m: int, exps: Monomial) -> "Poly":
        return Poly.from_terms(m, [exps])

    @staticmethod
    def y_variable(m: int, i: int) -> "Poly":
        exps = [0] * (2 * m)
        exps[2 * i] = 1
        return Poly.monomial(m, tuple(exps))

    @staticmethod
    def x_variable(m: int, i: int) -> "Poly":
        exps = [0] * (2 * m)
        exps[2 * i + 1] = 1
        return Poly.monomial(m, tuple(exps))

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_m(other)
        return Poly(self.m, parity_collect(
            tuple(map(add, a, b)) for a in self.terms for b in other.terms))

    # -- inspection ---------------------------------------------------------

    def lead_term(self) -> Monomial:
        """Largest monomial in the order; errors on the zero polynomial."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no lead term")
        return max(self.terms, key=monomial_key)
