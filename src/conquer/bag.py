"""Frequency-map multisets.

A bag maps each element to a positive frequency; zero frequencies are
never stored, and element order is irrelevant for equality.  Instances are
treated as immutable values: every operation returns a new bag.

NULL is stored like any other element, but the arithmetic reductions at
the bottom of this module skip it the way SQL-92 aggregates do, and reduce
the empty bag to NULL.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Iterator

from .errors import EvalError
from .values import NULL, is_number


class Bag:
    __slots__ = ("_freq",)

    def __init__(self, elements: Iterable[Any] = ()):
        freq: dict[Any, int] = {}
        for e in elements:
            freq[e] = freq.get(e, 0) + 1
        self._freq = freq

    @classmethod
    def from_counts(cls, counts: Iterable[tuple[Any, int]]) -> "Bag":
        bag = cls()
        freq = bag._freq
        for e, n in counts:
            if n < 0:
                raise ValueError(f"negative frequency {n} for {e!r}")
            if n:
                freq[e] = freq.get(e, 0) + n
        return bag

    # -- inspection ----------------------------------------------------

    def frequency(self, e: Any) -> int:
        return self._freq.get(e, 0)

    def items(self) -> Iterator[tuple[Any, int]]:
        return iter(self._freq.items())

    def elements(self) -> Iterator[Any]:
        """Iterate elements with multiplicity."""
        for e, n in self._freq.items():
            for _ in range(n):
                yield e

    def distinct(self) -> Iterator[Any]:
        return iter(self._freq)

    def cardinality(self) -> int:
        return sum(self._freq.values())

    def __len__(self) -> int:
        return self.cardinality()

    def __bool__(self) -> bool:
        return bool(self._freq)

    def __contains__(self, e: Any) -> bool:
        return e in self._freq

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bag) and self._freq == other._freq

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self.elements())
        return "{{" + inner + "}}"

    # -- set-theoretic operations ---------------------------------------

    def union(self, other: "Bag") -> "Bag":
        out = Bag()
        out._freq = dict(self._freq)
        for e, n in other._freq.items():
            out._freq[e] = out._freq.get(e, 0) + n
        return out

    def intersect(self, other: "Bag") -> "Bag":
        out = Bag()
        for e, n in self._freq.items():
            m = other._freq.get(e, 0)
            if m:
                out._freq[e] = min(n, m)
        return out

    def difference(self, other: "Bag") -> "Bag":
        out = Bag()
        for e, n in self._freq.items():
            k = n - other._freq.get(e, 0)
            if k > 0:
                out._freq[e] = k
        return out

    def subbag(self, other: "Bag") -> bool:
        return all(n <= other._freq.get(e, 0) for e, n in self._freq.items())

    def proper_subbag(self, other: "Bag") -> bool:
        return self.subbag(other) and self != other

    def to_set(self) -> "Bag":
        out = Bag()
        out._freq = {e: 1 for e in self._freq}
        return out


def from_set(elements: Iterable[Any]) -> Bag:
    """Coerce a set to a bag: every element gets frequency 1."""
    return Bag(dict.fromkeys(elements))


def _arith_elements(bag: Bag) -> list[tuple[Any, int]]:
    out = []
    for e, n in bag.items():
        if e is NULL:
            continue
        if not is_number(e):
            raise EvalError(f"non-arithmetic element {e!r} in aggregate")
        out.append((e, n))
    return out


def bag_max(bag: Bag) -> Any:
    xs = _arith_elements(bag)
    if not xs:
        return NULL
    return max(e for e, _ in xs)


def bag_min(bag: Bag) -> Any:
    xs = _arith_elements(bag)
    if not xs:
        return NULL
    return min(e for e, _ in xs)


def bag_sum(bag: Bag) -> Any:
    xs = _arith_elements(bag)
    if not xs:
        return NULL
    return sum(e * n for e, n in xs)


def bag_avg(bag: Bag) -> Any:
    """Average of the non-NULL elements, exact."""
    xs = _arith_elements(bag)
    count = sum(n for _, n in xs)
    if not count:
        return NULL
    total = sum(Fraction(e) * n for e, n in xs)
    return total / count
