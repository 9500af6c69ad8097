"""The instance domain: everything that can sit in a table cell.

Cell values are plain Python numbers and strings, the NULL singleton,
booleans (wrapped, so they never collide with the integers 0/1 in a bag),
abstract entity instances, relationship instances, and grouped bags
produced by the grouping operator.  All of them are immutable and
hashable: tables are bags of tuples and tuples are bags keys.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


class _Null:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"


NULL = _Null()


@dataclass(frozen=True)
class Bool:
    """A boolean instance, distinct from the numbers 0 and 1."""

    value: bool

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = Bool(True)
FALSE = Bool(False)


@dataclass(frozen=True, eq=False, init=False)
class EntityInstance:
    """Surrogate for a non-value type instance.

    Identity is the root type plus the denotation tuple, and instances are
    interned: ``EntityInstance(root, key)`` returns the one live instance
    whose root and key equal these, so two surrogates are the same instance
    exactly when they are the same object.  The class keeps ``object``'s
    identity hash and equality, which dicts and row tuples compute without
    calling into Python.  An entity component of the key is itself interned,
    being built before its owner.  Keys are matched by value equality, so
    ``P(1)`` and ``P(Fraction(1))`` are one instance, holding the key it was
    first built with.
    """

    __slots__ = ("root", "key", "__weakref__")
    root: str
    key: tuple

    def __new__(cls, root: str, key: tuple):
        ident = (root, key)
        with _INTERN_LOCK:
            self = _INTERNED.get(ident)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "root", root)
                object.__setattr__(self, "key", key)
                _INTERNED[ident] = self
        return self

    def __reduce__(self):
        return EntityInstance, (self.root, self.key)

    def __repr__(self) -> str:
        inner = ", ".join(render_value(k) for k in self.key)
        return f"{self.root}({inner})"


# The live entity instances by (root, key); an instance leaves the table when
# nothing else refers to it.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class FactInstance:
    """A relationship instance: an immutable map from role ids to values."""

    __slots__ = ("_roles", "_hash")

    def __init__(self, roles: dict[str, Any]):
        self._roles = dict(roles)
        self._hash = hash(frozenset(self._roles.items()))

    def __getitem__(self, role: str) -> Any:
        return self._roles[role]

    def __contains__(self, role: str) -> bool:
        return role in self._roles

    def roles(self) -> dict[str, Any]:
        return dict(self._roles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactInstance) and self._roles == other._roles

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}: {render_value(v)}" for r, v in sorted(self._roles.items()))
        return "{" + inner + "}"


class GroupedBag:
    """A bag used as a single cell value, as produced by grouping."""

    __slots__ = ("bag", "_hash")

    def __init__(self, bag):
        self.bag = bag
        self._hash = hash(frozenset(bag.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupedBag) and self.bag == other.bag

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for elem, n in self.bag.items():
            parts.extend([render_value(elem)] * n)
        return "{" + ", ".join(parts) + "}"


_NUMBER_TYPES = frozenset({int, float, Fraction})
_ATOMIC_TYPES = _NUMBER_TYPES | {str, Bool}


def is_number(v: Any) -> bool:
    """Whether ``v`` is a number; tested on its exact type, so ``bool`` is
    not one."""
    return type(v) in _NUMBER_TYPES


def is_atomic(v: Any) -> bool:
    return type(v) in _ATOMIC_TYPES


def format_number(v) -> str:
    """Exact rendering: terminating decimals as decimals, otherwise a/b."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        den = v.denominator
        while den % 2 == 0:
            den //= 2
        while den % 5 == 0:
            den //= 5
        if den == 1:
            # terminating decimal
            digits = 0
            d = v.denominator
            while d % 2 == 0:
                d //= 2
                digits += 1
            d = v.denominator
            fives = 0
            while d % 5 == 0:
                d //= 5
                fives += 1
            digits = max(digits, fives)
            scaled = v * 10**digits
            text = str(scaled.numerator).rjust(digits + 1, "0")
            sign = ""
            if text.startswith("-"):
                sign, text = "-", text[1:].rjust(digits + 1, "0")
            return f"{sign}{text[:-digits]}.{text[-digits:]}"
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def render_value(v: Any) -> str:
    if v is NULL:
        return "NULL"
    if isinstance(v, str):
        return f"'{v}'"
    if is_number(v):
        return format_number(v)
    return repr(v)


def _number_key(v) -> tuple:
    return (0, v)


# Each kind's place in the order, by the exact type of the value
_SORT_KEYS = {
    int: _number_key,
    float: _number_key,
    Fraction: _number_key,
    str: lambda v: (1, v),
    Bool: lambda v: (2, v.value),
    EntityInstance: lambda v: (3, v.root, tuple(map(sort_key, v.key))),
    FactInstance: lambda v: (4, tuple((r, sort_key(x)) for r, x in sorted(v.roles().items()))),
    GroupedBag: lambda v: (5, tuple(sorted((sort_key(e), n) for e, n in v.bag.items()))),
    _Null: lambda v: (6,),
}


def sort_key(v: Any) -> tuple:
    """A total order over all values, for deterministic result ordering;
    NULL comes after every other value.  A number is kept as it is:
    ``int``, ``float`` and ``Fraction`` compare with each other exactly."""
    key = _SORT_KEYS.get(type(v))
    if key is None:
        raise TypeError(f"unorderable value {v!r}")
    return key(v)
