"""The instance domain: everything that can sit in a table cell.

Cell values are plain Python numbers and strings, the NULL singleton,
booleans (wrapped, so they never collide with the integers 0/1 in a bag),
abstract entity instances, relationship instances, and grouped bags
produced by the grouping operator.  All of them are immutable and
hashable: tables are bags of tuples and tuples are bags keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def __hash__(self) -> int:
        return hash("conquer-null")


NULL = _Null()


@dataclass(frozen=True)
class Bool:
    """A boolean instance, distinct from the numbers 0 and 1."""

    value: bool

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = Bool(True)
FALSE = Bool(False)


@dataclass(frozen=True)
class EntityInstance:
    """Surrogate for a non-value type instance.

    Identity is the root type plus the denotation tuple: two surrogates are
    the same instance exactly when both components agree.  The hash is
    computed once, when the instance is built.
    """

    root: str
    key: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.root, self.key)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(render_value(k) for k in self.key)
        return f"{self.root}({inner})"


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


def is_number(v: Any) -> bool:
    return isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)


def is_atomic(v: Any) -> bool:
    return is_number(v) or isinstance(v, (str, Bool))


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


def render_value(v: Any, null_token: str = "NULL") -> str:
    if v is NULL:
        return null_token
    if isinstance(v, str):
        return f"'{v}'"
    if is_number(v):
        return format_number(v)
    return repr(v)


_KIND_RANK = {"number": 0, "string": 1, "bool": 2, "entity": 3, "fact": 4, "bag": 5, "null": 6}


def sort_key(v: Any) -> tuple:
    """A total order over all values, for deterministic result ordering.
    A number is kept as it is: ``int``, ``float`` and ``Fraction`` compare
    with each other exactly."""
    if v is NULL:
        return (_KIND_RANK["null"],)
    if is_number(v):
        return (_KIND_RANK["number"], v)
    if isinstance(v, str):
        return (_KIND_RANK["string"], v)
    if isinstance(v, Bool):
        return (_KIND_RANK["bool"], v.value)
    if isinstance(v, EntityInstance):
        return (_KIND_RANK["entity"], v.root, tuple(sort_key(k) for k in v.key))
    if isinstance(v, FactInstance):
        items = sorted(v.roles().items())
        return (_KIND_RANK["fact"], tuple((r, sort_key(x)) for r, x in items))
    if isinstance(v, GroupedBag):
        items = sorted(((sort_key(e), n) for e, n in v.bag.items()))
        return (_KIND_RANK["bag"], tuple(items))
    raise TypeError(f"unorderable value {v!r}")
