"""Field-driven walks over the dataclass trees of the package (path
expressions, parse records and relational-algebra plans), so that adding a
node kind needs no walker case, and the one structural key that path and
plan trees are hash-consed by."""

from __future__ import annotations

import functools
from dataclasses import fields, replace
from typing import Any


@functools.cache
def field_names(kind: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(kind))


def intern_key(kind: type, values, kinds: frozenset, ident=id) -> tuple:
    """The key of the node ``kind(*values)`` in an intern table: its kind,
    then each value, a child (a value of one of ``kinds``) by ``ident`` of
    it, the identity of its interned node, a tuple or list item by item, and
    any other value together with its exact type, so that ``2``, ``2.0``
    and ``Fraction(2)`` are three keys."""
    key = [kind]
    for v in values:
        # ``_part``'s cases, written out: this runs for every node built
        t = type(v)
        key.append(ident(v) if t in kinds else (t, v) if t is not tuple and t is not list else _part(v, kinds, ident))
    return tuple(key)


def _part(v: Any, kinds: frozenset, ident) -> Any:
    t = type(v)
    if t in kinds:
        return ident(v)
    if t is tuple or t is list:
        return tuple([_part(x, kinds, ident) for x in v])
    return t, v


def children(p: Any, kinds: frozenset) -> list:
    """The direct sub-nodes of ``p``, in field order: each field value of one
    of ``kinds``, whether it sits in the field itself, in a tuple field, or
    in a pair or triple inside a tuple field."""
    out = []
    for name in field_names(type(p)):
        v = getattr(p, name)
        if type(v) in kinds:
            out.append(v)
        elif type(v) is tuple:
            for x in v:
                if type(x) in kinds:
                    out.append(x)
                elif type(x) is tuple:
                    out.extend(y for y in x if type(y) in kinds)
    return out


def map_children(p: Any, f, *args, kinds: frozenset) -> Any:
    """``p`` with ``f(c, *args)`` in place of each child ``c`` found as
    ``children`` finds it, rebuilt with ``dataclasses.replace`` (so through
    the kind's own ``__init__``); ``p`` itself when ``f`` returns every
    child unchanged.  ``f`` is called straight from these loops, so a
    recursive ``f`` costs two stack frames per tree level."""
    changes = {}
    for name in field_names(type(p)):
        v = getattr(p, name)
        if type(v) in kinds:
            w = f(v, *args)
            if w is not v:
                changes[name] = w
        elif type(v) is tuple:
            items = []
            changed = False
            for x in v:
                if type(x) in kinds:
                    w = f(x, *args)
                    changed |= w is not x
                    x = w
                elif type(x) is tuple:
                    parts = []
                    for y in x:
                        if type(y) in kinds:
                            w = f(y, *args)
                            changed |= w is not y
                            y = w
                        parts.append(y)
                    x = tuple(parts)
                items.append(x)
            if changed:
                changes[name] = tuple(items)
    return replace(p, **changes) if changes else p
