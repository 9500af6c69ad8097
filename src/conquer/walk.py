"""Field-driven walks over the dataclass trees of the package (path
expressions, parse records and relational-algebra plans), so that adding a
node kind needs no walker case."""

from __future__ import annotations

import functools
from dataclasses import fields, replace
from typing import Any


@functools.cache
def field_names(kind: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(kind))


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
