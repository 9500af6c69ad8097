"""SQL-92 style three-valued logic.

Truth values are Python ``True``, ``False`` and ``UNKNOWN`` (which is
``None``).  Conditions over NULLs evaluate to UNKNOWN; a filter keeps a row
only when the condition is exactly ``True`` (UNKNOWN counts as
insufficient proof).
"""

from __future__ import annotations

UNKNOWN = None

Tri = bool | None


def t_not(a: Tri) -> Tri:
    if a is UNKNOWN:
        return UNKNOWN
    return not a


def t_and(a: Tri, b: Tri) -> Tri:
    if a is False or b is False:
        return False
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return True


def t_or(a: Tri, b: Tri) -> Tri:
    if a is True or b is True:
        return True
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return False


def t_xor(a: Tri, b: Tri) -> Tri:
    if a is UNKNOWN or b is UNKNOWN:
        return UNKNOWN
    return a != b


def t_implies(a: Tri, b: Tri) -> Tri:
    return t_or(t_not(a), b)


def is_true(a: Tri) -> bool:
    """Filter semantics: UNKNOWN excludes."""
    return a is True
