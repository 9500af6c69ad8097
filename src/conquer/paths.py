"""Path expressions: the stored query IR and its compilation.

A path expression denotes a derived relation with two distinguished
columns, ``hd`` and ``tl``.  This module provides:

* the expression tree itself (plus its scalar, condition and denotation
  sub-families),
* typing inference for the variables occurring in a tree,
* the head/tail type analysis used for disambiguation (an empty result
  proves the expression evaluates empty on every population),
* the translation into relational algebra, including head/tail coercion
  through reference schemes, macro expansion, and the binder joins that
  tie free condition variables to their types,
* normalisation rewrites, derivation-rule application, constraint
  checking, and result ordering.

A node's children are its fields that hold one of ``PATH_KINDS``, as
``walk.children`` and ``walk.map_children`` find them, so adding a node
kind needs no walker case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Union as TUnion

from . import relalg as ra
from .bag import Bag
from .errors import EvalError, MacroError, SchemaError, TranslateError, TypingError
from .population import Population
from .schema import (
    ANY_VALUE_TYPE,
    BOOL_TYPE,
    FRESH_PREFIX,
    AttrName,
    FactRule,
    RoleId,
    Schema,
    TypeId,
)
from .values import NULL, TRUE, Bool, FactInstance, sort_key
from .walk import children, map_children

HD: AttrName = "hd"
TL: AttrName = "tl"


# ---------------------------------------------------------------------------
# the expression trees


@dataclass(frozen=True)
class Empty:
    """The empty path; it verbalises but never evaluates."""


@dataclass(frozen=True)
class TypeAtom:
    tid: TypeId


@dataclass(frozen=True)
class RoleEntry:
    rid: RoleId


@dataclass(frozen=True)
class AttrAtom:
    attr: AttrName


@dataclass(frozen=True)
class Reverse:
    of: "PathExpr"


@dataclass(frozen=True)
class Concat:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class Front:
    of: "PathExpr"


@dataclass(frozen=True)
class DistinctPath:
    of: "PathExpr"


@dataclass(frozen=True)
class Product:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class SetCompare:
    left: "PathExpr"
    op: str  # all_in (subset), includes_all (superset), match_all (equal)
    right: "PathExpr"


@dataclass(frozen=True)
class MissingPath:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class PathUnion:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class PathIntersect:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class PathDiff:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class FrontUnion:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class FrontIntersect:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class FrontDiff:
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class RelCompare:
    left: "PathExpr"
    op: str  # < <= = <> >= >
    right: "PathExpr"


@dataclass(frozen=True)
class Shuffle:
    of: "PathExpr"
    attrs: tuple

    def __init__(self, of, attrs):
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "attrs", tuple(attrs))


@dataclass(frozen=True)
class MixFix:
    first: RoleId
    middles: tuple  # (RoleId, PathExpr) pairs
    last: RoleId

    def __init__(self, first, middles, last):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "middles", tuple(middles))
        object.__setattr__(self, "last", last)

    @property
    def roles(self) -> tuple:
        return (self.first,) + tuple(r for r, _ in self.middles) + (self.last,)


@dataclass(frozen=True)
class FuncApp:
    func: str
    args: tuple

    def __init__(self, func, args):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Where:
    branches: tuple  # (PathExpr, PeCond) pairs
    default: Any  # PathExpr | None
    simple: bool = True

    def __init__(self, branches, default=None, simple=True):
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "simple", simple)


@dataclass(frozen=True)
class Confluence:
    elements: tuple  # (attr, PathExpr, attr) triples: name, gatherer, connection
    of: "PathExpr"

    def __init__(self, elements, of):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "of", of)


GROUP_KINDS = ("count", "dscount", "sum", "dssum", "min", "max", "avg")


@dataclass(frozen=True)
class GroupFn:
    kind: str
    of: "PathExpr"
    by: tuple
    target: Any  # AttrName | None; the counting kinds carry none

    def __init__(self, kind, of, by, target=None):
        if kind not in GROUP_KINDS:
            raise ValueError(f"unknown group function {kind!r}")
        if kind in ("count", "dscount") and target is not None:
            raise ValueError("counting group functions take no target attribute")
        if kind not in ("count", "dscount") and target is None:
            raise ValueError(f"group function {kind!r} needs a target attribute")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "of", of)
        object.__setattr__(self, "by", tuple(by))
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class SubExpr:
    items: tuple

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Denote:
    tid: TypeId
    den: "PeDenotation"


@dataclass(frozen=True)
class HdCoerce:
    of: "PathExpr"


@dataclass(frozen=True)
class TlCoerce:
    of: "PathExpr"


@dataclass(frozen=True)
class Scalar:
    expr: "PeScalar"


@dataclass(frozen=True)
class CondPath:
    cond: "PeCond"


# scalar sub-family

AGG_KINDS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class SConst:
    value: Any


@dataclass(frozen=True)
class SAgg:
    kind: str
    of: "PathExpr"


@dataclass(frozen=True)
class SVar:
    attr: AttrName


@dataclass(frozen=True)
class SVarRole:
    attr: AttrName
    role: RoleId


@dataclass(frozen=True)
class SApply:
    func: str
    args: tuple

    def __init__(self, func, args):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))


PeScalar = TUnion[SConst, SAgg, SVar, SVarRole, SApply]


# condition sub-family


@dataclass(frozen=True)
class CSome:
    of: "PathExpr"


@dataclass(frozen=True)
class CBagComp:
    left: "PathExpr"
    op: str  # sub subeq = <> supeq sup
    right: "PathExpr"


@dataclass(frozen=True)
class CLogic:
    left: "PeCond"
    op: str  # and or xor implies iff
    right: "PeCond"


@dataclass(frozen=True)
class CScalarComp:
    left: PeScalar
    op: str  # < <= = <> >= >
    right: PeScalar


@dataclass(frozen=True)
class CNot:
    of: "PeCond"


@dataclass(frozen=True)
class CExclusion:
    """Mutual exclusion of the front elements of two paths."""

    left: "PathExpr"
    right: "PathExpr"


PeCond = TUnion[CSome, CBagComp, CLogic, CScalarComp, CNot, CExclusion]


# denotations


@dataclass(frozen=True)
class ByPath:
    path: "PathExpr"


@dataclass(frozen=True)
class Abstract:
    attr: AttrName


@dataclass(frozen=True)
class Composite:
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))


PeDenotation = TUnion[ByPath, Abstract, Composite]

PathExpr = TUnion[
    Empty, TypeAtom, RoleEntry, AttrAtom, Reverse, Concat, Front, DistinctPath,
    Product, SetCompare, MissingPath, PathUnion, PathIntersect, PathDiff,
    FrontUnion, FrontIntersect, FrontDiff, RelCompare, Shuffle, MixFix,
    FuncApp, Where, Confluence, GroupFn, SubExpr, Denote, HdCoerce, TlCoerce,
    Scalar, CondPath,
]

Typing = frozenset  # of (AttrName, TypeId) pairs


@dataclass(frozen=True)
class OrderKey:
    attr: AttrName
    direction: str  # asc | desc


OrderSpec = tuple  # of OrderKey


def concat(*parts: PathExpr) -> PathExpr:
    """Right-nested concatenation of one or more paths."""
    if not parts:
        raise ValueError("concat of nothing")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Concat(p, out)
    return out


def role_exit(rid: RoleId) -> PathExpr:
    return Reverse(RoleEntry(rid))


# ---------------------------------------------------------------------------
# structural helpers


# every kind of node in a path-expression tree; a node's children are the
# field values of these kinds
PATH_KINDS = frozenset(
    PathExpr.__args__ + PeScalar.__args__ + PeCond.__args__ + PeDenotation.__args__
)


def attr_uses(p: Any) -> set[AttrName]:
    """Variable attributes used by an expression (binding positions).

    The structural columns hd and tl are not variables and never require
    binding.
    """
    out: set[AttrName] = set()

    def walk(node):
        if isinstance(node, AttrAtom):
            out.add(node.attr)
        elif isinstance(node, (SVar, SVarRole)):
            out.add(node.attr)
        elif isinstance(node, Denote) and isinstance(node.den, Abstract):
            out.add(node.den.attr)
        for c in children(node, PATH_KINDS):
            walk(c)

    walk(p)
    return out - {HD, TL}


def flatten_concat(p: PathExpr) -> list[PathExpr]:
    if isinstance(p, Concat):
        return flatten_concat(p.left) + flatten_concat(p.right)
    return [p]


def canonical(p: Any) -> Any:
    """Right-nest every concatenation chain; used for structural comparison."""
    if isinstance(p, Concat):
        parts = [canonical(x) for x in flatten_concat(p)]
        return concat(*parts)
    return map_children(p, canonical, kinds=PATH_KINDS)


# ---------------------------------------------------------------------------
# abbreviation expansion (mix-fix, sub-expressions, denotations)


def expand_mixfix(schema: Schema, m: MixFix) -> PathExpr:
    """A mix-fix connection is the role entry, a filter over the shared fact
    instances for each middle argument, and the exit through the last role."""
    parts: list[PathExpr] = [RoleEntry(m.first)]
    middle_terms = [
        DistinctPath(Front(Concat(role_exit(r), q))) for r, q in m.middles
    ]
    if middle_terms:
        term = middle_terms[0]
        for t in middle_terms[1:]:
            term = PathIntersect(term, t)
        parts.append(term)
    parts.append(role_exit(m.last))
    return concat(*parts)


def expand_subexpr(s: SubExpr) -> PathExpr:
    if not s.items:
        raise TranslateError("empty sub-expression")
    term: PathExpr = Front(s.items[0])
    for q in s.items[1:]:
        term = PathIntersect(term, Front(q))
    return DistinctPath(term)


def denotation_path(schema: Schema, den: PeDenotation, context: TypeId) -> PathExpr:
    if isinstance(den, ByPath):
        return den.path
    if isinstance(den, Abstract):
        return AttrAtom(den.attr)
    if isinstance(den, Composite):
        return expand_denote(schema, Denote(context, den))
    raise TranslateError(f"unknown denotation {den!r}")


def expand_denote(schema: Schema, d: Denote) -> PathExpr:
    x = d.tid
    schema.check_type(x)
    den = d.den
    if isinstance(den, Abstract):
        return Concat(TypeAtom(x), AttrAtom(den.attr))
    if schema.is_value(x):
        if isinstance(den, ByPath):
            return Concat(TypeAtom(x), den.path)
        raise TranslateError(f"value type {x!r} takes a single denotation")
    scheme = schema.idf.get(x)
    if scheme is None:
        raise TranslateError(f"type {x!r} has no reference scheme to denote through")
    parts = den.parts if isinstance(den, Composite) else (den,)
    if len(parts) != scheme.arity:
        raise TranslateError(
            f"denotation arity {len(parts)} does not match the reference scheme of {x!r} ({scheme.arity})"
        )
    filters: list[PathExpr] = []
    if scheme.kind == "pairs":
        for (p, q), part in zip(scheme.entries, parts):
            inner = expand_denote(schema, Denote(schema.player(q), part))
            filters.append(concat(RoleEntry(p), role_exit(q), inner))
    else:
        for p, part in zip(scheme.entries, parts):
            inner = denotation_path(schema, part, schema.player(p))
            filters.append(Concat(role_exit(p), inner))
    return Concat(TypeAtom(x), SubExpr(filters))


# ---------------------------------------------------------------------------
# typing inference


# the ends of a path, used for junction patterns
_TYPE, _ENTRY, _EXIT, _ATTR = "type", "entry", "exit", "attr"


def _flip(end: tuple) -> tuple:
    kind, payload = end
    if kind == _ENTRY:
        return (_EXIT, payload)
    if kind == _EXIT:
        return (_ENTRY, payload)
    return end


def _first_atoms(p: PathExpr) -> set:
    if isinstance(p, TypeAtom):
        return {(_TYPE, p.tid)}
    if isinstance(p, RoleEntry):
        return {(_ENTRY, p.rid)}
    if isinstance(p, AttrAtom):
        return {(_ATTR, p.attr)}
    if isinstance(p, Reverse):
        return {_flip(e) for e in _last_atoms(p.of)}
    if isinstance(p, Concat):
        return _first_atoms(p.left)
    if isinstance(p, (Front, DistinctPath, Where, HdCoerce, TlCoerce)):
        if isinstance(p, Where):
            out = set()
            for body, _ in p.branches:
                out |= _first_atoms(body)
            if p.default is not None:
                out |= _first_atoms(p.default)
            return out
        return _first_atoms(p.of)
    if isinstance(p, (Product, MissingPath, SetCompare, RelCompare)):
        return _first_atoms(p.left)
    if isinstance(p, (PathUnion, PathIntersect, FrontUnion, FrontIntersect)):
        return _first_atoms(p.left) | _first_atoms(p.right)
    if isinstance(p, (PathDiff, FrontDiff)):
        return _first_atoms(p.left)
    if isinstance(p, Shuffle):
        return {(_ATTR, p.attrs[0])}
    if isinstance(p, MixFix):
        return {(_ENTRY, p.first)}
    if isinstance(p, SubExpr):
        out = set()
        for q in p.items:
            out |= _first_atoms(q)
        return out
    if isinstance(p, Denote):
        return {(_TYPE, p.tid)}
    if isinstance(p, Confluence):
        return _first_atoms(p.of)
    return set()


def _last_atoms(p: PathExpr) -> set:
    if isinstance(p, (TypeAtom, RoleEntry, AttrAtom)):
        return _first_atoms(p)
    if isinstance(p, Reverse):
        return {_flip(e) for e in _first_atoms(p.of)}
    if isinstance(p, Concat):
        return _last_atoms(p.right)
    if isinstance(p, (DistinctPath, Where, HdCoerce, TlCoerce)):
        if isinstance(p, Where):
            out = set()
            for body, _ in p.branches:
                out |= _last_atoms(body)
            if p.default is not None:
                out |= _last_atoms(p.default)
            return out
        return _last_atoms(p.of)
    if isinstance(p, Front):
        return _first_atoms(p.of)
    if isinstance(p, Product):
        return _first_atoms(p.right)
    if isinstance(p, SetCompare):
        return _last_atoms(p.left)
    if isinstance(p, (MissingPath, RelCompare)):
        return _last_atoms(p.right)
    if isinstance(p, (PathUnion, PathIntersect)):
        return _last_atoms(p.left) | _last_atoms(p.right)
    if isinstance(p, PathDiff):
        return _last_atoms(p.left)
    if isinstance(p, (FrontUnion, FrontIntersect)):
        return _first_atoms(p.left) | _first_atoms(p.right)
    if isinstance(p, FrontDiff):
        return _first_atoms(p.left)
    if isinstance(p, Shuffle):
        return {(_ATTR, p.attrs[-1])}
    if isinstance(p, MixFix):
        return {(_EXIT, p.last)}
    if isinstance(p, SubExpr):
        out = set()
        for q in p.items:
            out |= _first_atoms(q)
        return out
    if isinstance(p, Denote):
        return {(_TYPE, p.tid)}
    if isinstance(p, Confluence):
        return _last_atoms(p.of)
    return set()


def _junction_pairs(schema: Schema, left: tuple, right: tuple) -> set:
    lk, lp = left
    rk, rp = right
    pairs = set()
    if lk == _TYPE and rk == _ATTR:
        pairs.add((rp, lp))
    elif lk == _ATTR and rk == _TYPE:
        pairs.add((lp, rp))
    elif lk == _ENTRY and rk == _ATTR:
        pairs.add((rp, schema.rel(lp)))
    elif lk == _ATTR and rk == _ENTRY:
        pairs.add((lp, schema.player(rp)))
    elif lk == _EXIT and rk == _ATTR:
        pairs.add((rp, schema.player(lp)))
    elif lk == _ATTR and rk == _EXIT:
        pairs.add((lp, schema.rel(rp)))
    return pairs


def typing_pairs(schema: Schema, p: Any) -> set:
    """Scan the tree for the binding patterns relating variables to types."""
    out: set = set()

    def scan(node):
        if isinstance(node, Concat):
            for le in _last_atoms(node.left):
                for re in _first_atoms(node.right):
                    out.update(_junction_pairs(schema, le, re))
        if isinstance(node, MixFix):
            for r, q in node.middles:
                for re in _first_atoms(q):
                    out.update(_junction_pairs(schema, (_EXIT, r), re))
        if isinstance(node, Denote):
            out.update(typing_pairs(schema, expand_denote(schema, node)))
            return  # the expansion covers the nested denotations
        for c in children(node, PATH_KINDS):
            scan(c)

    scan(p)
    return out


def infer_typing(schema: Schema, p: Any, extra: Iterable = ()) -> Typing:
    """Derive the typing relation of an expression and check it.

    Raises when a variable is typed by unrelated types or not typed at all.
    """
    pairs = set(typing_pairs(schema, p)) | set(extra)
    by_attr: dict[AttrName, set[TypeId]] = {}
    for a, x in pairs:
        by_attr.setdefault(a, set()).add(x)
    for a in sorted(by_attr):
        types = sorted(by_attr[a])
        for i, x in enumerate(types):
            for y in types[i + 1:]:
                if not schema.type_related(x, y):
                    raise TypingError(
                        f"incompatible variable typing: {a!r} is both {x!r} and {y!r}"
                    )
    untyped = sorted(attr_uses(p) - set(by_attr))
    if untyped:
        raise TypingError(f"untypable variables: {', '.join(repr(a) for a in untyped)}")
    return frozenset(pairs)


def attr_types(typing: Typing, a: AttrName) -> set[TypeId]:
    return {x for b, x in typing if b == a}


# ---------------------------------------------------------------------------
# head/tail combinations


def _related_pairs(schema: Schema, x: TypeId) -> set:
    rel = schema.related_to(x)
    return {(u, v) for u in rel for v in rel}


def _diag(pairs: set) -> set:
    return {(u, u) for (u, _) in pairs}


def _compose(a: set, b: set) -> set:
    heads: dict = {}
    for u, v in a:
        heads.setdefault(v, set()).add(u)
    out = set()
    for v, w in b:
        for u in heads.get(v, ()):
            out.add((u, w))
    return out


def _scalar_result_types(schema: Schema, e: PeScalar, typing: Typing) -> set[TypeId]:
    if isinstance(e, SConst) and isinstance(e.value, Bool):
        return {BOOL_TYPE}
    if isinstance(e, SVar):
        return attr_types(typing, e.attr) or {ANY_VALUE_TYPE}
    if isinstance(e, SVarRole):
        try:
            return {schema.player(e.role)}
        except SchemaError:  # an unknown role
            pass
    return {ANY_VALUE_TYPE}


def head_tail_combos(schema: Schema, p: Any, typing: Typing, memo: dict | None = None) -> set:
    """All possible (start type, end type) pairs; empty means the expression
    is structurally empty.  ``memo`` maps the id of each sub-expression
    already worked out, under this schema and typing, to the sub-expression
    and its pairs; holding the sub-expression keeps a temporary expansion
    alive, so that its id is not reused."""
    if memo is None:
        memo = {}
    hit = memo.get(id(p))
    if hit is not None:
        return hit[1]

    def L(q):
        out = head_tail_combos(schema, q, typing, memo)
        memo[id(q)] = (q, out)
        return out

    if isinstance(p, Empty):
        tids = list(schema.types)
        return {(u, v) for u in tids for v in tids}
    if isinstance(p, TypeAtom):
        return _related_pairs(schema, p.tid)
    if isinstance(p, RoleEntry):
        return {
            (u, v)
            for u in schema.related_to(schema.player(p.rid))
            for v in schema.related_to(schema.rel(p.rid))
        }
    if isinstance(p, AttrAtom):
        out = set()
        for x in attr_types(typing, p.attr):
            out |= _related_pairs(schema, x)
        return out
    if isinstance(p, Reverse):
        return {(v, u) for (u, v) in L(p.of)}
    if isinstance(p, Concat):
        return _compose(L(p.left), L(p.right))
    if isinstance(p, Front):
        return _diag(L(p.of))
    if isinstance(p, DistinctPath):
        return L(p.of)
    if isinstance(p, Product):
        # the product takes the right operand's heads as its tail
        lp, rp = L(p.left), L(p.right)
        if not lp or not rp:
            return set()
        return {(u, x) for (u, _) in lp for (x, _) in rp}
    if isinstance(p, SetCompare):
        lp, rp = L(p.left), L(p.right)
        if p.op == "includes_all":
            # an empty right side satisfies the inclusion vacuously, so the
            # left side cannot be pruned by type analysis
            return lp
        chain = {v for (_, v) in lp} & {u for (u, _) in rp}
        return {(u, v) for (u, v) in lp if v in chain}
    if isinstance(p, MissingPath):
        lp, rp = L(p.left), L(p.right)
        if not lp or not rp:
            return set()
        return {(u, x) for (u, _) in lp for (_, x) in rp}
    if isinstance(p, PathUnion):
        return L(p.left) | L(p.right)
    if isinstance(p, PathIntersect):
        return L(p.left) & L(p.right)
    if isinstance(p, PathDiff):
        return L(p.left)
    if isinstance(p, (FrontUnion, FrontIntersect, FrontDiff)):
        fl, fr = _diag(L(p.left)), _diag(L(p.right))
        if isinstance(p, FrontUnion):
            return fl | fr
        if isinstance(p, FrontIntersect):
            return fl & fr
        return fl
    if isinstance(p, RelCompare):
        lp, rp = L(p.left), L(p.right)
        if p.op == "=":
            # equality can only hold between instances of related types
            if not ({v for (_, v) in lp} & {u for (u, _) in rp}):
                return set()
        return {(u, w) for (u, _) in lp for (_, w) in rp}
    if isinstance(p, Shuffle):
        first = attr_types(typing, p.attrs[0])
        last = attr_types(typing, p.attrs[-1])
        out = set()
        for x in first:
            for y in last:
                out |= {(u, v) for u in schema.related_to(x) for v in schema.related_to(y)}
        return out
    if isinstance(p, MixFix):
        return L(expand_mixfix(schema, p))
    if isinstance(p, FuncApp):
        if any(not L(q) for q in p.args):
            return set()
        return _related_pairs(schema, ANY_VALUE_TYPE)
    if isinstance(p, Where):
        out = set()
        for body, _ in p.branches:
            out |= L(body)
        if p.default is not None:
            out |= L(p.default)
        return out
    if isinstance(p, Confluence):
        return L(p.of)
    if isinstance(p, GroupFn):
        if p.kind in ("count", "dscount") or p.target in (HD, TL) or p.target is None:
            return _related_pairs(schema, ANY_VALUE_TYPE)
        out = set()
        for x in attr_types(typing, p.target):
            out |= _related_pairs(schema, x)
        return out or _related_pairs(schema, ANY_VALUE_TYPE)
    if isinstance(p, SubExpr):
        return L(expand_subexpr(p))
    if isinstance(p, Denote):
        return L(expand_denote(schema, p))
    if isinstance(p, (HdCoerce, TlCoerce)):
        return L(_expand_coerce(schema, p, typing))
    if isinstance(p, Scalar):
        out = set()
        for r in _scalar_result_types(schema, p.expr, typing):
            out |= _related_pairs(schema, r)
        return out
    if isinstance(p, CondPath):
        return _related_pairs(schema, BOOL_TYPE)
    raise TranslateError(f"no head/tail rule for {p!r}")


# every path kind but ``Empty``; a set lookup of a node's type is much
# faster than ``isinstance`` against the 29 classes
_CHECKED_PATHS = frozenset(PathExpr.__args__) - {Empty}


def has_empty_subpath(schema: Schema, p: Any, typing: Typing, memo: dict | None = None) -> bool:
    """True when the expression or any path inside it is structurally empty.
    One ``head_tail_combos`` memo serves the whole walk, so each
    sub-expression's pairs are worked out once."""
    if memo is None:
        memo = {}
    if type(p) in _CHECKED_PATHS:
        if not head_tail_combos(schema, p, typing, memo):
            return True
    return any(has_empty_subpath(schema, c, typing, memo) for c in children(p, PATH_KINDS))


def _expand_coerce(schema: Schema, p: PathExpr, typing: Typing) -> PathExpr:
    at_head = isinstance(p, HdCoerce)
    inner = p.of
    while True:
        combos = head_tail_combos(schema, inner, typing)
        ends = {u for (u, _) in combos} if at_head else {v for (_, v) in combos}
        if len(ends) != 1:
            return inner
        (x,) = ends
        if schema.is_value(x):
            return inner
        scheme = schema.idf.get(x)
        if scheme is None or scheme.kind != "pairs" or len(scheme.entries) != 1:
            return inner
        r, s = scheme.entries[0]
        if at_head:
            inner = concat(RoleEntry(s), role_exit(r), inner)
        else:
            inner = concat(inner, RoleEntry(r), role_exit(s))


def hd_coerce(schema: Schema, p: PathExpr, typing: Typing) -> PathExpr:
    """Prepend reference-scheme hops while the head is a simply identified
    entity type, so the path starts at the identifying value."""
    return _expand_coerce(schema, HdCoerce(p), typing)


def tl_coerce(schema: Schema, p: PathExpr, typing: Typing) -> PathExpr:
    return _expand_coerce(schema, TlCoerce(p), typing)


# ---------------------------------------------------------------------------
# translation to relational algebra


def bind_attr(schema: Schema, typing: Typing, a: AttrName) -> ra.RelExpr:
    """A one-column relation ranging over the root types of an attribute."""
    types = attr_types(typing, a)
    if not types:
        raise TranslateError(f"untyped attribute {a!r}")
    roots: list[TypeId] = []
    for x in sorted(types):
        for y in sorted(schema.roots_of(x)):
            if y not in roots:
                roots.append(y)
    expr: ra.RelExpr = ra.TypeTable(a, roots[0])
    for y in roots[1:]:
        expr = ra.Union(expr, ra.TypeTable(a, y))
    return expr


def bind(schema: Schema, typing: Typing) -> dict[AttrName, ra.RelExpr]:
    return {a: bind_attr(schema, typing, a) for a in sorted({b for b, _ in typing})}


class Translator:
    def __init__(self, schema: Schema, typing: Typing):
        self.schema = schema
        self.typing = typing
        self._counter = itertools.count(1)

    def fresh(self) -> AttrName:
        return f"{FRESH_PREFIX}{next(self._counter)}"

    # -- paths --------------------------------------------------------

    def path(self, p: PathExpr, B: frozenset) -> ra.RelExpr:
        schema = self.schema
        if isinstance(p, Empty):
            raise TranslateError("the empty path cannot be evaluated")
        if isinstance(p, TypeAtom):
            schema.check_type(p.tid)
            a = self.fresh()
            return ra.Project({HD: ra.Attr(a), TL: ra.Attr(a)}, ra.TypeTable(a, p.tid))
        if isinstance(p, RoleEntry):
            a = self.fresh()
            return ra.Project(
                {HD: ra.AttrRole(a, p.rid), TL: ra.Attr(a)},
                ra.TypeTable(a, schema.rel(p.rid)),
            )
        if isinstance(p, AttrAtom):
            return self.path(Scalar(SVar(p.attr)), B)
        if isinstance(p, Reverse):
            return ra.Rename({HD: TL, TL: HD}, self.path(p.of, B))
        if isinstance(p, Concat):
            a = self.fresh()
            left = ra.Rename({a: TL}, self.path(p.left, B))
            right = ra.Rename({a: HD}, self.path(p.right, B))
            return ra.DropAttrs({a}, ra.Join(left, right))
        if isinstance(p, Front):
            return ra.Extend({TL: ra.Attr(HD)}, self.path(p.of, B))
        if isinstance(p, DistinctPath):
            return ra.Distinct(self.path(p.of, B))
        if isinstance(p, Product):
            lp = self.path(p.left, B)
            rp = self.path(p.right, B)
            target = ra.sch(lp) | ra.sch(rp)
            joined = ra.Join(
                ra.DropAttrs({TL}, lp),
                ra.DropAttrs({HD}, ra.Rename({TL: HD}, rp)),
            )
            return ra.Project(ra.def_map(sorted(target)), joined)
        if isinstance(p, SetCompare):
            return self._set_compare(p, B)
        if isinstance(p, MissingPath):
            lp = self.path(p.left, B)
            rp = self.path(p.right, B)
            pairs = ra.Join(ra.DropAttrs({TL}, lp), ra.DropAttrs({HD}, rp))
            return ra.Diff(pairs, self.path(Concat(p.left, p.right), B))
        if isinstance(p, (PathUnion, PathIntersect, PathDiff)):
            return self._path_set_op(p, B)
        if isinstance(p, FrontUnion):
            return self.path(PathUnion(Front(p.left), Front(p.right)), B)
        if isinstance(p, FrontIntersect):
            return self.path(PathIntersect(Front(p.left), Front(p.right)), B)
        if isinstance(p, FrontDiff):
            return self.path(PathDiff(Front(p.left), Front(p.right)), B)
        if isinstance(p, RelCompare):
            a, b = self.fresh(), self.fresh()
            lp = ra.Rename({a: TL}, self.path(p.left, B))
            rp = ra.Rename({b: HD}, self.path(p.right, B))
            selected = ra.Select(ra.Compare(ra.Attr(a), p.op, ra.Attr(b)), ra.Join(lp, rp))
            target = (ra.sch(lp) - {a}) | {TL} | (ra.sch(rp) - {b}) | {HD}
            return ra.Project(ra.def_map(sorted(target)), selected)
        if isinstance(p, Shuffle):
            if len(p.attrs) < 2:
                raise TranslateError("a path shuffle needs at least two attributes")
            inner = self.path(p.of, B - set(p.attrs))
            missing = set(p.attrs) - ra.sch(inner)
            if missing:
                raise TranslateError(f"shuffle attributes not in operand header: {sorted(missing)}")
            projected = ra.Project(ra.def_map(p.attrs), inner)
            return ra.Rename({HD: p.attrs[0], TL: p.attrs[-1]}, projected)
        if isinstance(p, MixFix):
            return self.path(expand_mixfix(self.schema, p), B)
        if isinstance(p, FuncApp):
            return self._func_app(p, B)
        if isinstance(p, Where):
            return self._where(p, B)
        if isinstance(p, Confluence):
            return self._confluence(p, B)
        if isinstance(p, GroupFn):
            return self._group_fn(p, B)
        if isinstance(p, SubExpr):
            return self.path(expand_subexpr(p), B)
        if isinstance(p, Denote):
            return self.path(expand_denote(self.schema, p), B)
        if isinstance(p, (HdCoerce, TlCoerce)):
            return self.path(_expand_coerce(self.schema, p, self.typing), B)
        if isinstance(p, Scalar):
            return self._scalar_path(p.expr, B)
        if isinstance(p, CondPath):
            true_path = Scalar(SConst(TRUE))
            return self._where(Where([(true_path, p.cond)], None, True), B)
        raise TranslateError(f"cannot translate {p!r}")

    def _set_compare(self, p: SetCompare, B: frozenset) -> ra.RelExpr:
        a, b = self.fresh(), self.fresh()
        lp = self.path(p.left, B)
        rp = self.path(p.right, B)
        tails_of_head = ra.Project(
            {b: ra.Attr(TL)}, ra.Select(ra.Compare(ra.Attr(HD), "=", ra.Attr(a)), lp)
        )
        heads_of_right = ra.Project({b: ra.Attr(HD)}, rp)
        op = {"all_in": "subeq", "includes_all": "supeq", "match_all": "="}[p.op]
        cond = ra.BagCompare(tails_of_head, op, heads_of_right)
        selected = ra.Select(cond, ra.Extend({a: ra.Attr(HD)}, lp))
        return ra.Project(ra.def_map(sorted(ra.sch(lp))), selected)

    def _path_set_op(self, p, B: frozenset) -> ra.RelExpr:
        op = {PathUnion: ra.Union, PathIntersect: ra.Intersect, PathDiff: ra.Diff}[type(p)]
        return _set_op(op, self.path(p.left, B), self.path(p.right, B))

    def _func_app(self, p: FuncApp, B: frozenset) -> ra.RelExpr:
        if not p.args:
            raise TranslateError("function application needs arguments")
        attrs = [self.fresh() for _ in p.args]
        terms = []
        for i, (q, a) in enumerate(zip(p.args, attrs)):
            pq = self.path(q, B)
            if i < len(p.args) - 1:
                pq = ra.DropAttrs({TL}, pq)
            terms.append(ra.Rename({a: HD}, pq))
        joined = terms[0]
        for t in terms[1:]:
            joined = ra.Join(joined, t)
        applied = ra.Extend({HD: ra.Apply(p.func, [ra.Attr(a) for a in attrs])}, joined)
        return ra.DropAttrs(set(attrs), applied)

    def _where_one(self, body: PathExpr, cond: PeCond, B: frozenset) -> ra.RelExpr:
        cond_attrs = attr_uses(cond)
        inner = self.path(body, B)
        joined = inner
        for v in sorted(cond_attrs - B - ra.sch(inner)):
            joined = ra.Join(joined, bind_attr(self.schema, self.typing, v))
        compiled = self.cond(cond, B | cond_attrs | ra.sch(joined))
        return ra.Select(compiled, joined)

    def _where(self, p: Where, B: frozenset) -> ra.RelExpr:
        branches = list(p.branches)
        if not branches:
            raise TranslateError("selection without branches")
        parts: list[ra.RelExpr] = [self._where_one(body, c, B) for body, c in branches]
        if p.default is not None:
            negated = CNot(branches[0][1])
            for _, c in branches[1:]:
                negated = CLogic(negated, "and", CNot(c))
            parts.append(self._where_one(p.default, negated, B))
        out = parts[0]
        for nxt in parts[1:]:
            out = _set_op(ra.Union, out, nxt)
        return out

    def _confluence(self, p: Confluence, B: frozenset) -> ra.RelExpr:
        base = self.path(p.of, B)
        base_sch = ra.sch(base)
        joined = base
        names = []
        for a, q, x in p.elements:
            if x not in base_sch:
                raise TranslateError(f"confluence connection attribute {x!r} not in base header")
            arm = ra.Rename({a: HD, x: TL}, self.path(q, B))
            joined = ra.Join(joined, arm)
            names.append(a)
        target = sorted(base_sch | set(names))
        return ra.Project(ra.def_map(target), joined)

    def _group_fn(self, p: GroupFn, B: frozenset) -> ra.RelExpr:
        inner = self.path(p.of, B)
        header = ra.sch(inner)
        missing = set(p.by) - header
        if missing:
            raise TranslateError(f"grouping attributes not in header: {sorted(missing)}")
        kind = p.kind
        if kind in ("count", "dscount"):
            if kind == "dscount":
                inner = ra.Distinct(inner)
            marker = self.fresh()
            grouped = ra.Group(set(p.by), ra.Extend({marker: ra.Const(1)}, inner))
            value: ra.RaScalar = ra.Apply("bag_count", [ra.Attr(marker)])
        else:
            target = p.target
            if target not in header:
                raise TranslateError(f"group target attribute {target!r} not in header")
            if target in p.by:
                raise TranslateError(f"group target attribute {target!r} is a grouping attribute")
            grouped = ra.Group(set(p.by), inner)
            arg: ra.RaScalar = ra.Attr(target)
            if kind == "dssum":
                kind, arg = "sum", ra.Apply("bag_distinct", [arg])
            value = ra.Apply(f"bag_{kind}", [arg])
        a = self.fresh()
        return ra.Project({HD: ra.Attr(a), TL: ra.Attr(a)}, ra.Project({a: value}, grouped))

    def _scalar_path(self, e: PeScalar, B: frozenset) -> ra.RelExpr:
        free = attr_uses(e) - B
        if not free:
            table: ra.RelExpr = ra.ScalarTable(HD, self.scalar(e, B))
            return ra.Extend({TL: ra.Attr(HD)}, table)
        joined: ra.RelExpr | None = None
        for a in sorted(free):
            binder = bind_attr(self.schema, self.typing, a)
            joined = binder if joined is None else ra.Join(joined, binder)
        extended = ra.Extend({HD: self.scalar(e, B | free)}, joined)
        return ra.Extend({TL: ra.Attr(HD)}, extended)

    # -- scalars --------------------------------------------------------

    def scalar(self, e: PeScalar, B: frozenset) -> ra.RaScalar:
        if isinstance(e, SConst):
            return ra.Const(e.value)
        if isinstance(e, SAgg):
            inner = self.path(_agg_operand(self.schema, e, self.typing), B)
            return ra.Aggregate(e.kind, inner, None if e.kind == "count" else HD)
        if isinstance(e, SVar):
            return ra.Attr(e.attr)
        if isinstance(e, SVarRole):
            types = attr_types(self.typing, e.attr)
            if types and not any(self.schema.is_relationship(x) for x in types):
                raise TranslateError(
                    f"role access {e.attr!r}.{e.role!r} on a non-relationship variable"
                )
            return ra.AttrRole(e.attr, e.role)
        if isinstance(e, SApply):
            return ra.Apply(e.func, [self.scalar(x, B) for x in e.args])
        raise TranslateError(f"cannot translate scalar {e!r}")

    # -- conditions -----------------------------------------------------

    def cond(self, c: PeCond, B: frozenset) -> ra.RaCond:
        if isinstance(c, CSome):
            inner = self.path(c.of, B)
            return ra.Compare(ra.Aggregate("count", inner), ">", ra.Const(0))
        if isinstance(c, CBagComp):
            lp = ra.Project({HD: ra.Attr(HD)}, self.path(c.left, B))
            rp = ra.Project({HD: ra.Attr(HD)}, self.path(c.right, B))
            return ra.BagCompare(lp, c.op, rp)
        if isinstance(c, CLogic):
            if c.op == "iff":
                return self.cond(
                    CLogic(CLogic(c.left, "implies", c.right), "and", CLogic(c.right, "implies", c.left)),
                    B,
                )
            return ra.Connect(self.cond(c.left, B), c.op, self.cond(c.right, B))
        if isinstance(c, CScalarComp):
            return ra.Compare(self.scalar(c.left, B), c.op, self.scalar(c.right, B))
        if isinstance(c, CNot):
            return ra.Not(self.cond(c.of, B))
        if isinstance(c, CExclusion):
            return self.cond(CNot(CSome(FrontIntersect(c.left, c.right))), B)
        raise TranslateError(f"cannot translate condition {c!r}")


def _set_op(op, lp: ra.RelExpr, rp: ra.RelExpr) -> ra.RelExpr:
    """Union, intersection or difference (``op`` is the RA node class) of
    two relations on their common attributes, joined back to the distinct
    rows of each operand for the rest: outer joins for a union, and only the
    left operand for a difference."""
    common = ra.def_map(sorted(ra.sch(lp) & ra.sch(rp)))
    core = op(ra.Project(common, lp), ra.Project(common, rp))
    if op is ra.Diff:
        return ra.Join(core, ra.Distinct(lp))
    join = ra.LeftJoin if op is ra.Union else ra.Join
    return join(join(core, ra.Distinct(lp)), ra.Distinct(rp))


def _agg_operand(schema: Schema, e: SAgg, typing: Typing) -> PathExpr:
    # aggregates read the head column, so coerce simply identified entity
    # heads down to their identifying values
    return hd_coerce(schema, e.of, typing)


def translate(schema: Schema, p: PathExpr, typing: Typing, bound: Iterable[AttrName] = ()) -> ra.RelExpr:
    return Translator(schema, typing).path(p, frozenset(bound))


# ---------------------------------------------------------------------------
# normalisation


def normalise(schema: Schema, p: Any) -> Any:
    """Bottom-up rewriting to a fixpoint.

    Rewrites: role-entry/fact-type/role-exit windows into binary mix-fix
    connections, value-type/scalar adjacency into denotations, and
    front-projected set operations into their fused operators.  A type
    between the roles that merely relates to the fact type is left alone,
    because dropping it would change the semantics.
    """
    while True:
        q = _normalise_once(p, schema)
        if q == p:
            return q
        p = q


def _normalise_once(p: Any, schema: Schema) -> Any:
    p = map_children(p, _normalise_once, schema, kinds=PATH_KINDS)
    if isinstance(p, Concat):
        parts = flatten_concat(p)
        parts = _rewrite_windows(schema, parts)
        p = concat(*parts)
    if isinstance(p, PathUnion) and isinstance(p.left, Front) and isinstance(p.right, Front):
        return FrontUnion(p.left.of, p.right.of)
    if isinstance(p, PathIntersect) and isinstance(p.left, Front) and isinstance(p.right, Front):
        return FrontIntersect(p.left.of, p.right.of)
    if isinstance(p, PathDiff) and isinstance(p.left, Front) and isinstance(p.right, Front):
        return FrontDiff(p.left.of, p.right.of)
    return p


def _is_role_exit(p: Any) -> bool:
    return isinstance(p, Reverse) and isinstance(p.of, RoleEntry)


def _rewrite_windows(schema: Schema, parts: list) -> list:
    out: list = []
    i = 0
    while i < len(parts):
        a = parts[i]
        b = parts[i + 1] if i + 1 < len(parts) else None
        c = parts[i + 2] if i + 2 < len(parts) else None
        # role entry, the fact type itself, role exit
        if (
            isinstance(a, RoleEntry)
            and isinstance(b, TypeAtom)
            and _is_role_exit(c)
            and schema.rel(a.rid) == b.tid
            and schema.rel(c.of.rid) == b.tid
        ):
            out.append(MixFix(a.rid, (), c.of.rid))
            i += 3
            continue
        # role entry directly followed by role exit of the same fact type
        if (
            isinstance(a, RoleEntry)
            and _is_role_exit(b)
            and schema.rel(a.rid) == schema.rel(b.of.rid)
        ):
            out.append(MixFix(a.rid, (), b.of.rid))
            i += 2
            continue
        # value type followed by a scalar becomes a denotation
        if (
            isinstance(a, TypeAtom)
            and schema.is_value(a.tid)
            and isinstance(b, Scalar)
            and not isinstance(b.expr, SVar)
        ):
            out.append(Denote(a.tid, ByPath(b)))
            i += 2
            continue
        out.append(a)
        i += 1
    return out


# ---------------------------------------------------------------------------
# derivation rules


def _referenced_types(schema: Schema, p: Any) -> set[TypeId]:
    out: set[TypeId] = set()

    def walk(node):
        if isinstance(node, TypeAtom):
            out.add(node.tid)
        elif isinstance(node, RoleEntry):
            out.add(schema.rel(node.rid))
            out.add(schema.player(node.rid))
        elif isinstance(node, MixFix):
            for r in node.roles:
                out.add(schema.rel(r))
                out.add(schema.player(r))
        elif isinstance(node, Denote):
            out.add(node.tid)
        for c in children(node, PATH_KINDS):
            walk(c)

    walk(p)
    return out


def apply_derivations(schema: Schema, pop: Population) -> Population:
    """Evaluate every derivation rule in dependency order and return the
    population extended with the derived types.  Base populations are left
    untouched."""
    rules = list(schema.derivations)
    if not rules:
        return pop
    defined = {r.defines: r for r in rules}
    order: list = []
    state: dict[TypeId, str] = {}

    def visit(tid: TypeId):
        if state.get(tid) == "done":
            return
        if state.get(tid) == "busy":
            raise EvalError("cyclic derivation rules")
        state[tid] = "busy"
        rule = defined[tid]
        for dep in sorted(_referenced_types(schema, rule.body)):
            if dep in defined and dep != tid:
                visit(dep)
            elif dep == tid:
                raise EvalError("cyclic derivation rules")
        state[tid] = "done"
        order.append(rule)

    for tid in sorted(defined):
        visit(tid)

    current = Population(pop.schema, {t: pop.instances(t) for t in pop.types()})
    for rule in order:
        if isinstance(rule, FactRule):
            extra = [(a, schema.player(r)) for r, a in rule.role_attrs]
            typing = infer_typing(schema, rule.body, extra)
            body = translate(schema, rule.body, typing)
            projected = ra.Project({r: ra.Attr(a) for r, a in rule.role_attrs}, body)
            relation = ra.evaluate(projected, current)
            facts = Bag.from_counts((FactInstance(dict(zip(relation.header, u))), n) for u, n in relation.rows())
            current = current.with_population(rule.rel, facts)
        else:
            typing = infer_typing(schema, rule.body)
            body = translate(schema, rule.body, typing)
            relation = ra.evaluate(body, current)
            i = relation.header.index(HD)
            heads = Bag.from_counts((u[i], n) for u, n in relation.rows()).to_set()
            current = current.with_population(rule.tid, heads)
    return current


# ---------------------------------------------------------------------------
# constraints


def check_constraint(schema: Schema, p: PathExpr, pop: Population) -> bool:
    typing = infer_typing(schema, p)
    expr = translate(schema, p, typing)
    return bool(ra.evaluate(expr, pop).body)


# ---------------------------------------------------------------------------
# ordering


def order_result(relation: ra.Relation, spec: Iterable[OrderKey]) -> list[tuple]:
    spec = list(spec)
    for key in spec:
        if key.attr not in relation.header:
            raise EvalError(f"unknown order attribute {key.attr!r}")
    rows: list[tuple] = []
    for t, n in relation.rows():
        rows.extend([t] * n)
    # canonical tiebreak on the row itself first, then stable per-key sorts from last to first
    rows.sort(key=lambda t: tuple(map(sort_key, t)))
    for key in reversed(spec):
        descending = key.direction == "desc"

        # NULL ranks above every value: ascending puts it last, descending first
        def keyfun(t, i=relation.header.index(key.attr)):
            v = t[i]
            if v is NULL:
                return (1,)
            return (0,) + sort_key(v)

        rows.sort(key=keyfun, reverse=descending)
    return rows


# ---------------------------------------------------------------------------
# macro expansion


def _subst(node: Any, mapping: dict[AttrName, Any]) -> Any:
    if isinstance(node, AttrAtom) and node.attr in mapping:
        rep = mapping[node.attr]
        if isinstance(rep, PeCond.__args__):
            return CondPath(rep)
        if isinstance(rep, PeScalar.__args__):
            return Scalar(rep)
        return rep
    if isinstance(node, (SVar, SVarRole)) and node.attr in mapping:
        rep = mapping[node.attr]
        if isinstance(node, SVarRole):
            raise MacroError(f"cannot substitute into role access {node.attr!r}.{node.role!r}")
        if not isinstance(rep, PeScalar.__args__):
            raise MacroError(f"macro argument for {node.attr!r} must be a scalar here")
        return rep
    if isinstance(node, Denote) and isinstance(node.den, Abstract) and node.den.attr in mapping:
        rep = mapping[node.den.attr]
        return Concat(TypeAtom(node.tid), rep if not isinstance(rep, PeScalar.__args__) else Scalar(rep))
    return map_children(node, _subst, mapping, kinds=PATH_KINDS)


def expand_macro(schema: Schema, name: str, args: list, fresh=None) -> Any:
    """Apply a macro: capture-avoiding simultaneous substitution of the
    parameters.  Duplicate parameter names substitute positionally, first
    occurrence wins."""
    macro = schema.macros.get(name)
    if macro is None:
        raise MacroError(f"unknown macro {name!r}")
    if len(args) != len(macro.params):
        raise MacroError(
            f"macro {name!r} expects {len(macro.params)} arguments, got {len(args)}"
        )
    if fresh is None:
        counter = itertools.count(1)
        fresh = lambda: f"{FRESH_PREFIX}m{next(counter)}"
    mapping: dict[AttrName, Any] = {}
    for param, arg in zip(macro.params, args):
        if param in mapping:
            continue  # duplicates bind to the first argument only
        if macro.kind == "scalar":
            if not isinstance(arg, PeScalar.__args__):
                raise MacroError(f"macro {name!r} takes scalar arguments")
            mapping[param] = arg
        elif macro.kind == "condition":
            if not isinstance(arg, PeCond.__args__):
                raise MacroError(f"macro {name!r} takes condition arguments")
            mapping[param] = arg
        else:
            if isinstance(arg, (PeScalar.__args__, PeCond.__args__)):
                arg = Scalar(arg) if isinstance(arg, PeScalar.__args__) else CondPath(arg)
            mapping[param] = Concat(AttrAtom(fresh()), arg)
    return _subst(macro.body, mapping)


# ---------------------------------------------------------------------------
# canonical text (debug dumps)


def path_text(p: Any) -> str:
    """Fully parenthesised concrete rendering of an expression tree."""
    if isinstance(p, Empty):
        return "eps"
    if isinstance(p, TypeAtom):
        return p.tid
    if isinstance(p, RoleEntry):
        return p.rid
    if isinstance(p, AttrAtom):
        return p.attr
    if isinstance(p, Reverse):
        return f"({path_text(p.of)})<-"
    if isinstance(p, Concat):
        return f"({path_text(p.left)} o {path_text(p.right)})"
    if isinstance(p, Front):
        return f"Fr({path_text(p.of)})"
    if isinstance(p, DistinctPath):
        return f"Ds({path_text(p.of)})"
    if isinstance(p, Product):
        return f"({path_text(p.left)} x {path_text(p.right)})"
    if isinstance(p, SetCompare):
        op = {"all_in": "subseteq", "includes_all": "supseteq", "match_all": "equiv"}[p.op]
        return f"({path_text(p.left)} {op} {path_text(p.right)})"
    if isinstance(p, MissingPath):
        return f"({path_text(p.left)} excl {path_text(p.right)})"
    if isinstance(p, PathUnion):
        return f"({path_text(p.left)} union {path_text(p.right)})"
    if isinstance(p, PathIntersect):
        return f"({path_text(p.left)} intersect {path_text(p.right)})"
    if isinstance(p, PathDiff):
        return f"({path_text(p.left)} minus {path_text(p.right)})"
    if isinstance(p, FrontUnion):
        return f"({path_text(p.left)} fr-union {path_text(p.right)})"
    if isinstance(p, FrontIntersect):
        return f"({path_text(p.left)} fr-intersect {path_text(p.right)})"
    if isinstance(p, FrontDiff):
        return f"({path_text(p.left)} fr-minus {path_text(p.right)})"
    if isinstance(p, RelCompare):
        return f"({path_text(p.left)} {p.op} {path_text(p.right)})"
    if isinstance(p, Shuffle):
        return f"Path({path_text(p.of)}, {', '.join(p.attrs)})"
    if isinstance(p, MixFix):
        inner = [p.first]
        inner.extend(f"{r}: {path_text(q)}" for r, q in p.middles)
        inner.append(p.last)
        return "<" + ", ".join(inner) + ">"
    if isinstance(p, FuncApp):
        return f"{p.func}({', '.join(path_text(a) for a in p.args)})"
    if isinstance(p, Where):
        opts = "; ".join(f"{path_text(b)}; {path_text(c)}" for b, c in p.branches)
        if p.default is not None:
            opts += f"; {path_text(p.default)}"
        return f"Where({opts})"
    if isinstance(p, Confluence):
        elems = ", ".join(f"{a}: {path_text(q)}: {x}" for a, q, x in p.elements)
        return f"[{elems}; {path_text(p.of)}]"
    if isinstance(p, GroupFn):
        name = {
            "count": "GCount", "dscount": "GDsCount", "sum": "GSum",
            "dssum": "GDsSum", "min": "GMin", "max": "GMax", "avg": "GAvg",
        }[p.kind]
        by = "{" + ", ".join(p.by) + "}"
        if p.target is None:
            return f"{name}({path_text(p.of)}, {by})"
        return f"{name}({path_text(p.of)}, {by}, {p.target})"
    if isinstance(p, SubExpr):
        return "[" + ", ".join(path_text(q) for q in p.items) + "]"
    if isinstance(p, Denote):
        return f"{p.tid}: {path_text(p.den)}"
    if isinstance(p, HdCoerce):
        return f"HdCoerce({path_text(p.of)})"
    if isinstance(p, TlCoerce):
        return f"TlCoerce({path_text(p.of)})"
    if isinstance(p, Scalar):
        return path_text(p.expr)
    if isinstance(p, CondPath):
        return path_text(p.cond)
    if isinstance(p, SConst):
        v = p.value
        if isinstance(v, str):
            return f"'{v}'"
        if isinstance(v, Bool):
            return "true" if v.value else "false"
        from .values import format_number

        return format_number(v)
    if isinstance(p, SAgg):
        name = {"count": "Count", "sum": "Sum", "min": "Min", "max": "Max", "avg": "Avg"}[p.kind]
        return f"{name}({path_text(p.of)})"
    if isinstance(p, SVar):
        return p.attr
    if isinstance(p, SVarRole):
        return f"{p.attr}.{p.role}"
    if isinstance(p, SApply):
        if p.func in ("+", "-", "*", "/") and len(p.args) == 2:
            return f"({path_text(p.args[0])} {p.func} {path_text(p.args[1])})"
        return f"{p.func}({', '.join(path_text(a) for a in p.args)})"
    if isinstance(p, CSome):
        return f"Some({path_text(p.of)})"
    if isinstance(p, CBagComp):
        op = {"sub": "subset", "subeq": "subseteq", "=": "=", "<>": "<>", "supeq": "supseteq", "sup": "supset"}[p.op]
        return f"({path_text(p.left)} {op} {path_text(p.right)})"
    if isinstance(p, CLogic):
        return f"({path_text(p.left)} {p.op} {path_text(p.right)})"
    if isinstance(p, CScalarComp):
        return f"({path_text(p.left)} {p.op} {path_text(p.right)})"
    if isinstance(p, CNot):
        return f"not({path_text(p.of)})"
    if isinstance(p, CExclusion):
        return f"({path_text(p.left)} disjoint {path_text(p.right)})"
    if isinstance(p, ByPath):
        return path_text(p.path)
    if isinstance(p, Abstract):
        return f"!{p.attr}"
    if isinstance(p, Composite):
        return "(" + ", ".join(path_text(d) for d in p.parts) + ")"
    raise TypeError(f"cannot render {p!r}")
