"""Path expressions: the stored query IR and its compilation.

A path expression denotes a derived relation with two distinguished
columns, ``hd`` and ``tl``.  This module provides:

* the expression tree itself (plus its scalar, condition and denotation
  sub-families), each node keeping its own schema-free facts: the
  variables it uses and the atoms it can start and end with,
* ``PathMemo``, the intern table of one parse, verbalisation or
  translation, and the analyses worked out for each distinct node that
  depend on the schema or the typing,
* typing inference for the variables occurring in a tree,
* the head/tail type analysis used for disambiguation (an empty result
  proves the expression evaluates empty on every population),
* the translation into relational algebra, including head/tail coercion
  through reference schemes, macro expansion, and the binder joins that
  tie free condition variables to their types; every expansion and
  coercion is built through the translator's one memo,
* normalisation rewrites, derivation-rule application, constraint
  checking, and result ordering.

A node's children are its fields that hold one of ``PATH_KINDS``, as
``walk.children`` and ``walk.map_children`` find them, so adding a node
kind needs no walker case.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
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
    TypeRule,
)
from .values import TRUE, Bool, FactInstance, render_value, sort_key
from .walk import children, field_names, intern_key, map_children

HD: AttrName = "hd"
TL: AttrName = "tl"


# ---------------------------------------------------------------------------
# the expression trees


class _Node:
    """Base of every path, scalar, condition and denotation node.  A node
    makes each of its ``tuple`` fields a tuple when it is built, so a list
    given there is one, and works out its schema-free facts, ``uses`` and
    ``ends``, on first use and keeps them on itself, where they enter
    neither ``==``, ``hash`` nor ``walk.intern_key``."""

    def __post_init__(self):
        for name in _tuple_fields(type(self)):
            v = getattr(self, name)
            if type(v) is not tuple:
                object.__setattr__(self, name, tuple(v))

    @functools.cached_property
    def uses(self) -> frozenset[AttrName]:
        """The variable attributes the node uses (binding positions).  The
        structural columns hd and tl are not variables and never require
        binding."""
        if isinstance(self, (AttrAtom, SVar, SVarRole)):
            own = {self.attr} - {HD, TL}
        elif isinstance(self, Denote) and isinstance(self.den, Abstract):
            own = {self.den.attr} - {HD, TL}
        else:
            own = set()
        return _union(own, [c.uses for c in children(self, PATH_KINDS)])

    @functools.cached_property
    def ends(self) -> tuple[frozenset, frozenset]:
        """The atoms the path can start with and those it can end with, read
        by typing inference at each junction.  A node may hand back its
        operand's sets, so they are frozen."""
        p = self
        if isinstance(p, (TypeAtom, Denote)):
            first = last = frozenset({(_TYPE, p.tid)})
        elif isinstance(p, RoleEntry):
            first = last = frozenset({(_ENTRY, p.rid)})
        elif isinstance(p, AttrAtom):
            first = last = frozenset({(_ATTR, p.attr)})
        elif isinstance(p, Shuffle):
            first, last = frozenset({(_ATTR, p.attrs[0])}), frozenset({(_ATTR, p.attrs[-1])})
        elif isinstance(p, MixFix):
            first, last = frozenset({(_ENTRY, p.first)}), frozenset({(_EXIT, p.last)})
        elif isinstance(p, Reverse):
            f, l = p.of.ends
            first, last = frozenset(_flip(e) for e in l), frozenset(_flip(e) for e in f)
        elif isinstance(p, (Concat, Product, MissingPath, RelCompare)):
            first, right = p.left.ends[0], p.right.ends
            # a product ends where its right operand starts
            last = right[0] if isinstance(p, Product) else right[1]
        elif isinstance(p, (DistinctPath, HdCoerce, TlCoerce, Confluence, SetCompare)):
            first, last = (p.left if isinstance(p, SetCompare) else p.of).ends
        elif isinstance(p, Front):
            first = last = p.of.ends[0]
        elif isinstance(p, (SetOp, Where, SubExpr)):
            if isinstance(p, SetOp):
                parts = [p.left] if p.op == "minus" else [p.left, p.right]
            elif isinstance(p, Where):
                parts = [body for body, _ in p.branches] + ([] if p.default is None else [p.default])
            else:
                parts = p.items
            first = frozenset().union(*[q.ends[0] for q in parts])
            # a filter ends where its items start
            last = first if isinstance(p, SubExpr) else frozenset().union(*[q.ends[1] for q in parts])
        else:
            first = last = frozenset()
        return first, last


@functools.cache
def _tuple_fields(kind: type) -> tuple[str, ...]:
    """The fields ``kind`` declares ``tuple`` (annotations are strings in
    this module)."""
    return tuple(f.name for f in fields(kind) if f.type == "tuple")


def _union(own: set, parts: list) -> frozenset:
    """``own`` and every part together; the one part itself when it holds
    them all, so that a chain of nodes keeps one set."""
    if not own and len(parts) == 1:
        return parts[0]
    return frozenset(own.union(*parts))


# the ends of a path, used for junction patterns
_TYPE, _ENTRY, _EXIT, _ATTR = "type", "entry", "exit", "attr"


def _flip(end: tuple) -> tuple:
    kind, payload = end
    if kind == _ENTRY:
        return (_EXIT, payload)
    if kind == _EXIT:
        return (_ENTRY, payload)
    return end


@dataclass(frozen=True)
class TypeAtom(_Node):
    tid: TypeId


@dataclass(frozen=True)
class RoleEntry(_Node):
    rid: RoleId


@dataclass(frozen=True)
class AttrAtom(_Node):
    attr: AttrName


@dataclass(frozen=True)
class Reverse(_Node):
    of: "PathExpr"


@dataclass(frozen=True)
class Concat(_Node):
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class Front(_Node):
    of: "PathExpr"


@dataclass(frozen=True)
class DistinctPath(_Node):
    of: "PathExpr"


@dataclass(frozen=True)
class Product(_Node):
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class SetCompare(_Node):
    left: "PathExpr"
    op: str  # all_in (subset), includes_all (superset), match_all (equal)
    right: "PathExpr"


@dataclass(frozen=True)
class MissingPath(_Node):
    left: "PathExpr"
    right: "PathExpr"


@dataclass(frozen=True)
class SetOp(_Node):
    """Union, intersection or difference of two paths on their common
    columns.  OR OTHERWISE, AND ALSO and BUT NOT are the same operations
    over ``Front`` operands."""

    left: "PathExpr"
    op: str  # union | intersect | minus
    right: "PathExpr"


@dataclass(frozen=True)
class RelCompare(_Node):
    left: "PathExpr"
    op: str  # < <= = <> >= >
    right: "PathExpr"


@dataclass(frozen=True)
class Shuffle(_Node):
    of: "PathExpr"
    attrs: tuple


@dataclass(frozen=True)
class MixFix(_Node):
    first: RoleId
    middles: tuple  # (RoleId, PathExpr) pairs
    last: RoleId

    @property
    def roles(self) -> tuple:
        return (self.first,) + tuple(r for r, _ in self.middles) + (self.last,)


@dataclass(frozen=True)
class FuncApp(_Node):
    func: str
    args: tuple


@dataclass(frozen=True)
class Where(_Node):
    branches: tuple  # (PathExpr, PeCond) pairs
    default: Any = None  # PathExpr | None
    simple: bool = True


@dataclass(frozen=True)
class Confluence(_Node):
    elements: tuple  # (attr, PathExpr, attr) triples: name, gatherer, connection
    of: "PathExpr"


GROUP_KINDS = ("count", "dscount", "sum", "dssum", "min", "max", "avg")


@dataclass(frozen=True)
class GroupFn(_Node):
    kind: str
    of: "PathExpr"
    by: tuple
    target: Any = None  # AttrName | None; the counting kinds carry none

    def __post_init__(self):
        kind, target = self.kind, self.target
        if kind not in GROUP_KINDS:
            raise ValueError(f"unknown group function {kind!r}")
        if kind in ("count", "dscount") and target is not None:
            raise ValueError("counting group functions take no target attribute")
        if kind not in ("count", "dscount") and target is None:
            raise ValueError(f"group function {kind!r} needs a target attribute")
        super().__post_init__()


@dataclass(frozen=True)
class SubExpr(_Node):
    items: tuple


@dataclass(frozen=True)
class Denote(_Node):
    tid: TypeId
    den: "PeDenotation"


@dataclass(frozen=True)
class HdCoerce(_Node):
    of: "PathExpr"


@dataclass(frozen=True)
class TlCoerce(_Node):
    of: "PathExpr"


@dataclass(frozen=True)
class Scalar(_Node):
    expr: "PeScalar"


@dataclass(frozen=True)
class CondPath(_Node):
    cond: "PeCond"


# scalar sub-family

AGG_KINDS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class SConst(_Node):
    value: Any


@dataclass(frozen=True)
class SAgg(_Node):
    kind: str
    of: "PathExpr"


@dataclass(frozen=True)
class SVar(_Node):
    attr: AttrName


@dataclass(frozen=True)
class SVarRole(_Node):
    attr: AttrName
    role: RoleId


@dataclass(frozen=True)
class SApply(_Node):
    func: str
    args: tuple


PeScalar = TUnion[SConst, SAgg, SVar, SVarRole, SApply]


# condition sub-family


@dataclass(frozen=True)
class CSome(_Node):
    of: "PathExpr"


@dataclass(frozen=True)
class CBagComp(_Node):
    left: "PathExpr"
    op: str  # sub subeq = <> supeq sup
    right: "PathExpr"


@dataclass(frozen=True)
class CLogic(_Node):
    left: "PeCond"
    op: str  # and or xor implies iff
    right: "PeCond"


@dataclass(frozen=True)
class CScalarComp(_Node):
    left: PeScalar
    op: str  # < <= = <> >= >
    right: PeScalar


@dataclass(frozen=True)
class CNot(_Node):
    of: "PeCond"


@dataclass(frozen=True)
class CExclusion(_Node):
    """Mutual exclusion of the front elements of two paths."""

    left: "PathExpr"
    right: "PathExpr"


PeCond = TUnion[CSome, CBagComp, CLogic, CScalarComp, CNot, CExclusion]


# denotations


@dataclass(frozen=True)
class ByPath(_Node):
    path: "PathExpr"


@dataclass(frozen=True)
class Abstract(_Node):
    attr: AttrName


@dataclass(frozen=True)
class Composite(_Node):
    parts: tuple


PeDenotation = TUnion[ByPath, Abstract, Composite]

PathExpr = TUnion[
    TypeAtom, RoleEntry, AttrAtom, Reverse, Concat, Front, DistinctPath,
    Product, SetCompare, MissingPath, SetOp, RelCompare, Shuffle, MixFix,
    FuncApp, Where, Confluence, GroupFn, SubExpr, Denote, HdCoerce, TlCoerce,
    Scalar, CondPath,
]

Typing = frozenset  # of (AttrName, TypeId) pairs


@dataclass(frozen=True)
class OrderKey:
    attr: AttrName
    direction: str  # asc | desc


OrderSpec = tuple  # of OrderKey


def _new(kind: type, *fields: Any) -> Any:
    """A path node built directly: the builder of code that keeps no
    ``PathMemo``."""
    return kind(*fields)


def concat(*parts: PathExpr, node=_new) -> PathExpr:
    """Right-nested concatenation of one or more paths."""
    if not parts:
        raise ValueError("concat of nothing")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = node(Concat, p, out)
    return out


def role_exit(rid: RoleId, node=_new) -> PathExpr:
    return node(Reverse, node(RoleEntry, rid))


# ---------------------------------------------------------------------------
# structural helpers


# every kind of node in a path-expression tree; a node's children are the
# field values of these kinds
PATH_KINDS = frozenset(
    PathExpr.__args__ + PeScalar.__args__ + PeCond.__args__ + PeDenotation.__args__
)


class PathMemo:
    """The path nodes of one parse, and what has been worked out about them
    that depends on the schema or the typing, or that builds nodes.

    ``node`` and ``adopt`` keep each node in an intern table under
    ``walk.intern_key``: its kind, its children by identity, and its other
    fields with their types, so that nodes built through one memo from
    equal parts are one object, readings of a parse share their equal
    sub-paths, and ``2`` and ``2.0`` stay two constants.  Nodes keep their
    structural ``==`` and ``hash``, so a node built elsewhere (a schema
    macro body, a test's expected path) still compares equal to an
    interned one.

    The analyses kept are ``typing_pairs``, ``canonical``, ``normalise``
    and, per typing, ``head_tail_combos`` and ``has_empty_subpath``; the
    expansions of ``expand_mixfix``, ``expand_subexpr``, ``expand_denote``
    and ``expand_coerce`` are built through ``node``.  Each analysis is
    kept by the id of the node it was worked out for, next to that node,
    so that the id stays its own while the memo lives.  What depends on the
    node alone, its ``uses`` and ``ends``, the node keeps itself.  A memo
    lives as long as the parse, the verbalisation or the translation that
    made it; nothing in it outlives that.
    """

    def __init__(self):
        self.nodes: dict = {}  # intern key -> node
        self.pairs: dict = {}  # ``typing_pairs``
        self.canon: dict = {}  # ``canonical``
        self.normal: dict = {}  # ``normalise``
        self.typed: dict = {}  # typing -> (``head_tail_combos``, ``has_empty_subpath``)

    def node(self, kind: type, *fields: Any) -> Any:
        """The node ``kind(*fields)``: the one this memo already holds, or a
        new one, kept.  ``fields`` are all of the kind's fields, defaults
        included, so that the key is the one ``adopt`` makes."""
        key = intern_key(kind, fields, PATH_KINDS)
        hit = self.nodes.get(key)
        if hit is None:
            hit = self.nodes[key] = kind(*fields)
        return hit

    def adopt(self, p: Any) -> Any:
        """``p`` as this memo's node: the equal one it holds, or ``p``, kept.
        An equal node is found only when ``p``'s children are this memo's."""
        kind = type(p)
        return self.nodes.setdefault(intern_key(kind, [getattr(p, name) for name in field_names(kind)], PATH_KINDS), p)

    def for_typing(self, typing: Typing) -> tuple[dict, dict]:
        return self.typed.setdefault(typing, ({}, {}))


def flatten_concat(p: PathExpr) -> list[PathExpr]:
    if isinstance(p, Concat):
        return flatten_concat(p.left) + flatten_concat(p.right)
    return [p]


def canonical(p: Any, memo: PathMemo | None = None) -> Any:
    """Right-nest every concatenation chain; used for structural comparison.
    The result is built through ``memo``, so two canonical forms from one
    memo are equal exactly when they are the same object."""
    memo = PathMemo() if memo is None else memo
    return _rebuild(p, memo, memo.canon, None)


def _rebuild(p: Any, memo: PathMemo, done: dict, schema: Schema | None) -> Any:
    """``p`` built through ``memo`` with every concatenation chain
    right-nested, and, given a schema, its windows rewritten; once per
    distinct node, kept in ``done``.  A chain is flattened before its parts
    are rebuilt, so each chain is rebuilt once, not once per link."""
    hit = done.get(id(p))
    if hit is not None:
        return hit[1]
    if isinstance(p, Concat):
        parts = [_rebuild(x, memo, done, schema) for x in flatten_concat(p)]
        if schema is not None:
            parts = _rewrite_windows(schema, parts, memo.node)
        out = concat(*parts, node=memo.node)
    else:
        out = memo.adopt(map_children(p, _rebuild, memo, done, schema, kinds=PATH_KINDS))
    done[id(p)] = (p, out)
    return out


# ---------------------------------------------------------------------------
# abbreviation expansion (mix-fix, sub-expressions, denotations)


def expand_mixfix(schema: Schema, m: MixFix, node=_new) -> PathExpr:
    """A mix-fix connection is the role entry, a filter over the shared fact
    instances for each middle argument, and the exit through the last role."""
    parts: list[PathExpr] = [node(RoleEntry, m.first)]
    middle_terms = [
        node(DistinctPath, node(Front, node(Concat, role_exit(r, node), q))) for r, q in m.middles
    ]
    if middle_terms:
        term = middle_terms[0]
        for t in middle_terms[1:]:
            term = node(SetOp, term, "intersect", t)
        parts.append(term)
    parts.append(role_exit(m.last, node))
    return concat(*parts, node=node)


def expand_subexpr(s: SubExpr, node=_new) -> PathExpr:
    if not s.items:
        raise TranslateError("empty sub-expression")
    term: PathExpr = node(Front, s.items[0])
    for q in s.items[1:]:
        term = node(SetOp, term, "intersect", node(Front, q))
    return node(DistinctPath, term)


def expand_denote(schema: Schema, d: Denote, node=_new, within: frozenset = frozenset()) -> PathExpr:
    """``d`` through its type's reference scheme; ``within`` holds the
    types whose schemes the denotation of ``d`` is a part of."""
    x = d.tid
    schema.check_type(x)
    den = d.den
    if isinstance(den, Abstract):
        return node(Concat, node(TypeAtom, x), node(AttrAtom, den.attr))
    if schema.is_value(x):
        if isinstance(den, ByPath):
            return node(Concat, node(TypeAtom, x), den.path)
        raise TranslateError(f"value type {x!r} takes a single denotation")
    scheme = schema.idf.get(x)
    if scheme is None:
        raise TranslateError(f"type {x!r} has no reference scheme to denote through")
    if x in within:
        raise TranslateError(f"reference scheme chain starting at {x!r} is cyclic")
    within |= {x}
    parts = den.parts if isinstance(den, Composite) else (den,)
    if len(parts) != scheme.arity:
        raise TranslateError(
            f"denotation arity {len(parts)} does not match the reference scheme of {x!r} ({scheme.arity})"
        )
    if scheme.kind == "pairs":
        filters = [
            concat(node(RoleEntry, p), role_exit(q, node), _denote_part(schema, q, part, node, within), node=node)
            for (p, q), part in zip(scheme.entries, parts)
        ]
    else:
        filters = [
            node(Concat, role_exit(p, node), _denote_part(schema, p, part, node, within))
            for p, part in zip(scheme.entries, parts)
        ]
    return node(Concat, node(TypeAtom, x), node(SubExpr, filters))


def _denote_part(schema: Schema, role: str, part, node, within: frozenset) -> PathExpr:
    """One part of a denotation, the filler of ``role``: a variable binds the
    role's player and a descriptor is read as written; a value or a
    composite denotes the player through its reference scheme."""
    if isinstance(part, Abstract):
        return node(AttrAtom, part.attr)
    if isinstance(part, ByPath) and not isinstance(part.path, Scalar):
        return part.path
    return expand_denote(schema, node(Denote, schema.player(role), part), node, within)


# ---------------------------------------------------------------------------
# typing inference


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


def typing_pairs(schema: Schema, p: Any, memo: PathMemo | None = None) -> frozenset:
    """Scan the tree for the binding patterns relating variables to types.
    ``memo`` keeps each sub-path's pairs, so a sub-path shared by several
    trees is scanned once."""
    return _pairs(schema, PathMemo() if memo is None else memo, p)


def _pairs(schema: Schema, memo: PathMemo, node: Any) -> frozenset:
    hit = memo.pairs.get(id(node))
    if hit is not None:
        return hit[1]
    out = _pairs_of(schema, memo, node)
    memo.pairs[id(node)] = (node, out)
    return out


def _pairs_of(schema: Schema, memo: PathMemo, node: Any) -> frozenset:
    """The pairs of one node: its own junctions and its children's pairs."""
    if isinstance(node, Denote):
        # the expansion covers the nested denotations
        return _pairs(schema, memo, expand_denote(schema, node, memo.node))
    own: set = set()
    if isinstance(node, Concat):
        for le in node.left.ends[1]:
            for re in node.right.ends[0]:
                own.update(_junction_pairs(schema, le, re))
    if isinstance(node, MixFix):
        for r, q in node.middles:
            for re in q.ends[0]:
                own.update(_junction_pairs(schema, (_EXIT, r), re))
    return _union(own, [_pairs(schema, memo, c) for c in children(node, PATH_KINDS)])


def infer_typing(schema: Schema, p: Any, extra: Iterable = (), memo: PathMemo | None = None) -> Typing:
    """Derive the typing relation of an expression and check it.  ``memo``
    keeps what the scan works out for each sub-path.

    Raises when a variable is typed by unrelated types or not typed at all.
    """
    memo = PathMemo() if memo is None else memo
    pairs = typing_pairs(schema, p, memo) | set(extra)
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
    untyped = sorted(p.uses - set(by_attr))
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


def head_tail_combos(schema: Schema, p: Any, typing: Typing, memo: PathMemo | None = None) -> set:
    """All possible (start type, end type) pairs; empty means the expression
    is structurally empty.  ``memo`` keeps each sub-expression's pairs under
    this typing, so a sub-expression shared by several readings, or asked
    about again, is worked out once."""
    memo = PathMemo() if memo is None else memo
    return _combos(schema, typing, memo, memo.for_typing(typing)[0], p)


def _combos(schema: Schema, typing: Typing, memo: PathMemo, table: dict, p: Any) -> set:
    hit = table.get(id(p))
    if hit is not None:
        return hit[1]
    out = _combos_of(schema, typing, memo, table, p)
    table[id(p)] = (p, out)
    return out


def _combos_of(schema: Schema, typing: Typing, memo: PathMemo, table: dict, p: Any) -> set:
    """The pairs of one node, from its children's (kept in ``table``)."""

    def L(q):
        return _combos(schema, typing, memo, table, q)

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
    if isinstance(p, SetOp):
        if p.op == "minus":
            return L(p.left)
        if p.op == "union":
            return L(p.left) | L(p.right)
        return L(p.left) & L(p.right)
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
        return L(expand_mixfix(schema, p, memo.node))
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
        return L(expand_subexpr(p, memo.node))
    if isinstance(p, Denote):
        return L(expand_denote(schema, p, memo.node))
    if isinstance(p, (HdCoerce, TlCoerce)):
        return L(expand_coerce(schema, p, typing, memo))
    if isinstance(p, Scalar):
        out = set()
        for r in _scalar_result_types(schema, p.expr, typing):
            out |= _related_pairs(schema, r)
        return out
    if isinstance(p, CondPath):
        return _related_pairs(schema, BOOL_TYPE)
    raise TranslateError(f"no head/tail rule for {p!r}")


# every path kind; a set lookup of a node's type is much faster than
# ``isinstance`` against the 24 classes
_CHECKED_PATHS = frozenset(PathExpr.__args__)


def has_empty_subpath(schema: Schema, p: Any, typing: Typing, memo: PathMemo | None = None) -> bool:
    """True when the expression or any path inside it is structurally empty.
    ``memo`` keeps each sub-expression's answer and pairs under this typing,
    so each is worked out once."""
    memo = PathMemo() if memo is None else memo
    return _has_empty(schema, typing, memo, *memo.for_typing(typing), p)


def _has_empty(schema: Schema, typing: Typing, memo: PathMemo, table: dict, empty: dict, p: Any) -> bool:
    hit = empty.get(id(p))
    if hit is not None:
        return hit[1]
    out = (type(p) in _CHECKED_PATHS and not _combos(schema, typing, memo, table, p)) or any(
        _has_empty(schema, typing, memo, table, empty, c) for c in children(p, PATH_KINDS)
    )
    empty[id(p)] = (p, out)
    return out


def expand_coerce(schema: Schema, p: HdCoerce | TlCoerce, typing: Typing, memo: PathMemo | None = None) -> PathExpr:
    """The operand of ``p`` with reference-scheme hops added at its head
    (``HdCoerce``) or its tail (``TlCoerce``) while that end is a simply
    identified entity type, so the path starts or ends at the identifying
    value.  The hops and the head/tail analysis go through ``memo``."""
    memo = PathMemo() if memo is None else memo
    table = memo.for_typing(typing)[0]
    at_head = isinstance(p, HdCoerce)
    inner = p.of
    seen = set()  # a cyclic chain of reference schemes stops where it closes
    while True:
        combos = _combos(schema, typing, memo, table, inner)
        ends = {u for (u, _) in combos} if at_head else {v for (_, v) in combos}
        if len(ends) != 1:
            return inner
        (x,) = ends
        if schema.is_value(x) or x in seen:
            return inner
        seen.add(x)
        scheme = schema.idf.get(x)
        if scheme is None or scheme.kind != "pairs" or len(scheme.entries) != 1:
            return inner
        r, s = scheme.entries[0]
        node = memo.node
        if at_head:
            inner = concat(node(RoleEntry, s), role_exit(r, node), inner, node=node)
        else:
            inner = concat(inner, node(RoleEntry, r), role_exit(s, node), node=node)


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
        expr = ra.SetOp(expr, "union", ra.TypeTable(a, y))
    return expr


class Translator:
    """Translates the paths of one reading, each path object once per set
    ``B`` of bound attributes, into a pending column map (``ra.Columns``)
    that a parent edits or builds: a translation's attributes are hd, tl
    and the attributes its path names, never a fresh name, so the
    sub-paths that lowering interned into one object share one sub-plan.
    Every expansion and coercion is built through the translator's one
    ``PathMemo``, so a sub-path's head/tail analysis runs once."""

    def __init__(self, schema: Schema, typing: Typing):
        self.schema = schema
        self.typing = typing
        self.memo = PathMemo()
        self.rules = ra.JoinRules(schema)
        self._counter = itertools.count(1)
        # (id, B) -> (path, its columns); holding the path keeps its id unique
        self._done: dict[tuple[int, frozenset], tuple] = {}

    def fresh(self) -> AttrName:
        return f"{FRESH_PREFIX}{next(self._counter)}"

    # -- paths --------------------------------------------------------

    def path(self, p: PathExpr, B: frozenset) -> ra.Columns:
        key = (id(p), B)
        hit = self._done.get(key)
        if hit is None:
            hit = self._done[key] = (p, self._path(p, B))
        return hit[1]

    def _path(self, p: PathExpr, B: frozenset) -> ra.Columns:
        schema, rules = self.schema, self.rules
        if isinstance(p, TypeAtom):
            schema.check_type(p.tid)
            a = self.fresh()
            return rules.columns(ra.TypeTable(a, p.tid), {HD: ra.Attr(a), TL: ra.Attr(a)})
        if isinstance(p, RoleEntry):
            a = self.fresh()
            return rules.columns(ra.TypeTable(a, schema.rel(p.rid)), {HD: ra.AttrRole(a, p.rid), TL: ra.Attr(a)})
        if isinstance(p, AttrAtom):
            return self.path(Scalar(SVar(p.attr)), B)
        if isinstance(p, Reverse):
            return self.path(p.of, B).rename({HD: TL, TL: HD})
        if isinstance(p, Concat):
            a = self.fresh()
            left = self.path(p.left, B).rename({a: TL})
            right = self.path(p.right, B).rename({a: HD})
            return rules.join(left, right).drop({a})
        if isinstance(p, Front):
            inner = self.path(p.of, B)
            if isinstance(p.of, SetOp) and isinstance(p.of.left, Front) and isinstance(p.of.right, Front):
                # each row of a set operation is a row of an operand, whose
                # tl is its hd already
                return inner
            return inner.extend({TL: ra.Attr(HD)})
        if isinstance(p, DistinctPath):
            inner = self.path(p.of, B).rel
            return rules.columns(ra.Group(inner.header, inner))
        if isinstance(p, Product):
            # the right operand's hd becomes the pair's tl
            lp = self.path(p.left, B)
            rp = self.path(p.right, B)
            return rules.join(lp.drop({TL}), rp.rename({TL: HD}))
        if isinstance(p, SetCompare):
            return self._set_compare(p, B)
        if isinstance(p, MissingPath):
            lp = self.path(p.left, B)
            rp = self.path(p.right, B)
            pairs = rules.join(lp.drop({TL}), rp.drop({HD}))
            return rules.columns(ra.SetOp(pairs.rel, "minus", self.path(Concat(p.left, p.right), B).rel))
        if isinstance(p, SetOp):
            return rules.columns(ra.SetOp(self.path(p.left, B).rel, p.op, self.path(p.right, B).rel))
        if isinstance(p, RelCompare):
            a, b = self.fresh(), self.fresh()
            lp = self.path(p.left, B).rename({a: TL})
            rp = self.path(p.right, B).rename({b: HD})
            selected = ra.Select(ra.Compare(ra.Attr(a), p.op, ra.Attr(b)), rules.join(lp, rp).rel)
            return rules.columns(selected).drop({a, b})
        if isinstance(p, Shuffle):
            if len(p.attrs) < 2:
                raise TranslateError("a path shuffle needs at least two attributes")
            inner = self.path(p.of, B - set(p.attrs))
            missing = set(p.attrs) - inner.assigns.keys()
            if missing:
                raise TranslateError(f"shuffle attributes not in operand header: {sorted(missing)}")
            return inner.project(ra.def_map(p.attrs)).rename({HD: p.attrs[0], TL: p.attrs[-1]})
        if isinstance(p, MixFix):
            return self.path(expand_mixfix(self.schema, p, self.memo.node), B)
        if isinstance(p, FuncApp):
            return self._func_app(p, B)
        if isinstance(p, Where):
            return self._where(p, B)
        if isinstance(p, Confluence):
            return self._confluence(p, B)
        if isinstance(p, GroupFn):
            return self._group_fn(p, B)
        if isinstance(p, SubExpr):
            return self.path(expand_subexpr(p, self.memo.node), B)
        if isinstance(p, Denote):
            return self.path(expand_denote(self.schema, p, self.memo.node), B)
        if isinstance(p, (HdCoerce, TlCoerce)):
            return self.path(expand_coerce(self.schema, p, self.typing, self.memo), B)
        if isinstance(p, Scalar):
            return self._scalar_path(p.expr, B)
        if isinstance(p, CondPath):
            true_path = Scalar(SConst(TRUE))
            return self._where(Where([(true_path, p.cond)], None, True), B)
        raise TranslateError(f"cannot translate {p!r}")

    def _set_compare(self, p: SetCompare, B: frozenset) -> ra.Columns:
        a, b = self.fresh(), self.fresh()
        lp = self.path(p.left, B)
        tails_of_head = ra.Project({b: ra.Attr(TL)}, ra.Select(ra.Compare(ra.Attr(HD), "=", ra.Attr(a)), lp.rel))
        heads_of_right = self.path(p.right, B).project({b: ra.Attr(HD)}).rel
        op = {"all_in": "subeq", "includes_all": "supeq", "match_all": "="}[p.op]
        cond = ra.BagCompare(tails_of_head, op, heads_of_right)
        selected = ra.Select(cond, lp.extend({a: ra.Attr(HD)}).rel)
        return self.rules.columns(selected).drop({a})

    def _func_app(self, p: FuncApp, B: frozenset) -> ra.Columns:
        _check_function(p.func)
        if not p.args:
            raise TranslateError("function application needs arguments")
        attrs = [self.fresh() for _ in p.args]
        terms = []
        for i, (q, a) in enumerate(zip(p.args, attrs)):
            pq = self.path(q, B)
            if i < len(p.args) - 1:
                pq = pq.drop({TL})
            terms.append(pq.rename({a: HD}))
        joined = terms[0]
        for t in terms[1:]:
            joined = self.rules.join(joined, t)
        kept = ra.def_map(a for a in joined.assigns if a not in attrs)
        return joined.project({**kept, HD: ra.Apply(p.func, [ra.Attr(a) for a in attrs])})

    def _where_one(self, body: PathExpr, cond: PeCond, B: frozenset) -> ra.RelExpr:
        cond_attrs = cond.uses
        joined = self.path(body, B)
        for v in sorted(cond_attrs - B - joined.assigns.keys()):
            joined = self.rules.join(joined, self.rules.columns(bind_attr(self.schema, self.typing, v)))
        compiled = self.cond(cond, B.union(cond_attrs, joined.assigns))
        return ra.Select(compiled, joined.rel)

    def _where(self, p: Where, B: frozenset) -> ra.Columns:
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
            out = ra.SetOp(out, "union", nxt)
        return self.rules.columns(out)

    def _confluence(self, p: Confluence, B: frozenset) -> ra.Columns:
        base = self.path(p.of, B)
        joined = base
        names = []
        for a, q, x in p.elements:
            if x not in base.assigns:
                raise TranslateError(f"confluence connection attribute {x!r} not in base header")
            arm = self.path(q, B).rename({a: HD, x: TL})
            joined = self.rules.join(joined, arm)
            names.append(a)
        return joined.project(ra.def_map(base.assigns.keys() | set(names)))

    def _group_fn(self, p: GroupFn, B: frozenset) -> ra.Columns:
        inner = self.path(p.of, B)
        header = inner.assigns.keys()
        missing = set(p.by) - header
        if missing:
            raise TranslateError(f"grouping attributes not in header: {sorted(missing)}")
        kind = p.kind
        if kind in ("count", "dscount"):
            if kind == "dscount":
                inner = self.rules.columns(ra.Group(inner.rel.header, inner.rel))
            marker = self.fresh()
            grouped = ra.Group(set(p.by), inner.extend({marker: ra.Const(1)}).rel)
            value: ra.RaScalar = ra.Apply("bag_count", [ra.Attr(marker)])
        else:
            target = p.target
            if target not in header:
                raise TranslateError(f"group target attribute {target!r} not in header")
            if target in p.by:
                raise TranslateError(f"group target attribute {target!r} is a grouping attribute")
            grouped = ra.Group(set(p.by), inner.rel)
            arg: ra.RaScalar = ra.Attr(target)
            if kind == "dssum":
                kind, arg = "sum", ra.Apply("bag_distinct", [arg])
            value = ra.Apply(f"bag_{kind}", [arg])
        a = self.fresh()
        return self.rules.columns(ra.Project({a: value}, grouped), {HD: ra.Attr(a), TL: ra.Attr(a)})

    def _scalar_path(self, e: PeScalar, B: frozenset) -> ra.Columns:
        free = e.uses - B
        if not free:
            return self.rules.columns(ra.UNIT, {HD: self.scalar(e, B)}).extend({TL: ra.Attr(HD)})
        joined: ra.Columns | None = None
        for a in sorted(free):
            binder = self.rules.columns(bind_attr(self.schema, self.typing, a))
            joined = binder if joined is None else self.rules.join(joined, binder)
        return joined.extend({HD: self.scalar(e, B | free)}).extend({TL: ra.Attr(HD)})

    # -- scalars --------------------------------------------------------

    def scalar(self, e: PeScalar, B: frozenset) -> ra.RaScalar:
        if isinstance(e, SConst):
            return ra.Const(e.value)
        if isinstance(e, SAgg):
            # an aggregate reads the head column, so a simply identified
            # entity head is coerced down to its identifying value
            inner = self.path(expand_coerce(self.schema, HdCoerce(e.of), self.typing, self.memo), B).rel
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
            _check_function(e.func)
            return ra.Apply(e.func, [self.scalar(x, B) for x in e.args])
        raise TranslateError(f"cannot translate scalar {e!r}")

    # -- conditions -----------------------------------------------------

    def cond(self, c: PeCond, B: frozenset) -> ra.RaCond:
        if isinstance(c, CSome):
            return ra.Compare(ra.Aggregate("count", self.path(c.of, B).rel), ">", ra.Const(0))
        if isinstance(c, CBagComp):
            lp = self.path(c.left, B).project({HD: ra.Attr(HD)}).rel
            rp = self.path(c.right, B).project({HD: ra.Attr(HD)}).rel
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
            return self.cond(CNot(CSome(SetOp(Front(c.left), "intersect", Front(c.right)))), B)
        raise TranslateError(f"cannot translate condition {c!r}")


def _check_function(name: str) -> None:
    """Refuse a function that is neither a macro, which lowering expands,
    nor one that the algebra computes."""
    if name not in ra.FUNCTIONS:
        raise TranslateError(f"unknown function {name!r}")


def translate(
    schema: Schema, p: PathExpr, typing: Typing, bound: Iterable[AttrName] = (), outputs: Iterable[tuple] = ()
) -> ra.RelExpr:
    """The plan of ``p`` with ``bound`` read from outside, plus a column
    for each (attribute, scalar) pair of ``outputs``, computed from the
    path's attributes in the plan's last projection."""
    translator = Translator(schema, typing)
    root = translator.path(p, frozenset(bound))
    if outputs:
        B = frozenset(root.assigns)
        root = root.extend({a: translator.scalar(e, B) for a, e in outputs})
    return root.rel


# ---------------------------------------------------------------------------
# normalisation


def normalise(schema: Schema, p: Any, memo: PathMemo | None = None) -> Any:
    """``p`` with its chains right-nested and rewritten, built through
    ``memo``: role-entry/fact-type/role-exit windows become binary mix-fix
    connections and value-type/scalar adjacency becomes denotations.  A type
    between the roles that merely relates to the fact type is left alone,
    because dropping it would change the semantics.  One pass suffices: a
    rewrite gives a ``MixFix`` or a ``Denote``, and neither starts or
    continues a window."""
    memo = PathMemo() if memo is None else memo
    return _rebuild(p, memo, memo.normal, schema)


def _is_role_exit(p: Any) -> bool:
    return isinstance(p, Reverse) and isinstance(p.of, RoleEntry)


def _rewrite_windows(schema: Schema, parts: list, node) -> list:
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
            out.append(node(MixFix, a.rid, (), c.of.rid))
            i += 3
            continue
        # role entry directly followed by role exit of the same fact type
        if (
            isinstance(a, RoleEntry)
            and _is_role_exit(b)
            and schema.rel(a.rid) == schema.rel(b.of.rid)
        ):
            out.append(node(MixFix, a.rid, (), b.of.rid))
            i += 2
            continue
        # value type followed by a scalar becomes a denotation
        if (
            isinstance(a, TypeAtom)
            and schema.is_value(a.tid)
            and isinstance(b, Scalar)
            and not isinstance(b.expr, SVar)
        ):
            out.append(node(Denote, a.tid, node(ByPath, b)))
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
    rules = schema.derivations
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
        relation = ra.evaluate(_kept_plan(schema, rule), current)
        if isinstance(rule, FactRule):
            header = relation.header
            unbound = [a for _, a in rule.role_attrs if a not in header]
            if unbound and relation.body:
                raise EvalError(f"unbound attribute {unbound[0]!r}")
            slots = [(r, header.index(a)) for r, a in rule.role_attrs if a in header]
            facts = Bag.from_counts((FactInstance({r: u[i] for r, i in slots}), n) for u, n in relation.rows())
            current = current.with_population(rule.rel, facts)
        else:
            i = relation.header.index(HD)
            heads = Bag.from_counts((u[i], n) for u, n in relation.rows()).to_set()
            current = current.with_population(rule.tid, heads)
    return current


# ---------------------------------------------------------------------------
# constraints


def check_constraint(schema: Schema, p: PathExpr, pop: Population) -> bool:
    """Whether constraint ``p`` holds on ``pop``: its path has an answer.
    The plan of one of the schema's own constraints is kept on the schema;
    any other path is compiled again on every call."""
    kept = any(p is q for _, q in schema.constraints)
    return bool(ra.evaluate(_kept_plan(schema, p) if kept else expr_of(schema, p), pop).body)


# ---------------------------------------------------------------------------
# the plans of derivation rules and constraints
#
# A rule's or a constraint's plan depends on the schema alone, so it is
# built on first use and kept in ``schema.plans`` for every population
# after.  An entry is keyed by the id of the rule or constraint path and
# holds that object too, so the id stays its own.  The join rules that
# translation applies leave the derived types out, so ``Schema.revise``
# drops every plan.


def expr_of(schema: Schema, x: Any) -> ra.RelExpr:
    """The relational expression of ``x``: the translation of a derivation
    rule's body or of a constraint path.  A fact rule's body is typed with
    the players of its role attributes, whose columns ``apply_derivations``
    reads."""
    if isinstance(x, FactRule):
        extra = [(a, schema.player(r)) for r, a in x.role_attrs]
        return translate(schema, x.body, infer_typing(schema, x.body, extra))
    body = x.body if isinstance(x, TypeRule) else x
    return translate(schema, body, infer_typing(schema, body))


def _kept_plan(schema: Schema, x: Any) -> ra.Plan:
    """The plan of ``x``, a derivation rule or constraint path of
    ``schema``: the kept one, else a new one, kept."""
    hit = schema.plans.get(id(x))
    if hit is None:
        hit = schema.plans[id(x)] = (x, ra.compile_plan(expr_of(schema, x), schema))
    return hit[1]


# ---------------------------------------------------------------------------
# ordering


def order_result(relation: ra.Relation, spec: Iterable[OrderKey]) -> list[tuple]:
    """The rows of ``relation``, each as often as it occurs, ordered by the
    keys of ``spec`` in turn (NULL ranks above every value: ascending puts it
    last, descending first), then by the rows' cells under ``sort_key``,
    then in the relation's order.  ``sort_key`` runs once per distinct value,
    and the rows are sorted once, by the ranks of their cells."""
    header = relation.header
    keys = []
    for key in spec:
        if key.attr not in header:
            raise EvalError(f"unknown order attribute {key.attr!r}")
        keys.append((header.index(key.attr), -1 if key.direction == "desc" else 1))
    items = list(relation.rows())
    rank = _ranks({v for t, _ in items for v in t}).__getitem__

    def row_key(item: tuple) -> list:
        cells = list(map(rank, item[0]))
        return [sign * cells[i] for i, sign in keys] + cells

    items.sort(key=row_key)
    return [t for t, n in items for _ in range(n)]


def _ranks(values: set) -> dict:
    """Each value's place among ``values`` in the order of ``sort_key``;
    values whose sort keys are equal share a place."""
    keyed = {v: sort_key(v) for v in values}
    ranks: dict = {}
    rank, last = -1, None
    for v in sorted(keyed, key=keyed.__getitem__):
        if keyed[v] != last:
            rank, last = rank + 1, keyed[v]
        ranks[v] = rank
    return ranks


# ---------------------------------------------------------------------------
# macro expansion


def _subst(p: Any, mapping: dict[AttrName, Any], memo: PathMemo) -> Any:
    node = memo.node
    if isinstance(p, AttrAtom) and p.attr in mapping:
        rep = mapping[p.attr]
        if isinstance(rep, PeCond.__args__):
            return node(CondPath, rep)
        if isinstance(rep, PeScalar.__args__):
            return node(Scalar, rep)
        return rep
    if isinstance(p, (SVar, SVarRole)) and p.attr in mapping:
        rep = mapping[p.attr]
        if isinstance(p, SVarRole):
            raise MacroError(f"cannot substitute into role access {p.attr!r}.{p.role!r}")
        if not isinstance(rep, PeScalar.__args__):
            raise MacroError(f"macro argument for {p.attr!r} must be a scalar here")
        return rep
    if isinstance(p, Denote) and isinstance(p.den, Abstract) and p.den.attr in mapping:
        rep = mapping[p.den.attr]
        return node(Concat, node(TypeAtom, p.tid), rep if not isinstance(rep, PeScalar.__args__) else node(Scalar, rep))
    return memo.adopt(map_children(p, _subst, mapping, memo, kinds=PATH_KINDS))


def expand_macro(schema: Schema, name: str, args: list, fresh=None, memo: PathMemo | None = None) -> Any:
    """Apply a macro: capture-avoiding simultaneous substitution of the
    parameters.  Duplicate parameter names substitute positionally, first
    occurrence wins.  The expansion is built through ``memo``, the body's
    own nodes included."""
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
    memo = PathMemo() if memo is None else memo
    mapping: dict[AttrName, Any] = {}
    for param, arg in zip(macro.params, args):
        if param in mapping:
            continue  # duplicates bind to the first argument only
        if macro.kind == "scalar":
            if not isinstance(arg, PeScalar.__args__):
                raise MacroError(f"macro {name!r} takes scalar arguments")
            mapping[param] = arg
        elif macro.kind == "condition":
            # the body reads each parameter as a condition, a scalar or a path
            if not isinstance(arg, PeCond.__args__ + PeScalar.__args__ + PathExpr.__args__):
                raise MacroError(f"macro {name!r} takes condition arguments")
            mapping[param] = arg
        else:
            if isinstance(arg, (PeScalar.__args__, PeCond.__args__)):
                arg = memo.node(Scalar, arg) if isinstance(arg, PeScalar.__args__) else memo.node(CondPath, arg)
            mapping[param] = memo.node(Concat, memo.node(AttrAtom, fresh()), arg)
    return _subst(macro.body, mapping, memo)


# ---------------------------------------------------------------------------
# canonical text (debug dumps)


def path_text(p: Any) -> str:
    """Fully parenthesised concrete rendering of an expression tree."""
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
    if isinstance(p, (SetOp, RelCompare)):
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
        return render_value(p.value)
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
