"""Rendering path expressions back to query text.

Concatenation chains are walked left to right with the set of types to the
left threaded through, so the uniqueness guards can decide whether a bare
role name is unambiguous in its context or needs the fact-type suffix.
The connecting word IS is inserted between adjacent types, and a type's
postfix is emitted before a following role or mix-fix connection.

The input is expected to be normalised; coercion markers render as empty
strings so coerced and uncoerced queries read identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import paths as P
from .errors import VerbaliseError
from .schema import MFixEntry, Schema
from .values import Bool, format_number


@dataclass
class VerbCtx:
    schema: Schema
    typing: P.Typing = frozenset()
    vnm: dict = field(default_factory=dict)

    def all_types(self) -> frozenset:
        return frozenset(self.schema.types)

    def var(self, attr: str) -> str:
        if attr == P.HD:
            return "HEAD"
        if attr == P.TL:
            return "TAIL"
        name = self.vnm.get(attr, attr)
        if name.startswith("~"):
            raise VerbaliseError(f"internal attribute {attr!r} has no surface name")
        return name


def _tail_types(ctx: VerbCtx, p: Any) -> frozenset:
    combos = P.head_tail_combos(ctx.schema, p, ctx.typing)
    return frozenset(v for (_, v) in combos)


def _head_types(ctx: VerbCtx, p: Any) -> frozenset:
    combos = P.head_tail_combos(ctx.schema, p, ctx.typing)
    return frozenset(u for (u, _) in combos)


# ---------------------------------------------------------------------------
# uniqueness guards


def role_name_unique(schema: Schema, rid: str, left: frozenset, right: frozenset) -> bool:
    """A bare role name works when no same-named role fits the context."""
    name = schema.naming.pnm.get(rid)
    if name is None:
        return False
    for q, qname in schema.naming.pnm.items():
        if q == rid or qname != name:
            continue
        if schema.player(q) in left and schema.rel(q) in right:
            return False
    return True


def role_exit_name_unique(schema: Schema, rid: str, left: frozenset, right: frozenset) -> bool:
    name = schema.naming.rnm.get(rid)
    if name is None:
        return False
    for q, qname in schema.naming.rnm.items():
        if q == rid or qname != name:
            continue
        if schema.rel(q) in left and schema.player(q) in right:
            return False
    return True


def mfix_unique(schema: Schema, entry: MFixEntry, type_sets: list) -> bool:
    """No other mix-fix entry with the same parts fits every argument slot."""
    for other in schema.naming.mfix:
        if other.parts != entry.parts or other.roles == entry.roles:
            continue
        if len(other.roles) != len(type_sets):
            continue
        if all(schema.player(q) in ts for q, ts in zip(other.roles, type_sets)):
            return False
    return True


# ---------------------------------------------------------------------------
# the verbaliser


def _is_typeish(e: Any) -> bool:
    return isinstance(e, (P.TypeAtom, P.Denote))


def _postfix_for(schema: Schema, e: Any) -> str | None:
    if isinstance(e, P.RoleEntry):
        return schema.naming.post.get(schema.player(e.rid))
    if isinstance(e, P.Reverse) and isinstance(e.of, P.RoleEntry):
        return schema.naming.post.get(schema.rel(e.of.rid))
    if isinstance(e, P.MixFix):
        return schema.naming.post.get(schema.player(e.first))
    return None


def verbalise(p: Any, ctx: VerbCtx, left: frozenset | None = None) -> str:
    if left is None:
        left = ctx.all_types()
    return _pverb(p, ctx, left)


def _pverb(p: Any, ctx: VerbCtx, left: frozenset) -> str:
    schema = ctx.schema
    if isinstance(p, P.Empty):
        return "start"
    if isinstance(p, P.Concat):
        return _chain(P.flatten_concat(p), ctx, left)
    if isinstance(p, (P.TypeAtom, P.Denote, P.RoleEntry, P.MixFix, P.AttrAtom)) or (
        isinstance(p, P.Reverse) and isinstance(p.of, P.RoleEntry)
    ):
        return _chain([p], ctx, left)
    if isinstance(p, P.Reverse):
        return "THE REVERSE OF " + _unary_operand(p.of, ctx, left)
    if isinstance(p, P.Front):
        return "ONLY " + _unary_operand(p.of, ctx, left)
    if isinstance(p, P.DistinctPath):
        return "DISTINCT " + _unary_operand(p.of, ctx, left)
    if isinstance(p, (P.HdCoerce, P.TlCoerce)):
        return _pverb(p.of, ctx, left)
    if isinstance(p, (P.FrontUnion, P.FrontIntersect, P.FrontDiff)):
        word = {P.FrontUnion: "OR OTHERWISE", P.FrontIntersect: "AND ALSO", P.FrontDiff: "BUT NOT"}[type(p)]
        return f"{_operand(p.left, ctx, left)} {word} {_operand(p.right, ctx, left)}"
    if isinstance(p, (P.PathUnion, P.PathIntersect, P.PathDiff)):
        word = {P.PathUnion: "UNITED WITH", P.PathIntersect: "INTERSECTED WITH", P.PathDiff: "MINUS"}[type(p)]
        return f"{_operand(p.left, ctx, left)} {word} {_operand(p.right, ctx, left)}"
    if isinstance(p, P.SetCompare):
        word = {"all_in": "WHICH ARE ALL IN", "includes_all": "THAT INCLUDES ALL", "match_all": "MATCHING ALL"}[p.op]
        return f"{_operand(p.left, ctx, left)} {word} {_operand(p.right, ctx, left)}"
    if isinstance(p, P.MissingPath):
        return f"{_operand(p.left, ctx, left)} MISSING {_operand(p.right, ctx, left)}"
    if isinstance(p, P.Product):
        return f"{_operand(p.left, ctx, left)} WITH {_operand(p.right, ctx, left)}"
    if isinstance(p, P.RelCompare):
        return f"{_operand(p.left, ctx, left)} {p.op} {_operand(p.right, ctx, left)}"
    if isinstance(p, P.Shuffle):
        names = [ctx.var(a) for a in p.attrs]
        body = _pverb(p.of, ctx, ctx.all_types())
        if len(names) == 2:
            return f"THE PATH FROM {names[0]} TO {names[1]} OF {body}"
        via = ", ".join(names[1:-1])
        return f"THE PATH FROM {names[0]} VIA {via} TO {names[-1]} OF {body}"
    if isinstance(p, P.FuncApp):
        args = [_operand(a, ctx, left) for a in p.args]
        if p.func in ("+", "-", "*", "/") and len(args) == 2:
            return f"{args[0]} {p.func} {args[1]}"
        return f"{p.func}({', '.join(args)})"
    if isinstance(p, P.Where):
        return _selection(p, ctx, left)
    if isinstance(p, P.Confluence):
        parts = []
        for a, q, x in p.elements:
            text = _pverb(q, ctx, left)
            if a in ctx.vnm:
                text += f" AS {ctx.var(a)}"
            if x != P.HD:
                text += f" VIA {ctx.var(x)}"
            parts.append(text)
        return f"{', '.join(parts)} EACH {_pverb(p.of, ctx, left)}"
    if isinstance(p, P.GroupFn):
        return _grouping(p, ctx, left)
    if isinstance(p, P.SubExpr):
        inner = ", ".join(_pverb(q, ctx, left) for q in p.items)
        return f"[{inner}]"
    if isinstance(p, P.Scalar):
        return verbalise_scalar(p.expr, ctx, left)
    if isinstance(p, P.CondPath):
        return verbalise_cond(p.cond, ctx, left)
    raise VerbaliseError(f"no verbalisation rule for {type(p).__name__}")


def _unary_operand(p: Any, ctx: VerbCtx, left: frozenset) -> str:
    """Unary operators bind tighter than concatenation, so a chain operand
    needs parentheses to keep its extent."""
    text = _pverb(p, ctx, left)
    if isinstance(p, (P.TypeAtom, P.Denote, P.RoleEntry, P.AttrAtom, P.SubExpr)) or (
        isinstance(p, P.Reverse) and isinstance(p.of, P.RoleEntry)
    ):
        return text
    return f"({text})"


def _operand(p: Any, ctx: VerbCtx, left: frozenset) -> str:
    """Verbalise a binary operand, parenthesised when it is itself compound."""
    text = _pverb(p, ctx, left)
    compound = isinstance(
        p,
        (
            P.PathUnion, P.PathIntersect, P.PathDiff, P.FrontUnion, P.FrontIntersect,
            P.FrontDiff, P.SetCompare, P.MissingPath, P.Product, P.RelCompare,
            P.Where, P.Confluence, P.FuncApp,
        ),
    )
    if isinstance(p, (P.HdCoerce, P.TlCoerce)):
        return _operand(p.of, ctx, left)
    return f"({text})" if compound else text


def _chain(elems: list, ctx: VerbCtx, left: frozenset) -> str:
    schema = ctx.schema
    words: list[str] = []
    current = left
    for i, e in enumerate(elems):
        # a variable is an appositive of the type before it, so skip it when
        # deciding on IS insertion and postfix emission
        prev = None
        for back in reversed(elems[:i]):
            if not isinstance(back, P.AttrAtom):
                prev = back
                break
        suffix = elems[i + 1 :]
        right = _head_types(ctx, P.concat(*suffix)) if suffix else ctx.all_types()
        if prev is not None and _is_typeish(prev) and not isinstance(e, P.AttrAtom):
            if _is_typeish(e):
                words.append("IS")
            else:
                post = _postfix_for(schema, e)
                if post:
                    words.append(post)
        if prev is not None and _is_typeish(prev) and isinstance(e, P.Scalar):
            raise VerbaliseError("unnormalised type/scalar adjacency; normalise first")
        words.append(_element(e, ctx, current, right))
        current = _tail_types(ctx, e)
    return " ".join(w for w in words if w)


def _element(e: Any, ctx: VerbCtx, left: frozenset, right: frozenset) -> str:
    schema = ctx.schema
    if isinstance(e, P.TypeAtom):
        name = schema.naming.tnm.get(e.tid)
        if name is None:
            raise VerbaliseError(f"type {e.tid!r} has no name")
        pre = schema.naming.pre.get((e.tid, "undetermined"))
        return f"{pre} {name}" if pre else name
    if isinstance(e, P.Denote):
        name = schema.naming.tnm.get(e.tid)
        if name is None:
            raise VerbaliseError(f"type {e.tid!r} has no name")
        pre = schema.naming.pre.get((e.tid, "determined"))
        den = _den_verb(e.den, ctx, left)
        head = f"{pre} {name}" if pre else name
        return f"{head}: {den}"
    if isinstance(e, P.RoleEntry):
        name = schema.naming.pnm.get(e.rid)
        if name is not None and role_name_unique(schema, e.rid, left, right):
            return name
        if name is not None:
            fact_name = schema.naming.tnm.get(schema.rel(e.rid))
            if fact_name is not None:
                return f"{name}.{fact_name}"
        raise VerbaliseError(f"role {e.rid!r} cannot be verbalised")
    if isinstance(e, P.Reverse) and isinstance(e.of, P.RoleEntry):
        rid = e.of.rid
        name = schema.naming.rnm.get(rid)
        if name is not None and role_exit_name_unique(schema, rid, left, right):
            return name
        if name is not None:
            fact_name = schema.naming.tnm.get(schema.rel(rid))
            if fact_name is not None:
                return f"{name}.{fact_name}"
        raise VerbaliseError(f"role exit {rid!r} cannot be verbalised")
    if isinstance(e, P.MixFix):
        return _mixfix(e, ctx, left, right)
    if isinstance(e, P.AttrAtom):
        return ctx.var(e.attr)
    return _pverb(e, ctx, left)


def _mixfix(e: P.MixFix, ctx: VerbCtx, left: frozenset, right: frozenset) -> str:
    schema = ctx.schema
    entries = schema.mfix_for_roles(e.roles)
    middle_types = [_head_types(ctx, q) for _, q in e.middles]
    type_sets = [left] + middle_types + [right]
    for entry in entries:
        body = _mixfix_body(entry, e, ctx)
        if mfix_unique(schema, entry, type_sets):
            return body
        fact_name = schema.naming.tnm.get(entry.rel)
        if fact_name is None:
            continue
        first, rest = entry.parts[0], entry.parts[1:]
        suffixed = MFixEntry(entry.rel, (f"{first}.{fact_name}",) + rest, entry.roles)
        return _mixfix_body(suffixed, e, ctx)
    # no mix-fix naming: fall back to role name, fact name, reverse role name
    if not e.middles:
        pnm = schema.naming.pnm.get(e.first)
        rnm = schema.naming.rnm.get(e.last)
        fact = schema.naming.tnm.get(schema.rel(e.first))
        if pnm and rnm and fact:
            return f"{pnm} {fact} {rnm}"
    raise VerbaliseError(f"no mix-fix naming for roles {e.roles!r}")


def _mixfix_body(entry: MFixEntry, e: P.MixFix, ctx: VerbCtx) -> str:
    words = [entry.parts[0]]
    for part, (rid, q) in zip(entry.parts[1:], e.middles):
        words.append(_pverb(q, ctx, frozenset(ctx.schema.related_to(ctx.schema.player(rid)))))
        words.append(part)
    return " ".join(words)


def _selection(p: P.Where, ctx: VerbCtx, left: frozenset) -> str:
    branches = list(p.branches)
    if p.simple and len(branches) == 1 and p.default is None:
        body, cond = branches[0]
        return f"{_pverb(body, ctx, left)} WHERE {verbalise_cond(cond, ctx, left)}"
    if p.simple and len(branches) == 1 and p.default is not None:
        body, cond = branches[0]
        return (
            f"IF {verbalise_cond(cond, ctx, left)} THEN {_pverb(body, ctx, left)}"
            f" ELSE {_pverb(p.default, ctx, left)}"
        )
    parts = [f"{_pverb(b, ctx, left)} IF {verbalise_cond(c, ctx, left)}" for b, c in branches]
    if p.default is not None:
        parts.append(f"{_pverb(p.default, ctx, left)} OTHERWISE")
    return "; ".join(parts)


def _grouping(p: P.GroupFn, ctx: VerbCtx, left: frozenset) -> str:
    names = ", ".join(ctx.var(a) for a in p.by)
    body = _pverb(p.of, ctx, left)
    word = {
        "count": "THE COUNT OF",
        "dscount": "THE DISTINCT COUNT OF",
        "sum": "THE SUM OF",
        "dssum": "THE DISTINCT SUM OF",
        "min": "THE MINIMUM OF",
        "max": "THE MAXIMUM OF",
        "avg": "THE AVERAGE OF",
    }[p.kind]
    if p.kind in ("count", "dscount") or p.target == P.HD:
        return f"{word} {body} GROUPED BY {names}"
    return f"{word} {ctx.var(p.target)} IN {body} GROUPED BY {names}"


def _den_verb(d: Any, ctx: VerbCtx, left: frozenset) -> str:
    if isinstance(d, P.ByPath):
        return _pverb(d.path, ctx, left)
    if isinstance(d, P.Abstract):
        return f"!{ctx.var(d.attr)}"
    if isinstance(d, P.Composite):
        inner = ", ".join(_den_verb(x, ctx, left) for x in d.parts)
        if len(d.parts) == 1:
            return inner
        return f"({inner})"
    raise VerbaliseError(f"cannot verbalise denotation {d!r}")


# ---------------------------------------------------------------------------
# scalars and conditions


_AGG_WORDS = {
    "count": "THE COUNT OF",
    "sum": "THE SUM OF",
    "min": "THE MINIMUM OF",
    "max": "THE MAXIMUM OF",
    "avg": "THE AVERAGE OF",
}


def verbalise_scalar(e: Any, ctx: VerbCtx, left: frozenset | None = None) -> str:
    if left is None:
        left = ctx.all_types()
    if isinstance(e, P.SConst):
        v = e.value
        if isinstance(v, str):
            return f"'{v}'"
        if isinstance(v, Bool):
            return "true" if v.value else "false"
        return format_number(v)
    if isinstance(e, P.SAgg):
        return f"{_AGG_WORDS[e.kind]} {_pverb(e.of, ctx, left)}"
    if isinstance(e, P.SVar):
        return ctx.var(e.attr)
    if isinstance(e, P.SVarRole):
        rname = ctx.schema.naming.rnm.get(e.role)
        if rname is None:
            raise VerbaliseError(f"role {e.role!r} has no reverse name")
        return f"{ctx.var(e.attr)}.{rname}"
    if isinstance(e, P.SApply):
        args = [verbalise_scalar(a, ctx, left) for a in e.args]
        if e.func in ("+", "-", "*", "/") and len(args) == 2:
            wrapped = [
                f"({a})" if isinstance(x, P.SApply) else a
                for a, x in zip(args, e.args)
            ]
            return f"{wrapped[0]} {e.func} {wrapped[1]}"
        return f"{e.func}({', '.join(args)})"
    raise VerbaliseError(f"cannot verbalise scalar {e!r}")


_BAGCOMP_WORDS = {
    "=": "EQUALS",
    "<>": "DOES NOT EQUAL",
    "sub": "IS A SUBSET OF",
    "subeq": "IS A SUBSET OF OR EQUAL TO",
    "sup": "IS A SUPERSET OF",
    "supeq": "IS A SUPERSET OF OR EQUAL TO",
}

_LOGIC_WORDS = {"and": "AND", "or": "OR", "xor": "EXCLUSIVE OR", "implies": "IMPLIES", "iff": "IFF"}


def verbalise_cond(c: Any, ctx: VerbCtx, left: frozenset | None = None) -> str:
    if left is None:
        left = ctx.all_types()
    if isinstance(c, P.CSome):
        return f"SOME {_pverb(c.of, ctx, left)}"
    if isinstance(c, P.CBagComp):
        return f"{_operand(c.left, ctx, left)} {_BAGCOMP_WORDS[c.op]} {_operand(c.right, ctx, left)}"
    if isinstance(c, P.CExclusion):
        return f"{_operand(c.left, ctx, left)} IS DISJOINT FROM {_operand(c.right, ctx, left)}"
    if isinstance(c, P.CLogic):
        lhs = verbalise_cond(c.left, ctx, left)
        rhs = verbalise_cond(c.right, ctx, left)
        if isinstance(c.right, P.CLogic):
            rhs = f"({rhs})"
        return f"{lhs} {_LOGIC_WORDS[c.op]} {rhs}"
    if isinstance(c, P.CScalarComp):
        return f"{verbalise_scalar(c.left, ctx, left)} {c.op} {verbalise_scalar(c.right, ctx, left)}"
    if isinstance(c, P.CNot):
        inner = verbalise_cond(c.of, ctx, left)
        if isinstance(c.of, P.CLogic):
            inner = f"({inner})"
        return f"NOT {inner}"
    raise VerbaliseError(f"cannot verbalise condition {c!r}")


def verbalise_interpretation(schema: Schema, interp) -> str:
    """Render one parse interpretation back to normalised text."""
    norm = P.normalise(schema, interp.path)
    typing = P.infer_typing(schema, norm)
    ctx = VerbCtx(schema, typing, interp.vnm)
    return verbalise(norm, ctx)
