"""The stored form of parsed queries: one record per syntactic category.

A parse produces a tree of these records; ``dump_records`` prints it as a
numbered, depth-first listing with stable two-digit ids, strings quoted
and schema object ids bare.  A record's children are its fields in
declaration order, as ``walk.children`` finds them with ``RECORD_KINDS``.
A role access's role id, a negation's tilde and a selection's surface form
are printed only when set, after the fields every dump has.  A dump is
written for the reader and never read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..values import Bool, render_value
from ..walk import children


def _record(cls: type) -> type:
    """A frozen dataclass that keeps its hash in the instance ``__dict__``
    once worked out: ``parser._dedup`` hashes every tree of a parse, and the
    trees share their sub-records."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = fields_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_record
class TypeSpec:
    prefix: str | None
    type_name: str
    tid: str
    var_name: str | None = None
    denot: "Denot | None" = None


@_record
class Denot:
    inf: Any = None  # information descriptor record
    var_name: str | None = None  # the !v form
    parts: tuple = ()  # composite denotations


@_record
class RoleRef:
    postfix: str | None
    kind: str  # entry | exit
    role_name: str
    rid: str


@_record
class Const:
    value: Any


@_record
class MFix:
    postfix: str | None
    start_role: str
    items: tuple  # (part, role, descriptor record) triples


@_record
class UnaryOp:
    op: str  # THE REVERSE OF | ONLY | DISTINCT
    inf: Any


@_record
class BinaryOp:
    op: str  # "" for concatenation, otherwise the surface operator
    left: Any
    right: Any


@_record
class Shuffler:
    var_names: tuple
    inf: Any


@_record
class Function:
    name: str
    args: tuple


@_record
class Selection:
    pairs: tuple  # (descriptor, condition) pairs
    default: Any = None
    form: str = "where"  # where | ifthen | ifthenelse | alts | alts_default


@_record
class Confluence:
    base: Any
    elements: tuple  # (aspect record, as name | None, via name | None)


@_record
class GroupAcct:
    func: str
    var_name: str | None
    inf: Any
    grouping: tuple


@_record
class SubExpr:
    items: tuple


@_record
class ScConst:
    value: Any


@_record
class CoerceFunction:
    func: str
    inf: Any


@_record
class VarName:
    name: str
    role_name: str | None = None
    rid: str | None = None


@_record
class ScFunction:
    name: str
    args: tuple


@_record
class ScBinaryOp:
    op: str
    left: Any
    right: Any


@_record
class Conditioner:
    inf: Any


@_record
class InfDescrComp:
    left: Any
    right: Any
    op: str


@_record
class ScaleExprComp:
    left: Any
    right: Any
    op: str


@_record
class BinCondComp:
    left: Any
    right: Any
    conn: str


@_record
class CondFunction:
    name: str
    conds: tuple


@_record
class Negation:
    cond: Any
    tilde: bool = False


@_record
class ListStatement:
    projection: tuple | None
    inf: Any
    order: "OrderClause | None"


@_record
class OrderClause:
    kind: str  # whole_asc | whole_desc | items
    items: tuple = ()  # (var name, "asc" | "desc") pairs


# every kind of record in a parse tree; ``OrderClause`` is a part of
# ``ListStatement``, not a child record
RECORD_KINDS = frozenset({
    TypeSpec, Denot, RoleRef, Const, MFix, UnaryOp, BinaryOp, Shuffler, Function,
    Selection, Confluence, GroupAcct, SubExpr, ScConst, CoerceFunction, VarName,
    ScFunction, ScBinaryOp, Conditioner, InfDescrComp, ScaleExprComp, BinCondComp,
    CondFunction, Negation, ListStatement,
})

# the records that parse a condition rather than a descriptor
CONDITION_KINDS = (Conditioner, InfDescrComp, ScaleExprComp, BinCondComp, CondFunction, Negation)


# ---------------------------------------------------------------------------
# dumping


def _number(root: Any) -> dict[int, tuple[int, Any]]:
    order: list = []

    def walk(r):
        order.append(r)
        for c in children(r, RECORD_KINDS):
            walk(c)

    walk(root)
    return {id(r): (i, r) for i, r in enumerate(order)}


def _s(text: str | None) -> str:
    return "NULL" if text is None else f'"{text}"'


def _const_text(v: Any) -> str:
    # a record keeps the lexer's Python bool
    return render_value(Bool(v) if isinstance(v, bool) else v)


def dump_records(root: Any) -> str:
    numbering = _number(root)

    def ref(r) -> str:
        return f"{numbering[id(r)][0]:02d}"

    lines = []
    for i, r in sorted(numbering.values()):
        lines.append(f"{i:02d} {_format(r, ref)}")
    return "\n".join(lines)


def _format(r: Any, ref) -> str:
    if isinstance(r, TypeSpec):
        den = ref(r.denot) if r.denot is not None else "NULL"
        return f"TYPE_SPEC({_s(r.prefix)}, {_s(r.type_name)}, {r.tid}, {_s(r.var_name)}, {den})"
    if isinstance(r, Denot):
        inf = ref(r.inf) if r.inf is not None else "NULL"
        parts = "{" + ",".join(ref(p) for p in r.parts) + "}" if r.parts else "NULL"
        return f"DENOT({inf}, {_s(r.var_name)}, {parts})"
    if isinstance(r, RoleRef):
        return f"ROLE_REF({_s(r.postfix)}, {r.kind}, {_s(r.role_name)}, {r.rid})"
    if isinstance(r, Const):
        return f"CONST({_s(_const_text(r.value))})"
    if isinstance(r, MFix):
        inner = ", ".join(f'"{part}", {role}, {ref(d)}' for part, role, d in r.items)
        return f"MFIX({_s(r.postfix)}, {r.start_role}, {{{inner}}})"
    if isinstance(r, UnaryOp):
        return f"UNARY_OP_APPLIC({_s(r.op)}, {ref(r.inf)})"
    if isinstance(r, BinaryOp):
        return f"BINARY_OP_APPLIC({_s(r.op)}, {ref(r.left)}, {ref(r.right)})"
    if isinstance(r, Shuffler):
        names = "{" + ", ".join(f'"{n}"' for n in r.var_names) + "}"
        return f"SHUFFLE({names}, {ref(r.inf)})"
    if isinstance(r, Function):
        return f"FUNCTION({_s(r.name)}, {{{','.join(ref(a) for a in r.args)}}})"
    if isinstance(r, Selection):
        pairs = ",".join("{" + f"{ref(d)},{ref(c)}" + "}" for d, c in r.pairs)
        default = ref(r.default) if r.default is not None else "NULL"
        form = f", {_s(r.form)}" if r.form != "where" else ""
        return f"SELECTION({{{pairs}}}, {default}{form})"
    if isinstance(r, Confluence):
        elems = ", ".join(f"{ref(a)}, {_s(asn)}, {_s(via)}" for a, asn, via in r.elements)
        return f"CONFLUENCE({ref(r.base)}, {{{elems}}})"
    if isinstance(r, GroupAcct):
        grouping = "{" + ", ".join(f'"{n}"' for n in r.grouping) + "}"
        return f"GROUP_ACCT({_s(r.func)}, {_s(r.var_name)}, {ref(r.inf)}, {grouping})"
    if isinstance(r, SubExpr):
        return f"SUB_EXPR({{{','.join(ref(x) for x in r.items)}}})"
    if isinstance(r, ScConst):
        return f"SC_CONST({_s(_const_text(r.value))})"
    if isinstance(r, CoerceFunction):
        return f"COERCE_FUNCTION({_s(r.func)}, {{{ref(r.inf)}}})"
    if isinstance(r, VarName):
        rid = f", {r.rid}" if r.rid is not None else ""
        return f"VAR_NAME({_s(r.name)}, {_s(r.role_name)}{rid})"
    if isinstance(r, ScFunction):
        return f"SC_FUNCTION({_s(r.name)}, {{{','.join(ref(a) for a in r.args)}}})"
    if isinstance(r, ScBinaryOp):
        return f"SC_BINARY_OP_APPLIC({_s(r.op)}, {ref(r.left)}, {ref(r.right)})"
    if isinstance(r, Conditioner):
        return f"CONDITIONER({ref(r.inf)})"
    if isinstance(r, InfDescrComp):
        return f"INF_DESCR_COMP({ref(r.left)}, {ref(r.right)}, {_s(r.op)})"
    if isinstance(r, ScaleExprComp):
        return f"SCALE_EXPR_COMP({ref(r.left)}, {ref(r.right)}, {_s(r.op)})"
    if isinstance(r, BinCondComp):
        return f"BIN_COND_COMP({ref(r.left)}, {ref(r.right)}, {_s(r.conn)})"
    if isinstance(r, CondFunction):
        return f"COND_FUNCTION({_s(r.name)}, {{{','.join(ref(c) for c in r.conds)}}})"
    if isinstance(r, Negation):
        tilde = ', "~"' if r.tilde else ""
        return f"NEGATION({ref(r.cond)}{tilde})"
    if isinstance(r, ListStatement):
        proj = "{" + ",".join(ref(s) for s in r.projection) + "}" if r.projection else "NULL"
        if r.order is None:
            order = "NULL"
        elif r.order.kind == "items":
            order = "{" + ", ".join(f'"{n}", {d.upper()}' for n, d in r.order.items) + "}"
        else:
            order = '"ASCENDING"' if r.order.kind == "whole_asc" else '"DESCENDING"'
        return f"LIST({proj}, {ref(r.inf)}, {order})"
    raise TypeError(f"cannot dump {r!r}")
