"""The stored form of parsed queries: one record per syntactic category.

A parse produces a tree of these records; ``dump_records`` prints it as a
numbered, depth-first listing with stable two-digit ids, strings quoted
and schema object ids bare.  A record's children are its fields in
declaration order, as ``walk.children`` finds them with ``RECORD_KINDS``.
A role access's role id, a negation's tilde and a selection's surface form
are printed only when set, after the fields every dump has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ..values import format_number
from ..walk import children


@dataclass(frozen=True)
class TypeSpec:
    prefix: str | None
    type_name: str
    tid: str
    var_name: str | None = None
    denot: "Denot | None" = None


@dataclass(frozen=True)
class Denot:
    inf: Any = None  # information descriptor record
    var_name: str | None = None  # the !v form
    parts: tuple = ()  # composite denotations


@dataclass(frozen=True)
class RoleRef:
    postfix: str | None
    kind: str  # entry | exit
    role_name: str
    rid: str


@dataclass(frozen=True)
class Const:
    value: Any


@dataclass(frozen=True)
class MFix:
    postfix: str | None
    start_role: str
    items: tuple  # (part, role, descriptor record) triples


@dataclass(frozen=True)
class UnaryOp:
    op: str  # THE REVERSE OF | ONLY | DISTINCT
    inf: Any


@dataclass(frozen=True)
class BinaryOp:
    op: str  # "" for concatenation, otherwise the surface operator
    left: Any
    right: Any


@dataclass(frozen=True)
class Shuffler:
    var_names: tuple
    inf: Any


@dataclass(frozen=True)
class Function:
    name: str
    args: tuple


@dataclass(frozen=True)
class Selection:
    pairs: tuple  # (descriptor, condition) pairs
    default: Any = None
    form: str = "where"  # where | ifthen | ifthenelse | alts | alts_default


@dataclass(frozen=True)
class Confluence:
    base: Any
    elements: tuple  # (aspect record, as name | None, via name | None)


@dataclass(frozen=True)
class GroupAcct:
    func: str
    var_name: str | None
    inf: Any
    grouping: tuple


@dataclass(frozen=True)
class SubExpr:
    items: tuple


@dataclass(frozen=True)
class ScConst:
    value: Any


@dataclass(frozen=True)
class CoerceFunction:
    func: str
    inf: Any


@dataclass(frozen=True)
class VarName:
    name: str
    role_name: str | None = None
    rid: str | None = None


@dataclass(frozen=True)
class ScFunction:
    name: str
    args: tuple


@dataclass(frozen=True)
class ScBinaryOp:
    op: str
    left: Any
    right: Any


@dataclass(frozen=True)
class Conditioner:
    inf: Any


@dataclass(frozen=True)
class InfDescrComp:
    left: Any
    right: Any
    op: str


@dataclass(frozen=True)
class ScaleExprComp:
    left: Any
    right: Any
    op: str


@dataclass(frozen=True)
class BinCondComp:
    left: Any
    right: Any
    conn: str


@dataclass(frozen=True)
class CondFunction:
    name: str
    conds: tuple


@dataclass(frozen=True)
class Negation:
    cond: Any
    tilde: bool = False


@dataclass(frozen=True)
class ListStatement:
    projection: tuple | None
    inf: Any
    order: "OrderClause | None"


@dataclass(frozen=True)
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return f"'{v}'"
    if isinstance(v, (int, Fraction)):
        return format_number(v)
    return str(v)


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


# ---------------------------------------------------------------------------
# reading a dump back


def _parse_const(text: str) -> Any:
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    if "." in text or "/" in text:
        return Fraction(text)
    return int(text)


def _split_args(body: str) -> list[str]:
    args = []
    depth = 0
    cur = []
    in_str = False
    for ch in body:
        if in_str:
            cur.append(ch)
            if ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            cur.append(ch)
        elif ch in "{(":
            depth += 1
            cur.append(ch)
        elif ch in "})":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        args.append("".join(cur).strip())
    return args


def load_records(text: str) -> Any:
    """Rebuild a record tree from its dump; inverse of ``dump_records``."""
    entries: dict[int, tuple[str, list[str]]] = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        num, rest = line.split(" ", 1)
        name, body = rest.split("(", 1)
        entries[int(num)] = (name, _split_args(body.rstrip()[:-1]))

    def opt_str(a: str) -> str | None:
        return None if a == "NULL" else a.strip('"')

    def ref(a: str) -> Any:
        return build(int(a))

    def opt_ref(a: str) -> Any:
        return None if a == "NULL" else build(int(a))

    def ids(a: str) -> list[int]:
        inner = a.strip()[1:-1].strip()
        return [int(x) for x in _split_args(inner)] if inner else []

    def build(num: int) -> Any:
        name, args = entries[num]
        if name == "TYPE_SPEC":
            return TypeSpec(opt_str(args[0]), args[1].strip('"'), args[2], opt_str(args[3]), opt_ref(args[4]))
        if name == "DENOT":
            inf = None if args[0] == "NULL" else build(int(args[0]))
            parts = tuple(build(i) for i in ids(args[2])) if args[2] != "NULL" else ()
            return Denot(inf, opt_str(args[1]), parts)
        if name == "ROLE_REF":
            return RoleRef(opt_str(args[0]), args[1], args[2].strip('"'), args[3])
        if name == "CONST":
            return Const(_parse_const(args[0].strip('"')))
        if name == "SC_CONST":
            return ScConst(_parse_const(args[0].strip('"')))
        if name == "MFIX":
            inner = _split_args(args[2].strip()[1:-1])
            items = tuple(
                (inner[i].strip('"'), inner[i + 1], build(int(inner[i + 2])))
                for i in range(0, len(inner), 3)
            )
            return MFix(opt_str(args[0]), args[1], items)
        if name == "UNARY_OP_APPLIC":
            return UnaryOp(args[0].strip('"'), ref(args[1]))
        if name == "BINARY_OP_APPLIC":
            return BinaryOp(args[0].strip('"'), ref(args[1]), ref(args[2]))
        if name == "SHUFFLE":
            names = tuple(x.strip('"') for x in _split_args(args[0].strip()[1:-1]))
            return Shuffler(names, ref(args[1]))
        if name == "FUNCTION":
            return Function(args[0].strip('"'), tuple(build(i) for i in ids(args[1])))
        if name == "SELECTION":
            inner = args[0].strip()[1:-1]
            pairs = tuple(
                (build(int(a)), build(int(b)))
                for a, b in (pair.strip()[1:-1].split(",") for pair in _split_args(inner))
            )
            return Selection(pairs, opt_ref(args[1]), args[2].strip('"') if len(args) > 2 else "where")
        if name == "CONFLUENCE":
            inner = _split_args(args[1].strip()[1:-1])
            elements = tuple(
                (build(int(inner[i])), opt_str(inner[i + 1]), opt_str(inner[i + 2]))
                for i in range(0, len(inner), 3)
            )
            return Confluence(ref(args[0]), elements)
        if name == "GROUP_ACCT":
            grouping = tuple(x.strip('"') for x in _split_args(args[3].strip()[1:-1]))
            return GroupAcct(args[0].strip('"'), opt_str(args[1]), ref(args[2]), grouping)
        if name == "SUB_EXPR":
            return SubExpr(tuple(build(i) for i in ids(args[0])))
        if name == "COERCE_FUNCTION":
            return CoerceFunction(args[0].strip('"'), build(ids(args[1])[0]))
        if name == "VAR_NAME":
            return VarName(args[0].strip('"'), opt_str(args[1]), args[2] if len(args) > 2 else None)
        if name == "SC_FUNCTION":
            return ScFunction(args[0].strip('"'), tuple(build(i) for i in ids(args[1])))
        if name == "SC_BINARY_OP_APPLIC":
            return ScBinaryOp(args[0].strip('"'), ref(args[1]), ref(args[2]))
        if name == "CONDITIONER":
            return Conditioner(ref(args[0]))
        if name == "INF_DESCR_COMP":
            return InfDescrComp(ref(args[0]), ref(args[1]), args[2].strip('"'))
        if name == "SCALE_EXPR_COMP":
            return ScaleExprComp(ref(args[0]), ref(args[1]), args[2].strip('"'))
        if name == "BIN_COND_COMP":
            return BinCondComp(ref(args[0]), ref(args[1]), args[2].strip('"'))
        if name == "COND_FUNCTION":
            return CondFunction(args[0].strip('"'), tuple(build(i) for i in ids(args[1])))
        if name == "NEGATION":
            return Negation(ref(args[0]), len(args) > 1)
        if name == "LIST":
            projection = tuple(build(i) for i in ids(args[0])) if args[0] != "NULL" else None
            if args[2] == "NULL":
                order = None
            elif args[2].startswith("{"):
                inner = _split_args(args[2][1:-1])
                order = OrderClause("items", tuple((n.strip('"'), d.lower()) for n, d in zip(inner[::2], inner[1::2])))
            else:
                order = OrderClause("whole_asc" if args[2] == '"ASCENDING"' else "whole_desc")
            return ListStatement(projection, ref(args[1]), order)
        raise ValueError(f"unknown record {name!r}")

    return build(0)
