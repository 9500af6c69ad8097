"""Lowering parsed records into path expressions.

Variables scope over the whole query except under the path shuffler, which
opens a fresh frame.  Each interpretation carries its own lowered tree,
typing and variable-name table; structurally empty interpretations are
dropped by ``disambiguate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from .. import paths as P
from ..errors import AmbiguityError, ConquerError, MacroError, ParseError, TranslateError
from ..schema import AttrName, Macro, FactRule, Schema, TypeRule
from ..values import Bool
from ..walk import children
from . import records as R
from .lexer import tokenize
from .parser import parse_list_records, parse_records

UNARY_MAP = {"THE REVERSE OF": P.Reverse, "ONLY": P.Front, "DISTINCT": P.DistinctPath}
SETOP_MAP = {
    "UNITED WITH": P.PathUnion,
    "INTERSECTED WITH": P.PathIntersect,
    "MINUS": P.PathDiff,
    "OR OTHERWISE": P.FrontUnion,
    "AND ALSO": P.FrontIntersect,
    "BUT NOT": P.FrontDiff,
}
SETCMP_MAP = {
    "WHICH ARE ALL IN": "all_in",
    "THAT INCLUDES ALL": "includes_all",
    "MATCHING ALL": "match_all",
}
VALUECOMP_MAP = {
    "=": "=",
    "IS EQUAL TO": "=",
    "<>": "<>",
    "IS NOT EQUAL TO": "<>",
    "<": "<",
    "IS LESS THAN": "<",
    "<=": "<=",
    "IS LESS THAN OR EQUAL TO": "<=",
    ">": ">",
    "IS GREATER THAN": ">",
    ">=": ">=",
    "IS GREATER THAN OR EQUAL TO": ">=",
}
LOGIC_MAP = {
    "AND": "and",
    "&": "and",
    "OR": "or",
    "EXCLUSIVE OR": "xor",
    "IMPLIES": "implies",
    "=>": "implies",
    "IFF": "iff",
    "<=>": "iff",
}
AGG_MAP = {
    "THE COUNT OF": "count",
    "THE SUM OF": "sum",
    "THE MINIMUM OF": "min",
    "THE MINIMUM": "min",
    "THE MAXIMUM OF": "max",
    "THE MAXIMUM": "max",
    "THE AVERAGE OF": "avg",
    "THE AVERAGE": "avg",
}
GROUP_MAP = {
    "THE COUNT OF": "count",
    "THE DISTINCT COUNT OF": "dscount",
    "THE SUM OF": "sum",
    "THE DISTINCT SUM OF": "dssum",
    "THE MINIMUM OF": "min",
    "THE MAXIMUM OF": "max",
    "THE AVERAGE OF": "avg",
}
ARITH = {"+", "-", "*", "/"}


class NameEnv:
    """Variable scoping: one global frame plus one frame per shuffle body."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.frames: list[dict[str, AttrName]] = [{}]
        self._fresh = itertools.count(1)
        self.active_macros: set[str] = set()

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> dict[str, AttrName]:
        return self.frames.pop()

    def resolve(self, name: str) -> AttrName:
        """Bind or look up a variable in the current scope.

        Shuffle bodies are separate scopes: a name used inside one is a new
        variable there, and only gets a distinguishing suffix when it would
        otherwise collide with an outer binding.
        """
        if name == "HEAD":
            return P.HD
        if name == "TAIL":
            return P.TL
        frame = self.frames[-1]
        if name in frame:
            return frame[name]
        shadowed = any(name in f for f in self.frames[:-1])
        attr = name if not shadowed else f"{name}@{len(self.frames)}"
        frame[name] = attr
        return attr

    def lookup(self, name: str) -> AttrName | None:
        if name == "HEAD":
            return P.HD
        if name == "TAIL":
            return P.TL
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None

    def frame_attr(self, name: str) -> AttrName | None:
        return self.frames[-1].get(name)

    def fresh(self) -> AttrName:
        return f"~q{next(self._fresh)}"

    def vnm(self) -> dict[AttrName, str]:
        out: dict[AttrName, str] = {P.HD: "HEAD", P.TL: "TAIL"}
        for frame in self.frames:
            for name, attr in frame.items():
                out[attr] = name
        return out


class Lowerer:
    def __init__(self, schema: Schema, env: NameEnv | None = None):
        self.schema = schema
        self.env = env or NameEnv(schema)

    # -- descriptors -----------------------------------------------------

    def descr(self, rec: Any) -> P.PathExpr:
        schema = self.schema
        if isinstance(rec, R.TypeSpec):
            base: P.PathExpr = P.TypeAtom(rec.tid)
            if rec.var_name is not None:
                return P.Concat(base, P.AttrAtom(self.env.resolve(rec.var_name)))
            if rec.denot is not None:
                return P.Denote(rec.tid, self.denot(rec.denot))
            return base
        if isinstance(rec, R.RoleRef):
            return P.RoleEntry(rec.rid) if rec.kind == "entry" else P.role_exit(rec.rid)
        if isinstance(rec, (R.Const, R.ScConst)):
            return P.Scalar(self.scalar(rec))
        if isinstance(rec, R.VarName):
            if rec.role_name is not None:
                return P.Scalar(self.scalar(rec))
            return P.AttrAtom(self.env.resolve(rec.name))
        if isinstance(rec, R.MFix):
            middles = tuple((role, self.descr(d)) for _, role, d in rec.items[:-1])
            last_part, last_role, continuation = rec.items[-1]
            node = P.MixFix(rec.start_role, middles, last_role)
            return P.Concat(node, self.descr(continuation))
        if isinstance(rec, R.UnaryOp):
            return UNARY_MAP[rec.op](self.descr(rec.inf))
        if isinstance(rec, R.BinaryOp):
            return self.binary(rec)
        if isinstance(rec, R.Shuffler):
            return self.shuffler(rec)
        if isinstance(rec, R.Function):
            return self.function(rec)
        if isinstance(rec, R.Selection):
            return self.selection(rec)
        if isinstance(rec, R.Confluence):
            return self.confluence(rec)
        if isinstance(rec, R.GroupAcct):
            return self.group_acct(rec)
        if isinstance(rec, R.SubExpr):
            return P.SubExpr(tuple(self.descr(i) for i in rec.items))
        if isinstance(rec, R.CoerceFunction):
            return P.Scalar(self.scalar(rec))
        if isinstance(rec, R.CONDITION_KINDS):
            return P.CondPath(self.cond(rec))
        raise TranslateError(f"cannot lower {type(rec).__name__}")

    def binary(self, rec: R.BinaryOp) -> P.PathExpr:
        op = rec.op
        if op == "":
            return P.Concat(self.descr(rec.left), self.descr(rec.right))
        if op in SETOP_MAP:
            return SETOP_MAP[op](self.descr(rec.left), self.descr(rec.right))
        if op in SETCMP_MAP:
            return P.SetCompare(self.descr(rec.left), SETCMP_MAP[op], self.descr(rec.right))
        if op == "MISSING":
            return P.MissingPath(self.descr(rec.left), self.descr(rec.right))
        if op == "WITH":
            return P.Product(self.descr(rec.left), self.descr(rec.right))
        if op == "IS":
            return self.subtype_glue(rec)
        if op in VALUECOMP_MAP:
            left = self.descr(rec.left)
            right = self.descr(rec.right)
            return P.RelCompare(P.TlCoerce(left), VALUECOMP_MAP[op], P.HdCoerce(right))
        if op in ARITH:
            ls = self.try_scalar(rec.left)
            rs = self.try_scalar(rec.right)
            if ls is not None and rs is not None:
                return P.Scalar(P.SApply(op, [ls, rs]))
            return P.FuncApp(op, [P.HdCoerce(self.descr(rec.left)), P.HdCoerce(self.descr(rec.right))])
        raise TranslateError(f"unknown binary operator {op!r}")

    def subtype_glue(self, rec: R.BinaryOp) -> P.PathExpr:
        left = self.descr(rec.left)
        right = self.descr(rec.right)
        last = {e for e in P._last_atoms(left) if e[0] == "type"}
        first = {e for e in P._first_atoms(right) if e[0] == "type"}
        ok = any(
            self.schema.type_related(x[1], y[1]) for x in last for y in first
        )
        if not last or not first or not ok:
            raise TranslateError("IS must connect two related types")
        return P.Concat(left, right)

    def shuffler(self, rec: R.Shuffler) -> P.PathExpr:
        self.env.push()
        try:
            if isinstance(rec.inf, R.CONDITION_KINDS):
                body: P.PathExpr = P.CondPath(self.cond(rec.inf))
            else:
                body = self.descr(rec.inf)
            attrs = []
            for name in rec.var_names:
                if name in ("HEAD", "TAIL"):
                    attrs.append(P.HD if name == "HEAD" else P.TL)
                    continue
                attr = self.env.frame_attr(name)
                if attr is None:
                    raise TranslateError(f"path list names unknown variable {name!r}")
                attrs.append(attr)
        finally:
            self.env.pop()
        return P.Shuffle(body, attrs)

    def function(self, rec: R.Function) -> P.PathExpr:
        macro = self.schema.macros.get(rec.name)
        if macro is not None:
            return self.expand_macro_call(macro, rec.args)
        if rec.name in self.env.active_macros or any(
            m.get("name") == rec.name for m in self.schema.raw_macros
        ):
            raise MacroError(f"recursive macro {rec.name!r}")
        scalars = [self.try_scalar(a) for a in rec.args]
        if all(s is not None for s in scalars):
            return P.Scalar(P.SApply(rec.name, scalars))
        return P.FuncApp(rec.name, [P.HdCoerce(self.descr(a)) for a in rec.args])

    def expand_macro_call(self, macro: Macro, args: tuple) -> Any:
        if macro.kind == "scalar":
            lowered = [self.scalar(a) for a in args]
        elif macro.kind == "condition":
            lowered = [self.cond(a) for a in args]
        else:
            lowered = [self.descr(a) for a in args]
        expansion = P.expand_macro(self.schema, macro.name, lowered, fresh=self.env.fresh)
        if macro.kind == "scalar":
            return P.Scalar(expansion)
        if macro.kind == "condition":
            return P.CondPath(expansion)
        return expansion

    def selection(self, rec: R.Selection) -> P.PathExpr:
        pairs = tuple((self.descr(d), self.cond(c)) for d, c in rec.pairs)
        default = self.descr(rec.default) if rec.default is not None else None
        simple = rec.form in ("where", "ifthen", "ifthenelse")
        return P.Where(pairs, default, simple)

    def confluence(self, rec: R.Confluence) -> P.PathExpr:
        base = self.descr(rec.base)
        elements = []
        for aspect, as_name, via_name in rec.elements:
            q = self.descr(aspect)
            a = self.env.resolve(as_name) if as_name is not None else self.env.fresh()
            if via_name is not None:
                x = self.env.lookup(via_name)
                if x is None:
                    raise TranslateError(f"confluence names unknown variable {via_name!r}")
            else:
                x = P.HD
            elements.append((a, q, x))
        return P.Confluence(elements, base)

    def group_acct(self, rec: R.GroupAcct) -> P.PathExpr:
        kind = GROUP_MAP[rec.func]
        body = self.descr(rec.inf)
        by = tuple(self.env.resolve(n) for n in rec.grouping)
        if kind in ("count", "dscount"):
            if rec.var_name is not None:
                raise TranslateError("counting group functions take no target variable")
            return P.GroupFn(kind, body, by)
        target = self.env.resolve(rec.var_name) if rec.var_name is not None else P.HD
        return P.GroupFn(kind, body, by, target)

    # -- scalars -----------------------------------------------------------

    def scalar(self, rec: Any) -> P.PeScalar:
        out = self.try_scalar(rec)
        if out is None:
            raise TranslateError(f"{type(rec).__name__} is not a scalar expression")
        return out

    def try_scalar(self, rec: Any) -> P.PeScalar | None:
        if isinstance(rec, (R.Const, R.ScConst)):
            value = Bool(rec.value) if isinstance(rec.value, bool) else rec.value
            return P.SConst(value)
        if isinstance(rec, R.VarName):
            attr = self.env.resolve(rec.name)
            if rec.role_name is not None:
                return P.SVarRole(attr, rec.rid)
            return P.SVar(attr)
        if isinstance(rec, R.CoerceFunction):
            kind = AGG_MAP[rec.func]
            return P.SAgg(kind, P.HdCoerce(self.descr(rec.inf)))
        if isinstance(rec, (R.ScFunction, R.Function)):
            macro = self.schema.macros.get(rec.name)
            if macro is not None and macro.kind == "scalar":
                lowered = [self.scalar(a) for a in rec.args]
                return P.expand_macro(self.schema, macro.name, lowered, fresh=self.env.fresh)
            if macro is None and (
                rec.name in self.env.active_macros
                or any(m.get("name") == rec.name for m in self.schema.raw_macros)
            ):
                raise MacroError(f"recursive macro {rec.name!r}")
            args = [self.try_scalar(a) for a in rec.args]
            if any(a is None for a in args):
                return None
            return P.SApply(rec.name, args)
        if isinstance(rec, (R.ScBinaryOp, R.BinaryOp)) and getattr(rec, "op", None) in ARITH:
            left = self.try_scalar(rec.left)
            right = self.try_scalar(rec.right)
            if left is None or right is None:
                return None
            return P.SApply(rec.op, [left, right])
        return None

    # -- conditions ----------------------------------------------------------

    def cond(self, rec: Any) -> P.PeCond:
        if isinstance(rec, R.Conditioner):
            return P.CSome(self.descr(rec.inf))
        if isinstance(rec, R.InfDescrComp):
            left = self.descr(rec.left)
            right = self.descr(rec.right)
            if rec.op == "disjoint":
                return P.CExclusion(left, right)
            return P.CBagComp(left, rec.op, right)
        if isinstance(rec, R.ScaleExprComp):
            return P.CScalarComp(self.scalar(rec.left), VALUECOMP_MAP[rec.op], self.scalar(rec.right))
        if isinstance(rec, R.BinCondComp):
            return P.CLogic(self.cond(rec.left), LOGIC_MAP[rec.conn], self.cond(rec.right))
        if isinstance(rec, R.Negation):
            return P.CNot(self.cond(rec.cond))
        if isinstance(rec, R.CondFunction):
            macro = self.schema.macros.get(rec.name)
            if macro is None or macro.kind != "condition":
                raise TranslateError(f"unknown condition function {rec.name!r}")
            lowered = [self.cond(a) for a in rec.conds]
            return P.expand_macro(self.schema, macro.name, lowered, fresh=self.env.fresh)
        raise TranslateError(f"cannot lower condition {type(rec).__name__}")

    # -- denotations ------------------------------------------------------------

    def denot(self, rec: R.Denot) -> P.PeDenotation:
        if rec.var_name is not None:
            return P.Abstract(self.env.resolve(rec.var_name))
        if rec.parts:
            return P.Composite(tuple(self.denot(p) for p in rec.parts))
        return P.ByPath(self.descr(rec.inf))


# ---------------------------------------------------------------------------
# public surface


@dataclass
class Interpretation:
    records: Any
    path: P.PathExpr
    typing: P.Typing
    vnm: dict[AttrName, str]
    projection: tuple | None = None  # lowered projection scalars, with labels
    order: tuple = ()  # OrderKey sequence
    verbalisation: str | None = None


@dataclass
class ParseResult:
    interpretations: list[Interpretation]
    diagnostics: list[str] = field(default_factory=list)
    ambiguous: bool = False


def lower_denotation(schema: Schema, tid: str, denot: R.Denot, env: NameEnv | None = None) -> P.PathExpr:
    """Expand an instance denotation under a type into its guarded path."""
    lowerer = Lowerer(schema, env or NameEnv(schema))
    return P.expand_denote(schema, P.Denote(tid, lowerer.denot(denot)))


def lower_query(schema: Schema, rec: Any, env: NameEnv | None = None) -> tuple[P.PathExpr, NameEnv]:
    env = env or NameEnv(schema)
    lowerer = Lowerer(schema, env)
    if isinstance(rec, R.CONDITION_KINDS):
        return P.CondPath(lowerer.cond(rec)), env
    return lowerer.descr(rec), env


def _interpret(schema: Schema, rec: Any) -> Interpretation:
    if isinstance(rec, R.ListStatement):
        env = NameEnv(schema)
        path, env = lower_query(schema, rec.inf, env)
        typing = P.infer_typing(schema, path)
        projection = None
        if rec.projection is not None:
            lowerer = Lowerer(schema, env)
            projection = tuple(lowerer.scalar(s) for s in rec.projection)
        order = _lower_order(rec.order, env)
        return Interpretation(rec, path, typing, env.vnm(), projection, order)
    path, env = lower_query(schema, rec)
    typing = P.infer_typing(schema, path)
    return Interpretation(rec, path, typing, env.vnm())


def _lower_order(order: R.OrderClause | None, env: NameEnv) -> tuple:
    if order is None:
        return ()
    if order.kind == "whole_asc":
        return (P.OrderKey(P.HD, "asc"),)
    if order.kind == "whole_desc":
        return (P.OrderKey(P.HD, "desc"),)
    keys = []
    for name, direction in order.items:
        attr = env.lookup(name)
        if attr is None:
            raise TranslateError(f"order clause names unknown variable {name!r}")
        keys.append(P.OrderKey(attr, direction))
    return tuple(keys)


_SYMBOL_COMPARATORS = {"<", "<=", "=", "<>", ">=", ">"}


def _setwise_symbol_count(rec: Any) -> int:
    """Comparator symbols read as set comparisons; the scalar reading of the
    same symbol is preferred when both exist."""
    own = 1 if isinstance(rec, R.InfDescrComp) and rec.op in ("sub", "subeq", "=", "<>", "supeq", "sup") else 0
    return own + sum(_setwise_symbol_count(c) for c in children(rec, R.RECORD_KINDS))


def _dedup_interpretations(interps: list[Interpretation]) -> list[Interpretation]:
    # the parser gives one record tree per reading; the key still keeps two
    # record trees that happen to lower alike from being offered as two
    # readings.  Readings that take a comparator symbol as a scalar
    # comparison come first, so the pick-first policy and the first listed
    # reading are the scalar ones
    ranked = sorted(interps, key=lambda i: _setwise_symbol_count(i.records))
    seen = set()
    out = []
    for i in ranked:
        key = (P.canonical(i.path), i.projection, i.order)
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


def parse(text: str, schema: Schema) -> ParseResult:
    """Parse a descriptor (or condition) into all its interpretations."""
    tokens = tokenize(text)
    records = parse_records(tokens, schema)
    return _lower_all(schema, records)


def parse_list(text: str, schema: Schema) -> ParseResult:
    """Parse a LIST statement (a bare descriptor is accepted as LIST I)."""
    tokens = tokenize(text)
    records = parse_list_records(tokens, schema)
    return _lower_all(schema, records)


def _lower_all(schema: Schema, records: list) -> ParseResult:
    interps: list[Interpretation] = []
    diagnostics: list[str] = []
    for rec in records:
        try:
            interps.append(_interpret(schema, rec))
        except ConquerError as e:
            diagnostics.append(str(e))
    interps = _dedup_interpretations(interps)
    if not interps:
        if diagnostics:
            raise ParseError("; ".join(sorted(set(diagnostics))))
        raise ParseError("no valid interpretation")
    return ParseResult(interps, diagnostics)


def disambiguate(schema: Schema, result: ParseResult) -> ParseResult:
    """Drop structurally empty interpretations; flag multiple survivors as
    ambiguous and attach their re-verbalisations for the user to choose."""
    # each reading's head/tail memo serves both of its checks
    checked = []
    for interp in result.interpretations:
        memo: dict = {}
        if P.head_tail_combos(schema, interp.path, interp.typing, memo):
            checked.append((interp, memo))
    if not checked:
        raise AmbiguityError(
            "incorrect query: every interpretation is structurally empty"
        )
    # a reading with a provably empty sub-expression loses to one without:
    # the same schema reasoning that dismisses empty queries dismisses
    # readings whose pieces can never hold instances
    clean = [i for i, memo in checked if not P.has_empty_subpath(schema, i.path, i.typing, memo)]
    survivors = clean or [i for i, _ in checked]
    ambiguous = len(survivors) > 1
    if ambiguous:
        from ..verbalise import verbalise_interpretation

        for interp in survivors:
            try:
                interp.verbalisation = verbalise_interpretation(schema, interp)
            except ConquerError as e:
                interp.verbalisation = f"<{e}>"
    return ParseResult(survivors, result.diagnostics, ambiguous)


# ---------------------------------------------------------------------------
# compiling the query texts embedded in a schema file


def compile_schema_queries(schema: Schema) -> Schema:
    """Parse macro bodies, derivation rules and constraints from the schema
    document, in order; macros may use earlier macros but not later or
    themselves."""
    pending = {m["name"] for m in schema.raw_macros}
    for spec in schema.raw_macros:
        name = spec["name"]
        params = tuple(spec.get("params", ()))
        body_text = spec["body"]
        env = NameEnv(schema)
        for param in params:
            env.resolve(param)
        env.active_macros = pending
        tokens = tokenize(body_text)
        records = parse_records(tokens, schema)
        body = None
        errors = []
        for rec in records:
            try:
                lowerer = Lowerer(schema, env)
                if isinstance(rec, R.CONDITION_KINDS):
                    candidate: Any = lowerer.cond(rec)
                    kind = "condition"
                else:
                    scalar = lowerer.try_scalar(rec)
                    if scalar is not None:
                        candidate, kind = scalar, "scalar"
                    else:
                        candidate, kind = lowerer.descr(rec), "path"
                body = (candidate, kind)
                break
            except ConquerError as e:
                errors.append(str(e))
        if body is None:
            raise MacroError(f"cannot compile macro {name!r}: {'; '.join(errors)}")
        pending.discard(name)
        schema.macros[name] = Macro(name, params, body[0], body[1])

    for spec in schema.raw_derivations:
        body_text = spec["body"]
        result = disambiguate(schema, parse(body_text, schema))
        if len(result.interpretations) > 1:
            raise ParseError(f"derivation rule body is ambiguous: {body_text!r}")
        interp = result.interpretations[0]
        if "fact" in spec:
            inverse = {name: attr for attr, name in interp.vnm.items()}
            role_attrs = []
            for rid, var in spec["roles"].items():
                if var not in inverse:
                    raise ParseError(f"derivation rule for {spec['fact']!r} names unknown variable {var!r}")
                role_attrs.append((rid, inverse[var]))
            schema.derivations.append(FactRule(spec["fact"], tuple(role_attrs), interp.path, body_text))
        else:
            schema.derivations.append(TypeRule(spec["type"], interp.path, body_text))

    for text in schema.raw_constraints:
        result = disambiguate(schema, parse(text, schema))
        schema.constraints.append((text, result.interpretations[0].path))
    return schema
