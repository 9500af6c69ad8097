"""Lowering parsed records into path expressions.

Variables scope over the whole query except under the path shuffler, which
opens a fresh frame.  Each interpretation carries its own lowered tree,
typing and variable-name table; structurally empty interpretations are
dropped by ``disambiguate``.  The record trees of one parse are lowered
through one ``paths.PathMemo``, kept on the ``ParseResult``, so their
readings share equal sub-paths and each distinct sub-path is typed and
checked once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from .. import paths as P
from ..errors import AmbiguityError, ConquerError, MacroError, ParseError, TranslateError
from ..schema import AttrName, Macro, FactRule, Schema, TypeRule
from ..values import Bool
from ..walk import children
from . import records as R
from .lexer import (
    AGGREGATES,
    ARITHMETIC,
    CONNECTIVES,
    GROUP_FUNCTIONS,
    PATH_OPS,
    SET_OPS,
    UNARY_OPS,
    VALUE_COMPARISONS,
    Token,
    tokenize,
)
from .parser import parse_list_records, parse_records

# the path class of each operator that has no operator field of its own
_PATH_CLASSES = {
    "reverse": P.Reverse,
    "front": P.Front,
    "distinct": P.DistinctPath,
    "missing": P.MissingPath,
    "product": P.Product,
}


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
    """Builds path expressions from parse records, each node through
    ``memo``, so the trees lowered with one memo share their equal
    sub-paths."""

    def __init__(self, schema: Schema, env: NameEnv | None = None, memo: P.PathMemo | None = None):
        self.schema = schema
        self.env = env or NameEnv(schema)
        self.memo = P.PathMemo() if memo is None else memo
        self.node = self.memo.node

    # -- descriptors -----------------------------------------------------

    def descr(self, rec: Any) -> P.PathExpr:
        schema = self.schema
        if isinstance(rec, R.TypeSpec):
            base: P.PathExpr = self.node(P.TypeAtom, rec.tid)
            if rec.var_name is not None:
                return self.node(P.Concat, base, self.node(P.AttrAtom, self.env.resolve(rec.var_name)))
            if rec.denot is not None:
                return self.node(P.Denote, rec.tid, self.denot(rec.denot))
            return base
        if isinstance(rec, R.RoleRef):
            return self.node(P.RoleEntry, rec.rid) if rec.kind == "entry" else P.role_exit(rec.rid, self.node)
        if isinstance(rec, (R.Const, R.ScConst)):
            return self.node(P.Scalar, self.scalar(rec))
        if isinstance(rec, R.VarName):
            if rec.role_name is not None:
                return self.node(P.Scalar, self.scalar(rec))
            return self.node(P.AttrAtom, self.env.resolve(rec.name))
        if isinstance(rec, R.MFix):
            middles = tuple((role, self.descr(d)) for _, role, d in rec.items[:-1])
            last_part, last_role, continuation = rec.items[-1]
            node = self.node(P.MixFix, rec.start_role, middles, last_role)
            return self.node(P.Concat, node, self.descr(continuation))
        if isinstance(rec, R.UnaryOp):
            return self.node(_PATH_CLASSES[UNARY_OPS[rec.op]], self.descr(rec.inf))
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
            return self.node(P.SubExpr, tuple(self.descr(i) for i in rec.items))
        if isinstance(rec, R.CoerceFunction):
            return self.node(P.Scalar, self.scalar(rec))
        if isinstance(rec, R.CONDITION_KINDS):
            return self.node(P.CondPath, self.cond(rec))
        raise TranslateError(f"cannot lower {type(rec).__name__}")

    def binary(self, rec: R.BinaryOp) -> P.PathExpr:
        op = rec.op
        if op == "":
            return self.node(P.Concat, self.descr(rec.left), self.descr(rec.right))
        if op in SET_OPS:
            setop, fronts = SET_OPS[op]
            left, right = self.descr(rec.left), self.descr(rec.right)
            if fronts:
                left, right = self.node(P.Front, left), self.node(P.Front, right)
            return self.node(P.SetOp, left, setop, right)
        if op in PATH_OPS:
            name = PATH_OPS[op]
            left, right = self.descr(rec.left), self.descr(rec.right)
            if name in _PATH_CLASSES:
                return self.node(_PATH_CLASSES[name], left, right)
            return self.node(P.SetCompare, left, name, right)
        if op == "IS":
            return self.subtype_glue(rec)
        if op in VALUE_COMPARISONS:
            left = self.descr(rec.left)
            right = self.descr(rec.right)
            return self.node(
                P.RelCompare, self.node(P.TlCoerce, left), VALUE_COMPARISONS[op], self.node(P.HdCoerce, right)
            )
        if op in ARITHMETIC:
            ls = self.try_scalar(rec.left)
            rs = self.try_scalar(rec.right)
            if ls is not None and rs is not None:
                return self.node(P.Scalar, self.node(P.SApply, ARITHMETIC[op], [ls, rs]))
            args = [self.node(P.HdCoerce, self.descr(rec.left)), self.node(P.HdCoerce, self.descr(rec.right))]
            return self.node(P.FuncApp, ARITHMETIC[op], args)
        raise TranslateError(f"unknown binary operator {op!r}")

    def subtype_glue(self, rec: R.BinaryOp) -> P.PathExpr:
        left = self.descr(rec.left)
        right = self.descr(rec.right)
        last = {e for e in left.ends[1] if e[0] == "type"}
        first = {e for e in right.ends[0] if e[0] == "type"}
        ok = any(
            self.schema.type_related(x[1], y[1]) for x in last for y in first
        )
        if not last or not first or not ok:
            raise TranslateError("IS must connect two related types")
        return self.node(P.Concat, left, right)

    def shuffler(self, rec: R.Shuffler) -> P.PathExpr:
        self.env.push()
        try:
            if isinstance(rec.inf, R.CONDITION_KINDS):
                body: P.PathExpr = self.node(P.CondPath, self.cond(rec.inf))
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
        return self.node(P.Shuffle, body, attrs)

    def function(self, rec: R.Function) -> P.PathExpr:
        macro = self.schema.macros.get(rec.name)
        if macro is not None:
            wrap = {"scalar": P.Scalar, "condition": P.CondPath}.get(macro.kind)
            expansion = self.expansion(macro, rec.args)
            return expansion if wrap is None else self.node(wrap, expansion)
        if rec.name in self.env.active_macros:
            raise MacroError(f"recursive macro {rec.name!r}")
        scalars = [self.try_scalar(a) for a in rec.args]
        if all(s is not None for s in scalars):
            return self.node(P.Scalar, self.node(P.SApply, rec.name, scalars))
        return self.node(P.FuncApp, rec.name, [self.node(P.HdCoerce, self.descr(a)) for a in rec.args])

    def expansion(self, macro: Macro, args: tuple) -> Any:
        """``macro`` applied to ``args``, lowered as the macro's kind, but a
        condition macro's as its body reads each parameter: as a scalar
        variable, a path or else a condition."""
        reads, stack = {}, [macro.body] if macro.kind == "condition" else []
        while stack:
            p = stack.pop()
            if isinstance(p, (P.SVar, P.AttrAtom)):
                reads.setdefault(p.attr, self.scalar if isinstance(p, P.SVar) else self.descr)
            stack.extend(children(p, P.PATH_KINDS))
        lower = {"scalar": self.scalar, "condition": self.cond}.get(macro.kind, self.descr)
        # an argument past the parameters is lowered too, for expand_macro to refuse
        lowered = [reads.get(param, lower)(a) for param, a in zip(macro.params + (None,) * len(args), args)]
        return P.expand_macro(self.schema, macro.name, lowered, fresh=self.env.fresh, memo=self.memo)

    def selection(self, rec: R.Selection) -> P.PathExpr:
        pairs = tuple((self.descr(d), self.cond(c)) for d, c in rec.pairs)
        default = self.descr(rec.default) if rec.default is not None else None
        simple = rec.form in ("where", "ifthen", "ifthenelse")
        return self.node(P.Where, pairs, default, simple)

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
        return self.node(P.Confluence, elements, base)

    def group_acct(self, rec: R.GroupAcct) -> P.PathExpr:
        kind = GROUP_FUNCTIONS[rec.func]
        body = self.descr(rec.inf)
        by = tuple(self.env.resolve(n) for n in rec.grouping)
        if kind in ("count", "dscount"):
            if rec.var_name is not None:
                raise TranslateError("counting group functions take no target variable")
            return self.node(P.GroupFn, kind, body, by, None)
        target = self.env.resolve(rec.var_name) if rec.var_name is not None else P.HD
        return self.node(P.GroupFn, kind, body, by, target)

    # -- scalars -----------------------------------------------------------

    def scalar(self, rec: Any) -> P.PeScalar:
        out = self.try_scalar(rec)
        if out is None:
            macro = self.schema.macros.get(rec.name) if isinstance(rec, (R.ScFunction, R.Function)) else None
            if macro is not None:
                raise TranslateError(f"{macro.kind} macro {rec.name!r} is not a scalar expression")
            raise TranslateError(f"{type(rec).__name__} is not a scalar expression")
        return out

    def try_scalar(self, rec: Any) -> P.PeScalar | None:
        if isinstance(rec, (R.Const, R.ScConst)):
            value = Bool(rec.value) if isinstance(rec.value, bool) else rec.value
            return self.node(P.SConst, value)
        if isinstance(rec, R.VarName):
            attr = self.env.resolve(rec.name)
            if rec.role_name is not None:
                return self.node(P.SVarRole, attr, rec.rid)
            return self.node(P.SVar, attr)
        if isinstance(rec, R.CoerceFunction):
            kind = AGGREGATES[rec.func]
            return self.node(P.SAgg, kind, self.node(P.HdCoerce, self.descr(rec.inf)))
        if isinstance(rec, (R.ScFunction, R.Function)):
            macro = self.schema.macros.get(rec.name)
            if macro is not None:
                return self.expansion(macro, rec.args) if macro.kind == "scalar" else None
            if rec.name in self.env.active_macros:
                raise MacroError(f"recursive macro {rec.name!r}")
            args = [self.try_scalar(a) for a in rec.args]
            if any(a is None for a in args):
                return None
            return self.node(P.SApply, rec.name, args)
        if isinstance(rec, (R.ScBinaryOp, R.BinaryOp)) and rec.op in ARITHMETIC:
            left = self.try_scalar(rec.left)
            right = self.try_scalar(rec.right)
            if left is None or right is None:
                return None
            return self.node(P.SApply, ARITHMETIC[rec.op], [left, right])
        return None

    # -- conditions ----------------------------------------------------------

    def cond(self, rec: Any) -> P.PeCond:
        if isinstance(rec, R.Conditioner):
            return self.node(P.CSome, self.descr(rec.inf))
        if isinstance(rec, R.InfDescrComp):
            left = self.descr(rec.left)
            right = self.descr(rec.right)
            if rec.op == "disjoint":
                return self.node(P.CExclusion, left, right)
            return self.node(P.CBagComp, left, rec.op, right)
        if isinstance(rec, R.ScaleExprComp):
            # the parser keeps a scalar comparison's operator name
            return self.node(P.CScalarComp, self.scalar(rec.left), rec.op, self.scalar(rec.right))
        if isinstance(rec, R.BinCondComp):
            return self.node(P.CLogic, self.cond(rec.left), CONNECTIVES[rec.conn], self.cond(rec.right))
        if isinstance(rec, R.Negation):
            return self.node(P.CNot, self.cond(rec.cond))
        if isinstance(rec, R.CondFunction):
            macro = self.schema.macros.get(rec.name)
            if macro is None or macro.kind != "condition":
                raise TranslateError(f"unknown condition function {rec.name!r}")
            return self.expansion(macro, rec.conds)
        raise TranslateError(f"cannot lower condition {type(rec).__name__}")

    # -- denotations ------------------------------------------------------------

    def denot(self, rec: R.Denot) -> P.PeDenotation:
        if rec.var_name is not None:
            return self.node(P.Abstract, self.env.resolve(rec.var_name))
        if rec.parts:
            return self.node(P.Composite, tuple(self.denot(p) for p in rec.parts))
        return self.node(P.ByPath, self.descr(rec.inf))


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


@dataclass
class ParseResult:
    interpretations: list[Interpretation]
    diagnostics: list[str] = field(default_factory=list)
    ambiguous: bool = False
    # the parse's path nodes and their analyses, shared by its readings
    memo: P.PathMemo = field(default_factory=P.PathMemo)


def lower_query(
    schema: Schema, rec: Any, env: NameEnv | None = None, memo: P.PathMemo | None = None
) -> tuple[P.PathExpr, NameEnv]:
    env = env or NameEnv(schema)
    lowerer = Lowerer(schema, env, memo)
    if isinstance(rec, R.CONDITION_KINDS):
        return lowerer.node(P.CondPath, lowerer.cond(rec)), env
    return lowerer.descr(rec), env


def _interpret(schema: Schema, rec: Any, memo: P.PathMemo | None = None) -> Interpretation:
    memo = P.PathMemo() if memo is None else memo
    if isinstance(rec, R.ListStatement):
        env = NameEnv(schema)
        path, env = lower_query(schema, rec.inf, env, memo)
        typing = P.infer_typing(schema, path, memo=memo)
        projection = None
        if rec.projection is not None:
            lowerer = Lowerer(schema, env, memo)
            projection = tuple(lowerer.scalar(s) for s in rec.projection)
        order = _lower_order(rec.order, env)
        return Interpretation(rec, path, typing, env.vnm(), projection, order)
    path, env = lower_query(schema, rec, memo=memo)
    typing = P.infer_typing(schema, path, memo=memo)
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


def _setwise_symbol_count(rec: Any, memo: dict) -> int:
    """Comparator symbols read as set comparisons; the scalar reading of the
    same symbol is preferred when both exist.  The record trees of one parse
    share sub-records, so ``memo`` keeps each sub-record's count by id."""
    hit = memo.get(id(rec))
    if hit is not None:
        return hit[1]
    own = 1 if isinstance(rec, R.InfDescrComp) and rec.op != "disjoint" else 0
    out = own + sum(_setwise_symbol_count(c, memo) for c in children(rec, R.RECORD_KINDS))
    memo[id(rec)] = (rec, out)
    return out


def _dedup_interpretations(interps: list[Interpretation], memo: P.PathMemo) -> list[Interpretation]:
    # the parser gives one record tree per reading; the key still keeps two
    # record trees that happen to lower alike from being offered as two
    # readings.  Readings that take a comparator symbol as a scalar
    # comparison come first, so the pick-first policy and the first listed
    # reading are the scalar ones
    if len(interps) < 2:
        return interps
    counts: dict = {}
    ranked = sorted(interps, key=lambda i: _setwise_symbol_count(i.records, counts))
    seen = set()
    out = []
    for i in ranked:
        # canonical forms built through one memo are equal exactly when
        # they are one object
        key = (id(P.canonical(i.path, memo)), i.projection, i.order)
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


def parse(text: str, schema: Schema) -> ParseResult:
    """Parse a descriptor (or condition) into all its interpretations."""
    tokens = tokenize(text)
    records = parse_records(tokens, schema)
    return _lower_all(schema, records)


def parse_list(text: str | list[Token], schema: Schema) -> ParseResult:
    """Parse a LIST statement (a bare descriptor is accepted as LIST I),
    given as a text or as its tokens."""
    tokens = tokenize(text) if isinstance(text, str) else text
    records = parse_list_records(tokens, schema)
    return _lower_all(schema, records)


def _lower_all(schema: Schema, records: list) -> ParseResult:
    # one memo for every record tree of the parse: their readings share
    # sub-paths, and each distinct one is built and analysed once
    memo = P.PathMemo()
    interps: list[Interpretation] = []
    diagnostics: list[str] = []
    for rec in records:
        try:
            interps.append(_interpret(schema, rec, memo))
        except ConquerError as e:
            diagnostics.append(str(e))
    interps = _dedup_interpretations(interps, memo)
    if not interps:
        if diagnostics:
            raise ParseError("; ".join(sorted(set(diagnostics))))
        raise ParseError("no valid interpretation")
    return ParseResult(interps, diagnostics, memo=memo)


def disambiguate(schema: Schema, result: ParseResult) -> ParseResult:
    """Drop structurally empty interpretations; flag multiple survivors as
    ambiguous."""
    # the parse's memo serves both checks of every reading, once per
    # distinct sub-path and typing; it is dropped with the parse
    memo = result.memo
    checked = [i for i in result.interpretations if P.head_tail_combos(schema, i.path, i.typing, memo)]
    if not checked:
        raise AmbiguityError(
            "incorrect query: every interpretation is structurally empty"
        )
    # a reading with a provably empty sub-expression loses to one without:
    # the same schema reasoning that dismisses empty queries dismisses
    # readings whose pieces can never hold instances
    clean = [i for i in checked if not P.has_empty_subpath(schema, i.path, i.typing, memo)]
    survivors = clean or checked
    return ParseResult(survivors, result.diagnostics, len(survivors) > 1)


# ---------------------------------------------------------------------------
# compiling the query texts embedded in a schema file


def compile_macro(schema: Schema, name: str, params: tuple, body_text: str, undefined: Iterable[str] = ()) -> None:
    """Parse one macro body and add the macro to the schema.  The body may
    call the schema's macros, but not itself or a macro named in
    ``undefined``."""
    env = NameEnv(schema)
    for param in params:
        env.resolve(param)
    env.active_macros = {name, *undefined}
    tokens = tokenize(body_text)
    # condition trees first: ``v > 0`` parses as a path comparison too, and
    # a condition macro still serves where a path is read, as a ``CondPath``
    records = sorted(parse_records(tokens, schema), key=lambda rec: not isinstance(rec, R.CONDITION_KINDS))
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
    schema.revise(macros={**schema.macros, name: Macro(name, params, body[0], body[1])})


def compile_schema_queries(schema: Schema) -> Schema:
    """Parse macro bodies, derivation rules and constraints from the schema
    document, in order; macros may use earlier macros but not later or
    themselves."""
    pending = {m["name"] for m in schema.raw_macros}
    for spec in schema.raw_macros:
        pending.discard(spec["name"])
        compile_macro(schema, spec["name"], tuple(spec.get("params", ())), spec["body"], pending)

    rules = []
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
            rules.append(FactRule(spec["fact"], tuple(role_attrs), interp.path, body_text))
        else:
            rules.append(TypeRule(spec["type"], interp.path, body_text))
    schema.revise(derivations=schema.derivations + tuple(rules))
    # a fact rule's role variables are columns of the plan that derives it
    for spec, rule in zip(schema.raw_derivations, rules):
        if isinstance(rule, FactRule):
            columns = P._kept_plan(schema, rule).root.header
            for (_, attr), var in zip(rule.role_attrs, spec["roles"].values()):
                if attr not in columns:
                    raise ParseError(
                        f"derivation rule for {spec['fact']!r}: variable {var!r} is not a column of its body"
                    )

    for text in schema.raw_constraints:
        result = disambiguate(schema, parse(text, schema))
        schema.constraints.append((text, result.interpretations[0].path))
    return schema
