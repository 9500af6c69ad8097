"""Ambiguity-preserving parser for the concrete query syntax.

Rules are memoised combinators that return every (record, position) pair a
span admits; name tokens are resolved against the schema's naming tables
during the scan, so homonym role names or overlapping mix-fix prefixes
simply yield several parses.  Disambiguation happens later, on the lowered
path expressions.

Precedence: unary operators bind tighter than concatenation, concatenation
tighter than named binary operators, and named binary operators associate
to the left at a single precedence level.  Parentheses and brackets
override.  A word can only be read as a variable name if it occurs nowhere
in the naming tables.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ParseError
from ..schema import Schema
from . import records as R
from .lexer import Token

VALUECOMP_WORDS = {
    "IS EQUAL TO": "=",
    "IS NOT EQUAL TO": "<>",
    "IS LESS THAN": "<",
    "IS LESS THAN OR EQUAL TO": "<=",
    "IS GREATER THAN": ">",
    "IS GREATER THAN OR EQUAL TO": ">=",
}
VALUECOMP_SYMS = {"=", "<>", "<", "<=", ">", ">="}
SETOP_WORDS = [
    "UNITED WITH",
    "INTERSECTED WITH",
    "MINUS",
    "WHICH ARE ALL IN",
    "THAT INCLUDES ALL",
    "MATCHING ALL",
    "MISSING",
    "WITH",
    "OR OTHERWISE",
    "AND ALSO",
    "BUT NOT",
]
SETCOMP_WORDS = {
    "EQUALS": "=",
    "DOES NOT EQUAL": "<>",
    "IS DISJOINT FROM": "disjoint",
    "IS A SUBSET OF": "sub",
    "IS A SUBSET OF OR EQUAL TO": "subeq",
    "IS A SUPERSET OF": "sup",
    "IS A SUPERSET OF OR EQUAL TO": "supeq",
}
SETCOMP_SYMS = {"<": "sub", "<=": "subeq", "=": "=", "<>": "<>", ">": "sup", ">=": "supeq"}
LOGIC_WORDS = {"AND": "and", "OR": "or", "EXCLUSIVE OR": "xor", "IMPLIES": "implies", "IFF": "iff"}
LOGIC_SYMS = {"&": "and", "=>": "implies", "<=>": "iff"}
ARITH_SYMS = {"*", "+", "-", "/"}
COERCE_FUNCS = [
    "THE COUNT OF",
    "THE SUM OF",
    "THE MINIMUM OF",
    "THE MAXIMUM OF",
    "THE AVERAGE OF",
    "THE MINIMUM",
    "THE MAXIMUM",
    "THE AVERAGE",
]
GROUP_FUNCS = [
    "THE COUNT OF",
    "THE DISTINCT COUNT OF",
    "THE SUM OF",
    "THE DISTINCT SUM OF",
    "THE MINIMUM OF",
    "THE MAXIMUM OF",
    "THE AVERAGE OF",
]

_SCALARISABLE = (R.Const, R.ScConst, R.VarName, R.CoerceFunction, R.Function, R.ScFunction, R.BinaryOp, R.ScBinaryOp)


def to_scalar_record(rec: Any) -> Any | None:
    """Re-house a descriptor record in the scalar family, if it fits there."""
    if isinstance(rec, R.Const):
        return R.ScConst(rec.value)
    if isinstance(rec, (R.ScConst, R.VarName, R.CoerceFunction, R.ScFunction, R.ScBinaryOp)):
        return rec
    if isinstance(rec, R.Function):
        args = [to_scalar_record(a) for a in rec.args]
        if all(a is not None for a in args):
            return R.ScFunction(rec.name, tuple(args))
        return None
    if isinstance(rec, R.BinaryOp) and rec.op in ARITH_SYMS:
        left = to_scalar_record(rec.left)
        right = to_scalar_record(rec.right)
        if left is not None and right is not None:
            return R.ScBinaryOp(rec.op, left, right)
    return None


def _dedup(items: list) -> list:
    """The items in their first-seen order, each once."""
    return list(dict.fromkeys(items))


class Parser:
    def __init__(self, tokens: list[Token], schema: Schema):
        self.toks = tokens
        self.schema = schema
        self.memo: dict = {}
        self.far = 0
        self.expected: set[str] = set()
        self.name_words = schema.name_words()
        naming = schema.naming
        self.type_names = sorted(
            ((tuple(n.split()), tid) for tid, n in naming.tnm.items()),
            key=lambda e: -len(e[0]),
        )
        self.entry_names = self._role_index(naming.pnm)
        self.exit_names = self._role_index(naming.rnm)
        self.prefixes = sorted({tuple(p.split()) for p in naming.pre.values()}, key=len, reverse=True)
        self.postfixes = sorted({tuple(p.split()) for p in naming.post.values()}, key=len, reverse=True)
        self.mfix_entries = list(naming.mfix)

    @staticmethod
    def _role_index(table: dict) -> list:
        return sorted(((tuple(n.split()), rid) for rid, n in table.items()), key=lambda e: -len(e[0]))

    # -- primitives -----------------------------------------------------

    def tok(self, pos: int) -> Token | None:
        return self.toks[pos] if pos < len(self.toks) else None

    def fail(self, pos: int, label: str) -> list:
        if pos > self.far:
            self.far = pos
            self.expected = {label}
        elif pos == self.far:
            self.expected.add(label)
        return []

    def kw(self, pos: int, word: str) -> int | None:
        t = self.tok(pos)
        if t is not None and t.kind == "keyword" and t.text == word:
            return pos + 1
        self.fail(pos, f"'{word}'")
        return None

    def punct(self, pos: int, ch: str) -> int | None:
        t = self.tok(pos)
        if t is not None and t.kind == "punct" and t.text == ch:
            return pos + 1
        self.fail(pos, f"'{ch}'")
        return None

    def match_words(self, pos: int, words: tuple) -> int | None:
        for k, w in enumerate(words):
            t = self.tok(pos + k)
            if t is None or t.kind != "word" or t.text != w:
                return None
        return pos + len(words)

    def is_variable(self, pos: int) -> str | None:
        t = self.tok(pos)
        if t is not None and t.kind == "word" and t.text not in self.name_words:
            return t.text
        if t is not None and t.kind == "keyword" and t.text in ("HEAD", "TAIL"):
            return t.text
        return None

    def rule(self, name: str, pos: int, fn: Callable[[int], list]) -> list:
        key = (name, pos)
        if key in self.memo:
            return self.memo[key]
        self.memo[key] = []  # cuts accidental left recursion
        result = _dedup(fn(pos))
        self.memo[key] = result
        return result

    # -- descriptor grammar ----------------------------------------------

    def selection(self, pos: int) -> list:
        return self.rule("selection", pos, self._selection)

    def _selection(self, pos: int) -> list:
        out: list = []
        out.extend(self._shuffle(pos))
        out.extend(self._select_where(pos))
        out.extend(self._if_then(pos))
        out.extend(self._confluence(pos))
        for base, p in self.binary(pos):
            out.append((base, p))
            # ... WHERE C
            p_where = self.kw(p, "WHERE")
            if p_where is not None:
                for cond, p2 in self.condition(p_where):
                    out.append((R.Selection(((base, cond),), None, "where"), p2))
            # alternatives: D IF C ; D IF C ; ... [; D OTHERWISE]
            p_if = self.kw(p, "IF")
            if p_if is not None:
                for cond, p2 in self.condition(p_if):
                    out.extend(self._alternatives(((base, cond),), p2))
        return out

    def _alternatives(self, pairs: tuple, pos: int) -> list:
        out = [(R.Selection(pairs, None, "alts"), pos)]
        p_semi = self.punct(pos, ";")
        if p_semi is None:
            return out
        for d, p in self.binary(p_semi):
            p_if = self.kw(p, "IF")
            if p_if is not None:
                for cond, p2 in self.condition(p_if):
                    out.extend(self._alternatives(pairs + ((d, cond),), p2))
            p_ow = self.kw(p, "OTHERWISE")
            if p_ow is not None:
                out.append((R.Selection(pairs, d, "alts_default"), p_ow))
        return out

    def _shuffle(self, pos: int) -> list:
        p = self.kw(pos, "THE PATH FROM")
        if p is None:
            return []
        first = self.is_variable(p)
        if first is None:
            return self.fail(p, "variable name")
        p += 1
        names = [first]
        p_via = self.kw(p, "VIA")
        if p_via is not None:
            p2 = p_via
            while True:
                v = self.is_variable(p2)
                if v is None:
                    return self.fail(p2, "variable name")
                names.append(v)
                p2 += 1
                p_comma = self.punct(p2, ",")
                if p_comma is None:
                    break
                p2 = p_comma
            p = p2
        p_to = self.kw(p, "TO")
        if p_to is None:
            return []
        last = self.is_variable(p_to)
        if last is None:
            return self.fail(p_to, "variable name")
        names.append(last)
        p_of = self.kw(p_to + 1, "OF")
        if p_of is None:
            return []
        return [
            (R.Shuffler(tuple(names), body), p2) for body, p2 in self.selection(p_of)
        ]

    def _select_where(self, pos: int) -> list:
        p = self.kw(pos, "SELECT")
        if p is None:
            return []
        names = []
        while True:
            v = self.is_variable(p)
            if v is None:
                return self.fail(p, "variable name")
            names.append(v)
            p += 1
            p_comma = self.punct(p, ",")
            if p_comma is None:
                break
            p = p_comma
        p_where = self.kw(p, "WHERE")
        if p_where is None:
            return []
        return [
            (R.Shuffler(tuple(names), cond), p2) for cond, p2 in self.condition(p_where)
        ]

    def _if_then(self, pos: int) -> list:
        p = self.kw(pos, "IF")
        if p is None:
            return []
        out = []
        for cond, p1 in self.condition(p):
            p_then = self.kw(p1, "THEN")
            if p_then is None:
                continue
            for then, p2 in self.selection(p_then):
                out.append((R.Selection(((then, cond),), None, "ifthen"), p2))
                p_else = self.kw(p2, "ELSE")
                if p_else is not None:
                    for other, p3 in self.selection(p_else):
                        out.append((R.Selection(((then, cond),), other, "ifthenelse"), p3))
        return out

    def _confluence(self, pos: int) -> list:
        def elements(p: int, acc: tuple) -> list:
            out = []
            for d, p1 in self.binary(p):
                as_name = None
                via_name = None
                p2 = p1
                p_as = self.kw(p2, "AS")
                if p_as is not None:
                    v = self.is_variable(p_as)
                    if v is not None:
                        as_name = v
                        p2 = p_as + 1
                p_via = self.kw(p2, "VIA")
                if p_via is not None:
                    v = self.is_variable(p_via)
                    if v is not None:
                        via_name = v
                        p2 = p_via + 1
                elem = (d, as_name, via_name)
                p_comma = self.punct(p2, ",")
                if p_comma is not None:
                    out.extend(elements(p_comma, acc + (elem,)))
                p_each = self.kw(p2, "EACH")
                if p_each is not None:
                    for base, p3 in self.selection(p_each):
                        out.append((R.Confluence(base, acc + (elem,)), p3))
            return out

        return elements(pos, ())

    def binary(self, pos: int) -> list:
        return self.rule("binary", pos, self._binary)

    def _binary(self, pos: int) -> list:
        out = []
        for first, p in self.concat(pos):
            out.extend(self._binary_tail(first, p))
        return out

    def _binop(self, pos: int) -> tuple[str, int] | None:
        t = self.tok(pos)
        if t is None:
            return None
        if t.kind == "keyword" and (t.text in SETOP_WORDS or t.text in VALUECOMP_WORDS or t.text == "IS"):
            return t.text, pos + 1
        if t.kind == "symbol" and (t.text in VALUECOMP_SYMS or t.text in ARITH_SYMS):
            return t.text, pos + 1
        # a type's postfix may precede the subtype selector: "... who IS ..."
        for post in self.postfixes:
            p = self.match_words(pos, post)
            if p is not None and self.kw(p, "IS") is not None:
                return "IS", p + 1
        return None

    def _binary_tail(self, acc: Any, pos: int) -> list:
        out = [(acc, pos)]
        op = self._binop(pos)
        if op is None:
            return out
        text, p = op
        for right, p2 in self.concat(p):
            out.extend(self._binary_tail(R.BinaryOp(text, acc, right), p2))
        return out

    def concat(self, pos: int) -> list:
        return self.rule("concat", pos, self._concat)

    def _concat(self, pos: int) -> list:
        out = []
        for unit, p, final in self.unit(pos):
            out.append((unit, p))
            if final:
                continue
            # "Type v" is one TYPE_SPEC that carries v (see _type_spec), not
            # a type followed by the variable v; "Type (v)" and "Type v.role"
            # stay concatenations
            bare = None
            if isinstance(unit, R.TypeSpec) and unit.var_name is None and unit.denot is None:
                bare = self.is_variable(p)
            for rest, p2 in self.concat(p):
                first = rest.left if isinstance(rest, R.BinaryOp) and rest.op == "" else rest
                if bare is not None and first == R.VarName(bare):
                    continue
                out.append((R.BinaryOp("", unit, rest), p2))
        return out

    # -- units -----------------------------------------------------------

    def unit(self, pos: int) -> list:
        return self.rule("unit", pos, self._unit)

    def _unit(self, pos: int) -> list:
        out: list = []
        t = self.tok(pos)
        if t is None:
            return self.fail(pos, "descriptor")

        # parenthesised descriptor
        if t.kind == "punct" and t.text == "(":
            for inner, p in self.selection(pos + 1):
                p2 = self.punct(p, ")")
                if p2 is not None:
                    out.append((inner, p2, False))

        # sub-expression
        if t.kind == "punct" and t.text == "[":
            out.extend(self._sub_expr(pos))

        # unary operators
        for word, opname in (("THE REVERSE OF", "THE REVERSE OF"), ("ONLY", "ONLY"), ("DISTINCT", "DISTINCT")):
            p = self.kw(pos, word)
            if p is not None:
                for inner, p2, final in self.unit(p):
                    out.append((R.UnaryOp(opname, inner), p2, final))

        # aggregate / group functions
        out.extend(self._coerce_or_group(pos))

        # conditions usable as descriptors
        p = self.kw(pos, "SOME")
        if p is not None:
            for inner, p2 in self.binary(p):
                out.append((R.Conditioner(inner), p2, False))
        if (t.kind == "keyword" and t.text == "NOT") or (t.kind == "symbol" and t.text == "~"):
            for cond, p2 in self.cond_atom(pos):
                out.append((cond, p2, False))

        # constants
        if t.kind in ("number", "string", "true"):
            out.append((R.Const(t.value), pos + 1, False))

        out.extend(self._type_spec(pos))
        out.extend(self._role_ref(pos))
        out.extend(self._mfix(pos))
        out.extend(self._function_call(pos))
        out.extend(self._var_name(pos))
        if not out:
            self.fail(pos, "descriptor")
        return out

    def _sub_expr(self, pos: int) -> list:
        out = []

        def items(p: int, acc: tuple):
            for d, p1 in self.selection(p):
                p_comma = self.punct(p1, ",")
                if p_comma is not None:
                    items(p_comma, acc + (d,))
                p_close = self.punct(p1, "]")
                if p_close is not None:
                    out.append((R.SubExpr(acc + (d,)), p_close, False))

        items(pos + 1, ())
        return out

    def _coerce_or_group(self, pos: int) -> list:
        t = self.tok(pos)
        if t is None or t.kind != "keyword":
            return []
        out = []
        if t.text in GROUP_FUNCS:
            # optional "v IN" selects the accounted column
            starts = [(None, pos + 1)]
            v = self.is_variable(pos + 1)
            if v is not None and self.kw(pos + 2, "IN") is not None:
                starts.append((v, pos + 3))
            for var, p0 in starts:
                for inner, p in self.concat(p0):
                    p_g = self.kw(p, "GROUPED BY")
                    if p_g is None:
                        continue
                    for names, p2 in self._var_list(p_g):
                        out.append((R.GroupAcct(t.text, var, inner, names), p2, False))
        if t.text in COERCE_FUNCS:
            for inner, p in self.concat(pos + 1):
                out.append((R.CoerceFunction(t.text, inner), p, False))
        return out

    def _var_list(self, pos: int) -> list:
        v = self.is_variable(pos)
        if v is None:
            return self.fail(pos, "variable name")
        out = [((v,), pos + 1)]
        p_comma = self.punct(pos + 1, ",")
        if p_comma is not None:
            for names, p in self._var_list(p_comma):
                out.append(((v,) + names, p))
        return out

    def _type_spec(self, pos: int) -> list:
        out = []
        starts = [(None, pos)]
        for pre in self.prefixes:
            p = self.match_words(pos, pre)
            if p is not None:
                starts.append((" ".join(pre), p))
        for prefix, p0 in starts:
            for words, tid in self.type_names:
                p = self.match_words(p0, words)
                if p is None:
                    continue
                name = " ".join(words)
                out.append((R.TypeSpec(prefix, name, tid), p, False))
                v = self.is_variable(p)
                if v is not None:
                    out.append((R.TypeSpec(prefix, name, tid, var_name=v), p + 1, False))
                p_colon = self.punct(p, ":")
                if p_colon is not None:
                    for den, p2 in self._denotation(p_colon, tid):
                        out.append((R.TypeSpec(prefix, name, tid, denot=den), p2, False))
        return out

    def _denotation(self, pos: int, tid: str) -> list:
        out = []
        t = self.tok(pos)
        if t is not None and t.kind == "punct" and t.text == "!":
            v = self.is_variable(pos + 1)
            if v is not None:
                out.append((R.Denot(var_name=v), pos + 2))
            return out
        if t is not None and t.kind == "punct" and t.text == "(":
            def parts(p: int, acc: tuple):
                for den, p1 in self._denotation(p, ""):
                    p_comma = self.punct(p1, ",")
                    if p_comma is not None:
                        parts(p_comma, acc + (den,))
                    p_close = self.punct(p1, ")")
                    if p_close is not None:
                        out.append((R.Denot(parts=acc + (den,)), p_close))

            parts(pos + 1, ())
            if out:
                return out
        for d, p in self.binary(pos):
            out.append((R.Denot(inf=d), p))
        # unparenthesised composite, for multi-part reference schemes
        scheme = self.schema.idf.get(tid)
        if scheme is not None and scheme.arity > 1:
            def flat(p: int, acc: tuple, remaining: int):
                if remaining == 0:
                    if len(acc) == scheme.arity:
                        out.append((R.Denot(parts=acc), p))
                    return
                for den, p1 in self._denotation_single(p):
                    p_comma = self.punct(p1, ",")
                    if remaining > 1 and p_comma is not None:
                        flat(p_comma, acc + (den,), remaining - 1)
                    elif remaining == 1:
                        flat(p1, acc + (den,), 0)

            flat(pos, (), scheme.arity)
        return out

    def _denotation_single(self, pos: int) -> list:
        t = self.tok(pos)
        if t is not None and t.kind == "punct" and t.text == "!":
            v = self.is_variable(pos + 1)
            return [(R.Denot(var_name=v), pos + 2)] if v is not None else []
        return [(R.Denot(inf=d), p) for d, p in self.binary(pos)]

    def _role_ref(self, pos: int) -> list:
        out = []
        starts = [(None, pos)]
        for post in self.postfixes:
            p = self.match_words(pos, post)
            if p is not None:
                starts.append((" ".join(post), p))
        for postfix, p0 in starts:
            for index, kind in ((self.entry_names, "entry"), (self.exit_names, "exit")):
                for words, rid in index:
                    p = self.match_words(p0, words)
                    if p is None:
                        continue
                    name = " ".join(words)
                    # dotted disambiguation: name.FactTypeName
                    p_dot = self.punct(p, ".")
                    if p_dot is not None:
                        for twords, ftid in self.type_names:
                            p2 = self.match_words(p_dot, twords)
                            if p2 is not None and self.schema.rel(rid) == ftid:
                                out.append((R.RoleRef(postfix, kind, name, rid), p2, False))
                    out.append((R.RoleRef(postfix, kind, name, rid), p, False))
        return out

    def _mfix(self, pos: int) -> list:
        out = []
        starts = [(None, pos)]
        for post in self.postfixes:
            p = self.match_words(pos, post)
            if p is not None:
                starts.append((" ".join(post), p))
        for postfix, p0 in starts:
            for entry in self.mfix_entries:
                first_part = tuple(entry.parts[0].split())
                p = self.match_words(p0, first_part)
                if p is None:
                    continue
                self._mfix_rest(entry, 1, p, (), postfix, out)
                # dotted disambiguation: first part.FactTypeName
                p_dot = self.punct(p, ".")
                if p_dot is not None:
                    for twords, ftid in self.type_names:
                        p2 = self.match_words(p_dot, twords)
                        if p2 is not None and entry.rel == ftid:
                            self._mfix_rest(entry, 1, p2, (), postfix, out)
        return out

    def _mfix_rest(self, entry, part_index: int, pos: int, triples: tuple, postfix, out):
        roles = entry.roles
        parts = entry.parts
        if part_index == len(parts):
            # the descriptor after the last part is the continuation
            for cont, p in self.concat(pos):
                items = triples + ((parts[-1], roles[part_index], cont),)
                out.append((R.MFix(postfix, roles[0], items), p, True))
            return
        for middle, p in self.concat(pos):
            p2 = self.match_words(p, tuple(parts[part_index].split()))
            if p2 is None:
                continue
            self._mfix_rest(
                entry,
                part_index + 1,
                p2,
                triples + ((parts[part_index - 1], roles[part_index], middle),),
                postfix,
                out,
            )

    def _function_call(self, pos: int) -> list:
        t = self.tok(pos)
        if t is None or t.kind != "word":
            return []
        p_open = self.punct(pos + 1, "(")
        if p_open is None:
            return []
        out = []
        p_close = self.punct(p_open, ")")
        if p_close is not None:
            out.append((R.Function(t.text, ()), p_close, False))

        def args(p: int, acc: tuple):
            for d, p1 in self.selection(p):
                p_comma = self.punct(p1, ",")
                if p_comma is not None:
                    args(p_comma, acc + (d,))
                p_end = self.punct(p1, ")")
                if p_end is not None:
                    out.append((R.Function(t.text, acc + (d,)), p_end, False))

        args(p_open, ())
        return out

    def _var_name(self, pos: int) -> list:
        v = self.is_variable(pos)
        if v is None:
            return []
        out = [(R.VarName(v), pos + 1, False)]
        p_dot = self.punct(pos + 1, ".")
        if p_dot is not None:
            for words, rid in self.exit_names:
                p2 = self.match_words(p_dot, words)
                if p2 is not None:
                    out.append((R.VarName(v, " ".join(words), rid), p2, False))
        return out

    # -- conditions --------------------------------------------------------

    def condition(self, pos: int) -> list:
        return self.rule("condition", pos, self._condition)

    def _condition(self, pos: int) -> list:
        out = []
        for first, p in self.cond_atom(pos):
            out.extend(self._condition_tail(first, p))
        return out

    def _condition_tail(self, acc: Any, pos: int) -> list:
        out = [(acc, pos)]
        t = self.tok(pos)
        conn = None
        if t is not None and t.kind == "keyword" and t.text in LOGIC_WORDS:
            conn = t.text
        elif t is not None and t.kind == "symbol" and t.text in LOGIC_SYMS:
            conn = t.text
        if conn is None:
            return out
        for right, p2 in self.cond_atom(pos + 1):
            out.extend(self._condition_tail(R.BinCondComp(acc, right, conn), p2))
        return out

    def cond_atom(self, pos: int) -> list:
        return self.rule("cond_atom", pos, self._cond_atom)

    def _cond_atom(self, pos: int) -> list:
        out: list = []
        t = self.tok(pos)
        if t is None:
            return self.fail(pos, "condition")
        p = self.kw(pos, "SOME")
        if p is not None:
            for inner, p2 in self.binary(p):
                out.append((R.Conditioner(inner), p2))
        if t.kind == "keyword" and t.text == "NOT":
            for inner, p2 in self.cond_atom(pos + 1):
                out.append((R.Negation(inner), p2))
        if t.kind == "symbol" and t.text == "~":
            for inner, p2 in self.cond_atom(pos + 1):
                out.append((R.Negation(inner, tilde=True), p2))
        if t.kind == "punct" and t.text == "(":
            for inner, p1 in self.condition(pos + 1):
                p2 = self.punct(p1, ")")
                if p2 is not None:
                    out.append((inner, p2))
        out.extend(self._comparison(pos))
        # a condition-valued macro call
        for rec, p1, _ in self._function_call(pos):
            out.append((R.CondFunction(rec.name, rec.args), p1))
        if not out:
            self.fail(pos, "condition")
        return out

    def _compop(self, pos: int) -> tuple[str, int] | None:
        t = self.tok(pos)
        if t is None:
            return None
        if t.kind == "keyword" and (t.text in VALUECOMP_WORDS or t.text in SETCOMP_WORDS):
            return t.text, pos + 1
        if t.kind == "symbol" and t.text in VALUECOMP_SYMS:
            return t.text, pos + 1
        return None

    def _comparison(self, pos: int) -> list:
        out = []
        for left, p in self._operand(pos):
            op = self._compop(p)
            if op is None:
                continue
            text, p1 = op
            for right, p2 in self._operand(p1):
                rec = self._comparison_record(left, text, right)
                if rec is not None:
                    out.append((rec, p2))
        return out

    def _operand(self, pos: int) -> list:
        # comparison operands stop before the comparator, so they live at
        # the concatenation level; parentheses recover full generality
        return self.concat(pos)

    def _comparison_record(self, left: Any, op: str, right: Any):
        ls = to_scalar_record(left)
        rs = to_scalar_record(right)
        if ls is not None and rs is not None and (op in VALUECOMP_SYMS or op in VALUECOMP_WORDS):
            return R.ScaleExprComp(ls, rs, VALUECOMP_WORDS.get(op, op))
        if op in SETCOMP_WORDS:
            return R.InfDescrComp(left, right, SETCOMP_WORDS[op])
        if op in SETCOMP_SYMS:
            return R.InfDescrComp(left, right, SETCOMP_SYMS[op])
        return None

    # -- list statements ----------------------------------------------------

    def list_statement(self, pos: int) -> list:
        p = self.kw(pos, "LIST")
        if p is None:
            return []
        out = []
        starts: list[tuple[tuple | None, int]] = [(None, p)]
        for scalars, p1 in self._projection(p):
            for sep in ("OF", "FROM"):
                p2 = self.kw(p1, sep)
                if p2 is not None:
                    starts.append((scalars, p2))
        for projection, p0 in starts:
            for body, p1 in self.selection(p0):
                out.append((R.ListStatement(projection, body, None), p1))
                for order, p2 in self._order_clause(p1):
                    out.append((R.ListStatement(projection, body, order), p2))
        return _dedup(out)

    def _projection(self, pos: int) -> list:
        out = []

        def items(p: int, acc: tuple):
            for d, p1 in self.binary(p):
                sc = to_scalar_record(d)
                if sc is None:
                    continue
                p_comma = self.punct(p1, ",")
                if p_comma is not None:
                    items(p_comma, acc + (sc,))
                out.append((acc + (sc,), p1))

        items(pos, ())
        return out

    def _order_clause(self, pos: int) -> list:
        out = []
        p = self.kw(pos, "ORDERED")
        if p is not None:
            if self.kw(p, "ASCENDING") is not None:
                out.append((R.OrderClause("whole_asc"), p + 1))
            if self.kw(p, "DESCENDING") is not None:
                out.append((R.OrderClause("whole_desc"), p + 1))
        p = self.kw(pos, "ORDERED WITH")
        if p is not None:
            def items(p1: int, acc: tuple):
                for item, p2 in self._order_item(p1):
                    p_comma = self.punct(p2, ",")
                    if p_comma is not None:
                        items(p_comma, acc + (item,))
                    out.append((R.OrderClause("items", acc + (item,)), p2))

            items(p, ())
        return out

    def _order_item(self, pos: int) -> list:
        out = []
        v = self.is_variable(pos)
        if v is not None:
            for d, word in (("asc", "ASCENDING"), ("desc", "DESCENDING")):
                if self.kw(pos + 1, word) is not None:
                    out.append(((v, d), pos + 2))
        for d, word in (("asc", "ASCENDING"), ("desc", "DESCENDING")):
            if self.kw(pos, word) is not None:
                v2 = self.is_variable(pos + 1)
                if v2 is not None:
                    out.append(((v2, d), pos + 2))
        return out


# The parser and the tree walks after it recurse once per nesting level:
# once per bracket, and once per operator of a chain such as "x + x + x" or
# "NOT NOT c".  Brackets nested more than MAX_NESTING deep, and trees that
# can be more than MAX_DEPTH levels deep, are refused before they can
# exhaust the Python stack.
MAX_NESTING = 50
MAX_DEPTH = 210

_OPERATOR_WORDS = {"NOT", "IS", *VALUECOMP_WORDS, *SETOP_WORDS, *SETCOMP_WORDS, *LOGIC_WORDS}


def _check_nesting(tokens: list[Token]) -> None:
    # per open bracket level: its operators so far, and the depth of the
    # deepest bracketed level closed inside it
    levels = [[0, 0]]
    for t in tokens:
        if t.kind == "punct" and t.text in "([":
            if len(levels) > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested more than {MAX_NESTING} deep", line=t.line, column=t.column
                )
            levels.append([0, 0])
        elif t.kind == "punct" and t.text in ")]" and len(levels) > 1:
            ops, inner = levels.pop()
            levels[-1][1] = max(levels[-1][1], 1 + ops + inner)
        elif t.kind == "symbol" or (t.kind == "keyword" and t.text in _OPERATOR_WORDS):
            levels[-1][0] += 1
            # a level is at most as deep as its operators plus its deepest
            # bracket, and an open bracket may still end up the deepest
            depth = -1
            for ops, inner in reversed(levels):
                depth = ops + max(inner, depth + 1)
            if depth > MAX_DEPTH:
                raise ParseError(
                    f"operators nested more than {MAX_DEPTH} deep", line=t.line, column=t.column
                )


def parse_records(tokens: list[Token], schema: Schema) -> list:
    """All complete parses of a descriptor or condition."""
    _check_nesting(tokens)
    parser = Parser(tokens, schema)
    results = [rec for rec, p in parser.selection(0) if p == len(tokens)]
    results += [rec for rec, p in parser.condition(0) if p == len(tokens)]
    if not results:
        raise _parse_error(parser, tokens)
    return _dedup(results)


def parse_list_records(tokens: list[Token], schema: Schema) -> list:
    _check_nesting(tokens)
    parser = Parser(tokens, schema)
    t = parser.tok(0)
    if t is not None and t.kind == "keyword" and t.text == "LIST":
        results = [rec for rec, p in parser.list_statement(0) if p == len(tokens)]
    else:
        # a bare descriptor (with an optional order clause) is LIST I
        results = []
        for kind in ("selection", "condition"):
            rule = parser.selection if kind == "selection" else parser.condition
            for rec, p in rule(0):
                if p == len(tokens):
                    results.append(R.ListStatement(None, rec, None))
                    continue
                for order, p2 in parser._order_clause(p):
                    if p2 == len(tokens):
                        results.append(R.ListStatement(None, rec, order))
    if not results:
        raise _parse_error(parser, tokens)
    return _dedup(results)


def _parse_error(parser: Parser, tokens: list[Token]) -> ParseError:
    pos = min(parser.far, len(tokens))
    if pos < len(tokens):
        t = tokens[pos]
        where = f"at {t.line}:{t.column} near {t.text!r}"
    else:
        where = "at end of input"
    expected = ", ".join(sorted(parser.expected)) or "a query"
    hint = _suggest(parser, tokens, pos)
    return ParseError(f"syntax error {where}; expected {expected}{hint}")


def _suggest(parser: Parser, tokens: list[Token], pos: int) -> str:
    if pos >= len(tokens) or tokens[pos].kind != "word":
        return ""
    word = tokens[pos].text
    if word in parser.name_words:
        return ""
    candidates = sorted(
        name for name in parser.name_words if _edit_distance(word, name) <= 2
    )
    if not candidates:
        return ""
    return f" (unknown name {word!r}; did you mean {', '.join(candidates[:3])}?)"


def _edit_distance(a: str, b: str) -> int:
    if abs(len(a) - len(b)) > 2:
        return 3
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
