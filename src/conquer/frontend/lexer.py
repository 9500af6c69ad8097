"""Tokeniser for the concrete query syntax, and its operator vocabulary.

Keywords are fixed uppercase word sequences and are fused greedily by
longest match, so "INTERSECTED WITH" is one token while the lowercase
words of schema names (role names like "works for") stay separate WORD
tokens for the parser to resolve against the naming tables.  Strings use
single quotes; numbers are decimal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ..errors import LexError

# The operator vocabulary: one table per operator family, from each word or
# symbol to the name the path expressions give its operator.  The parser,
# lowering and verbalisation all read these tables; verbalisation writes
# each operator with its first word in its family's table.

# set operations: ``SetOp.op``, and whether the operands are their fronts
SET_OPS = {
    "UNITED WITH": ("union", False),
    "INTERSECTED WITH": ("intersect", False),
    "MINUS": ("minus", False),
    "OR OTHERWISE": ("union", True),
    "AND ALSO": ("intersect", True),
    "BUT NOT": ("minus", True),
}
# ``SetCompare.op``, and the MISSING and WITH path operators
PATH_OPS = {
    "WHICH ARE ALL IN": "all_in",
    "THAT INCLUDES ALL": "includes_all",
    "MATCHING ALL": "match_all",
    "MISSING": "missing",
    "WITH": "product",
}
# value comparisons: ``RelCompare.op`` and ``CScalarComp.op``
VALUE_COMPARISONS = {
    "=": "=",
    "<>": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "IS EQUAL TO": "=",
    "IS NOT EQUAL TO": "<>",
    "IS LESS THAN": "<",
    "IS LESS THAN OR EQUAL TO": "<=",
    "IS GREATER THAN": ">",
    "IS GREATER THAN OR EQUAL TO": ">=",
}
# bag comparisons: ``CBagComp.op``, and ``disjoint`` for ``CExclusion``
BAG_COMPARISONS = {
    "EQUALS": "=",
    "DOES NOT EQUAL": "<>",
    "IS A SUBSET OF": "sub",
    "IS A SUBSET OF OR EQUAL TO": "subeq",
    "IS A SUPERSET OF": "sup",
    "IS A SUPERSET OF OR EQUAL TO": "supeq",
    "IS DISJOINT FROM": "disjoint",
    "=": "=",
    "<>": "<>",
    "<": "sub",
    "<=": "subeq",
    ">": "sup",
    ">=": "supeq",
}
# ``CLogic.op``
CONNECTIVES = {
    "AND": "and",
    "OR": "or",
    "EXCLUSIVE OR": "xor",
    "IMPLIES": "implies",
    "IFF": "iff",
    "&": "and",
    "=>": "implies",
    "<=>": "iff",
}
# ``SAgg.kind``
AGGREGATES = {
    "THE COUNT OF": "count",
    "THE SUM OF": "sum",
    "THE MINIMUM OF": "min",
    "THE MAXIMUM OF": "max",
    "THE AVERAGE OF": "avg",
    "THE MINIMUM": "min",
    "THE MAXIMUM": "max",
    "THE AVERAGE": "avg",
}
# ``GroupFn.kind``
GROUP_FUNCTIONS = {
    "THE COUNT OF": "count",
    "THE DISTINCT COUNT OF": "dscount",
    "THE SUM OF": "sum",
    "THE DISTINCT SUM OF": "dssum",
    "THE MINIMUM OF": "min",
    "THE MAXIMUM OF": "max",
    "THE AVERAGE OF": "avg",
}
# the unary path operators ``Reverse``, ``Front`` and ``DistinctPath``
UNARY_OPS = {"THE REVERSE OF": "reverse", "ONLY": "front", "DISTINCT": "distinct"}
# ``SApply.func``
ARITHMETIC = {"+": "+", "-": "-", "*": "*", "/": "/"}

OPERATOR_TABLES = (
    SET_OPS,
    PATH_OPS,
    VALUE_COMPARISONS,
    BAG_COMPARISONS,
    CONNECTIVES,
    AGGREGATES,
    GROUP_FUNCTIONS,
    UNARY_OPS,
    ARITHMETIC,
)
_OPERATORS = {w for table in OPERATOR_TABLES for w in table}
# the other keywords, which the grammar matches literally
_STRUCTURAL = {
    "THE PATH FROM", "GROUPED BY", "ORDERED WITH", "ORDERED", "ASCENDING", "DESCENDING", "OTHERWISE",
    "WHERE", "SELECT", "LIST", "FROM", "EACH", "SOME", "THEN", "ELSE", "HEAD", "TAIL", "NOT",
    "VIA", "OF", "TO", "AS", "IF", "IN", "IS",
}

# longest first, so that a phrase is fused before any phrase it starts with
KEYWORD_PHRASES = sorted(
    {w for w in _OPERATORS if w[0].isalpha()} | _STRUCTURAL, key=lambda p: (-len(p.split()), p)
)
# the phrases by their first word, longest first
_PHRASES: dict[str, list[tuple[str, ...]]] = {}
for _phrase in KEYWORD_PHRASES:
    _PHRASES.setdefault(_phrase.split()[0], []).append(tuple(_phrase.split()))

# longest first too; besides the operators' symbols, the negation "~" and
# the macro definition sign "::="
_SYMBOLS = sorted({w for w in _OPERATORS if not w[0].isalpha()} | {"::=", "~"}, key=lambda s: (-len(s), s))
_PUNCT = set("():!,;.[]")

_WORD_RE = re.compile(r"[A-Za-z_](?:[A-Za-z0-9_]|-(?=[A-Za-z0-9_]))*")
_NUM_RE = re.compile(r"\d+(?:\.\d+)?")


@dataclass(frozen=True)
class Token:
    kind: str  # word | keyword | number | string | symbol | punct
    text: str
    value: Any
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.text}"


def tokenize(text: str) -> list[Token]:
    raw: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise LexError("unterminated string", line=line, column=col)
            value = text[i + 1 : j]
            raw.append(Token("string", text[i : j + 1], value, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            lit = m.group(0)
            value = Fraction(lit) if "." in lit else int(lit)
            raw.append(Token("number", lit, value, line, col))
            i = m.end()
            col += len(lit)
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group(0)
            raw.append(Token("word", word, word, line, col))
            i = m.end()
            col += len(word)
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                raw.append(Token("symbol", sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch in _PUNCT:
                raw.append(Token("punct", ch, ch, line, col))
                i += 1
                col += 1
            else:
                raise LexError(f"illegal character {ch!r}", line=line, column=col)
    return _fuse_keywords(raw)


def _fuse_keywords(tokens: list[Token]) -> list[Token]:
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "word" and t.text in _PHRASES:
            fused = None
            for phrase in _PHRASES[t.text]:
                k = len(phrase)
                window = tokens[i : i + k]
                if len(window) == k and all(
                    w.kind == "word" and w.text == p for w, p in zip(window, phrase)
                ):
                    fused = Token("keyword", " ".join(phrase), " ".join(phrase), t.line, t.column)
                    i += k
                    break
            if fused is not None:
                out.append(fused)
                continue
        if t.kind == "word" and t.text == "true":
            out.append(Token("true", "true", True, t.line, t.column))
            i += 1
            continue
        out.append(t)
        i += 1
    return out
