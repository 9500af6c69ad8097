"""The operator vocabulary is declared once, in ``frontend.lexer``.

Every word or symbol of its tables lowers to the operator its table names,
and verbalisation writes that operator back with the operator's first word
in the table.  The parser, lowering and verbalisation read the tables and
spell none of the words themselves.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from conquer import paths as P
from conquer.cli import load_full_schema
from conquer.frontend import disambiguate, lexer, parse_list
from conquer.population import load_population
from conquer.relalg import evaluate
from conquer.verbalise import VerbCtx, verbalise, verbalise_interpretation
from conquer.walk import children

from .oracle import oracle_eval

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
SRC = ROOT / "src" / "conquer"

_UNARY = {P.Reverse: "reverse", P.Front: "front", P.DistinctPath: "distinct"}
_PATH_CLASSES = {P.MissingPath: "missing", P.Product: "product"}


def _set_op(p):
    if isinstance(p, P.SetOp):
        return p.op, isinstance(p.left, P.Front) and isinstance(p.right, P.Front)
    return None


def _path_op(p):
    return p.op if isinstance(p, P.SetCompare) else _PATH_CLASSES.get(type(p))


def _bag_comparison(p):
    if isinstance(p, P.CExclusion):
        return "disjoint"
    return p.op if isinstance(p, P.CBagComp) else None


def _field(kind, name):
    return lambda p: getattr(p, name) if isinstance(p, kind) else None


# each table: a query on the demo schema with the word in place of {w}, and
# the operator a path node carries (None for the nodes of other kinds)
FAMILIES = {
    "SET_OPS": (
        "(a Person who earns a Salary) {w} (a Person who earns a Salary x WHERE x > 1000)",
        _set_op,
    ),
    "PATH_OPS": ("a Person {w} a Person who earns a Salary", _path_op),
    "VALUE_COMPARISONS": ("a Person who earns a Salary x WHERE x {w} 1000", _field(P.CScalarComp, "op")),
    "BAG_COMPARISONS": (
        "a Company c WHERE (a Person who works for c) {w} (a Person who earns a Salary)",
        _bag_comparison,
    ),
    "CONNECTIVES": ("a Person who earns a Salary x WHERE x > 1 {w} x < 5000", _field(P.CLogic, "op")),
    "AGGREGATES": ("a Company c WHERE {w} Salary of a Person who works for c > 1000", _field(P.SAgg, "kind")),
    "GROUP_FUNCTIONS": ("{w} a Person who works for a Company c GROUPED BY c", _field(P.GroupFn, "kind")),
    "UNARY_OPS": ("{w} (a Person who works for a Company)", lambda p: _UNARY.get(type(p))),
    "ARITHMETIC": ("a Person who earns a Salary x WHERE (x {w} 2) > 1000", _field(P.SApply, "func")),
}

ENTRIES = [(family, word) for family in FAMILIES for word in getattr(lexer, family)]


@pytest.fixture(scope="module")
def schema():
    return load_full_schema((DEMO / "schema.json").read_text())


def _operators(p, op_of) -> set:
    seen, out, todo = set(), set(), [p]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        op = op_of(node)
        if op is not None:
            out.add(op)
        todo.extend(children(node, P.PATH_KINDS))
    return out


def _written(table: dict, op) -> str:
    return next(word for word, o in table.items() if o == op)


def test_every_table_is_exercised():
    assert set(FAMILIES) == {
        name for name, value in vars(lexer).items() if any(value is t for t in lexer.OPERATOR_TABLES)
    }


@pytest.mark.parametrize("family, word", ENTRIES, ids=[f"{f}:{w}" for f, w in ENTRIES])
def test_word_lowers_to_its_operator_and_verbalises_back(schema, family, word):
    table = getattr(lexer, family)
    template, op_of = FAMILIES[family]
    # the first reading is the one the pick-first policy runs
    interp = disambiguate(schema, parse_list(template.format(w=word), schema)).interpretations[0]
    assert table[word] in _operators(interp.path, op_of)
    text = verbalise_interpretation(schema, interp)
    assert f" {_written(table, table[word])} " in f" {text} "


def test_keywords_are_the_tables_words_and_the_grammar_keywords():
    words = {w for table in lexer.OPERATOR_TABLES for w in table if w[0].isalpha()}
    assert words <= set(lexer.KEYWORD_PHRASES)
    lengths = [len(p.split()) for p in lexer.KEYWORD_PHRASES]
    assert lengths == sorted(lengths, reverse=True)


_READERS = ["frontend/parser.py", "frontend/lower.py", "verbalise.py"]
_WORDS = {w for table in lexer.OPERATOR_TABLES for w in table}


@pytest.mark.parametrize("module", _READERS)
def test_no_reader_spells_an_operator_word(module):
    tree = ast.parse((SRC / module).read_text())
    spelled = sorted(
        {
            node.value.strip()
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.strip() in _WORDS
        }
    )
    assert spelled == []


class TestWith:
    """WITH is a keyword, so a product of two descriptors can be written."""

    def test_parses_to_one_product_that_answers_like_the_oracle(self, schema):
        pop = load_population(schema, (DEMO / "population.json").read_text())
        result = disambiguate(schema, parse_list("(a Person) WITH (a Company)", schema))
        assert len(result.interpretations) == 1
        interp = result.interpretations[0]
        assert interp.path == P.Product(P.TypeAtom("Person"), P.TypeAtom("Company"))
        engine = evaluate(P.translate(schema, interp.path, interp.typing), pop)
        header, body = oracle_eval(schema, pop, interp.typing, interp.path)
        assert (engine.header, engine.body) == (header, body)
        persons, companies = (len(pop.instances(t)) for t in ("Person", "Company"))
        assert len(body) == persons * companies > 0

    def test_verbalised_product_parses_back(self, schema):
        product = P.Product(P.TypeAtom("Person"), P.TypeAtom("Company"))
        text = verbalise(product, VerbCtx(schema, P.infer_typing(schema, product)))
        assert text == "a Person WITH a Company"
        readings = disambiguate(schema, parse_list(text, schema)).interpretations
        assert [i.path for i in readings] == [product]

    def test_is_not_a_variable_name(self, schema):
        assert [t.kind for t in lexer.tokenize("a Person WITH a Company")][2] == "keyword"
