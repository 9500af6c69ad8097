"""Texts that differ only in their string and number literals share one
shape, whose readings are worked out once and kept in ``schema.shapes``; a
text of a known shape binds its own literals into them.  A text served from
its shape answers byte for byte as its own parse does: its table and CSV
output under each ambiguity policy, its error, and what ``\\explain`` and
``\\dump-path`` show."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from conquer import cli
from conquer.cli import Session, execute, load_full_schema, run_query
from conquer.errors import ConquerError
from conquer.frontend import parse_list, tokenize
from conquer.population import load_population
from conquer.schema import TypeRule

from .test_prepared import DEMO, calls  # noqa: F401  (a fixture)
from .test_rule_plans import RULES, path_of, population_doc, schema_doc

GOLDEN = json.loads((Path(__file__).resolve().parent / "parse_golden.json").read_text())
SCHEMA_DOC = json.loads((DEMO / "schema.json").read_text())
POPULATION_DOC = json.loads((DEMO / "population.json").read_text())
AMBIGUITIES = ["pick-first", "list", "fail"]


def fresh() -> Session:
    """A session on a demo schema of its own, so with empty tables."""
    schema = load_full_schema(SCHEMA_DOC)
    return Session(schema=schema, base_pop=load_population(schema, POPULATION_DOC))


def shown(f) -> str:
    try:
        return f()
    except ConquerError as e:
        return f"{type(e).__name__}: {e} {getattr(e, 'alternatives', '')}"


def observe(session: Session, text: str) -> dict:
    """Everything a session shows of ``text``: its output in each format
    under each ambiguity policy, and ``\\explain`` and ``\\dump-path``."""
    out = {}
    for ambiguity in AMBIGUITIES:
        session.ambiguity = ambiguity
        for out_format in ("table", "csv"):
            session.out_format = out_format
            out[ambiguity, out_format] = shown(lambda: run_query(session, text))
        for command in ("\\explain", "\\dump-path"):
            out[ambiguity, command] = shown(lambda: execute(session, f"{command} {text}"))
    return out


def variant(text: str) -> str:
    """``text`` with other literals of the same types in place of its own:
    equal literals stay equal and different ones stay different."""
    lines = text.split("\n")
    new: dict = {}
    for t in reversed(tokenize(text)):
        if t.kind not in ("string", "number"):
            continue
        k = new.setdefault((type(t.value), t.value), len(new))
        if t.kind == "string":
            lit = f"'v{k}'"
        else:
            lit = f"{9100 + k}.5" if type(t.value) is Fraction else str(9100 + k)
        line = lines[t.line - 1]
        lines[t.line - 1] = line[: t.column - 1] + lit + line[t.column - 1 + len(t.text):]
    return "\n".join(lines)


def unshaped(monkeypatch) -> None:
    """From now on no text is served from its shape: each is parsed
    itself."""
    monkeypatch.setattr(cli, "_shaped_readings", lambda schema, text: cli._kept(cli._readings(schema, text)))


def _has_literal(text: str) -> bool:
    try:
        return any(t.kind in ("string", "number") for t in tokenize(text))
    except ConquerError:
        return False


# the golden file's demo texts with a literal have one distinct literal
# each; these have several, which bind to their own slots, or a literal
# next to ``true``
SEVERAL_LITERALS = [
    "a Person who earns a Salary x WHERE x > 1000 AND x < 2500",
    "Person who works for a Company: 'acme' UNITED WITH Person who works for a Company: 'beta'",
    "Person who earns a Salary: 1000 OR OTHERWISE Person who earns a Salary: 2000",
    "LIST c, x / 1000, x - 500 OF a Person who works for a Company c AND ALSO earns a Salary x",
    "LIST c, 2.5 * x, x / 4 OF a Person who works for a Company c AND ALSO earns a Salary x WHERE x <> 2000",
    "'high' IF SOME a Person who earns a Salary: 3000; 'low' OTHERWISE",
    "(Person who works for a Company: 'acme' AND ALSO earns a Salary x WHERE x >= 1000)"
    " BUT NOT Person who earns a Salary: 3000",
    # ``true`` is no literal of the shape, and stays apart from a 1
    "LIST x * 1, true OF a Person who earns a Salary x",
]
LITERAL_TEXTS = [e["text"] for e in GOLDEN if e["schema"] == "demo" and _has_literal(e["text"])] + SEVERAL_LITERALS


def test_the_golden_file_has_demo_texts_with_literals():
    assert len(LITERAL_TEXTS) >= 80 + len(SEVERAL_LITERALS)


# ---------------------------------------------------------------------------
# the differential


@pytest.mark.parametrize("text", LITERAL_TEXTS, ids=lambda t: t[:60])
def test_a_text_served_from_its_shape_answers_as_its_own_parse(text, monkeypatch):
    other = variant(text)
    assert other != text and cli._shape(tokenize(other))[0] == cli._shape(tokenize(text))[0]
    cold = observe(fresh(), text)
    warm = fresh()
    shown(lambda: run_query(warm, other))
    assert observe(warm, text) == cold
    assert (warm.schema.shapes.misses, warm.schema.shapes.hits) == (1, 1)
    unshaped(monkeypatch)
    assert observe(fresh(), text) == cold


# ---------------------------------------------------------------------------
# what has a shape, and which shape


HALVES = ["500", "1000", "1500", "250", "750", "500"]


def test_literals_equal_across_types_are_two_slots(monkeypatch):
    """A parse keeps ``2`` and ``2.0`` apart, as the shape's slots do, so
    the text has a shape with two slots and answers as its own parse."""
    text = "LIST x / 2, x / 2.0 OF a Person who earns a Salary x"
    key, values, _ = cli._shape(tokenize(text))
    assert [(type(v), v) for v in values] == [(int, 2), (Fraction, 2)]
    assert key.count(("number", 0)) == key.count(("number", 1)) == 1
    session = fresh()
    (reading,) = parse_list(text, session.schema).interpretations
    assert [type(e.args[1].value) for e in reading.projection] == [int, Fraction]
    out = observe(session, text)
    assert len(session.schema.shapes) == 1 and session.schema.shapes.misses == 1
    for ambiguity in AMBIGUITIES:
        assert out[ambiguity, "table"].splitlines() == (
            ["x / 2 | x / 2", "------+------"] + [f"{h:<5} | {h}" for h in HALVES] + ["(6 rows)"]
        )
        assert out[ambiguity, "csv"].splitlines() == ["x / 2,x / 2"] + [f"{h},{h}" for h in HALVES]
    unshaped(monkeypatch)
    assert out == observe(fresh(), text)


def test_equal_and_different_literals_are_different_shapes():
    same = "Person who earns a Salary: 1000 OR OTHERWISE Person who earns a Salary: 1000"
    other = "Person who earns a Salary: 1000 OR OTHERWISE Person who earns a Salary: 2000"
    assert cli._shape(tokenize(same))[0] != cli._shape(tokenize(other))[0]
    session = fresh()
    outs = [observe(session, text) for text in (same, other)]
    assert len(session.schema.shapes) == 2 and session.schema.shapes.hits == 0
    assert outs == [observe(fresh(), text) for text in (same, other)]


def test_a_one_part_and_a_two_part_denotation_are_different_shapes():
    one, two = "Person: 'ann'", "Person: ('ann', 'x')"
    session = fresh()
    outs = [observe(session, text) for text in (one, two)]
    assert outs == [observe(fresh(), text) for text in (one, two)]
    assert "ann  | ann" in outs[0]["pick-first", "table"]
    assert "denotation arity 2" in outs[1]["pick-first", "table"]
    # the two-part denotation's shape raises, so only the one-part's is kept
    assert list(session.schema.shapes) == [cli._shape(tokenize(one))[0]]


@pytest.mark.parametrize(
    "text, error, longer_error",
    [("Salary: 1000 )", "at 1:14", "at 1:16"), ("a Person 1000 2000", "structurally empty", "structurally empty")],
)
def test_a_shape_whose_parse_raises_is_not_kept(text, error, longer_error):
    """Each text of the shape raises its own error: here the position of a
    syntax error depends on the length of the literal before it."""
    session = fresh()
    assert error in shown(lambda: run_query(session, text))
    assert session.schema.shapes == {} and session.schema.prepared == {}
    longer = text.replace("1000", "100000")
    own = shown(lambda: run_query(session, longer))
    assert longer_error in own and own == shown(lambda: run_query(fresh(), longer))
    assert session.schema.shapes == {} and session.schema.shapes.misses == 2


# ---------------------------------------------------------------------------
# what makes a shape prepared again


def test_a_macro_makes_a_shape_prepare_again(calls):  # noqa: F811
    session = fresh()
    execute(session, "\\macro Scaled(n) ::= n * 2")
    assert "| 6" in run_query(session, "LIST Scaled(3)")
    execute(session, "\\macro Scaled(n) ::= n * 3")
    assert calls["parse_list"] == 1
    out = run_query(session, "LIST Scaled(4)")
    assert "| 12" in out and calls["parse_list"] == 2
    assert session.schema.shapes.misses == 2 and session.schema.shapes.hits == 0
    again = fresh()
    execute(again, "\\macro Scaled(n) ::= n * 3")
    assert out == run_query(again, "LIST Scaled(4)")


def test_an_appended_derivation_rule_makes_a_shape_prepare_again(calls):  # noqa: F811
    doc = schema_doc()
    doc["derivations"] = [r for r in RULES if r.get("type") != "BigCompany"]
    schema = load_full_schema(doc)
    session = Session(schema=schema, base_pop=load_population(schema, population_doc(4)))
    run_query(session, "a BigCompany UNITED WITH a Company: 'c1'")
    schema.revise(derivations=schema.derivations + (TypeRule("BigCompany", path_of(schema, RULES[1]["body"])),))
    parsed = calls["parse_list"]
    text = "a BigCompany UNITED WITH a Company: 'c2'"
    out = run_query(session, text)
    assert calls["parse_list"] == parsed + 1 and schema.shapes.misses == 2
    fresh_schema = load_full_schema(schema_doc())
    assert out == run_query(Session(schema=fresh_schema, base_pop=load_population(fresh_schema, population_doc(4))), text)


# ---------------------------------------------------------------------------
# the table's counts and cap


def test_a_hit_on_an_exact_text_does_no_tokenizing_and_no_shape_lookup(monkeypatch):
    tokenized = []
    monkeypatch.setattr(cli, "tokenize", lambda text: tokenized.append(text) or tokenize(text))
    session = fresh()
    texts = [f"a Person who earns a Salary x WHERE x > {n}" for n in (1000, 1500)]
    for text in texts + texts:
        run_query(session, text)
    assert tokenized == texts
    shapes = session.schema.shapes
    assert (shapes.misses, shapes.hits) == (1, 1)


def test_the_shape_table_keeps_at_most_the_cap():
    session = fresh()
    # texts of different shapes: each lists one more literal than the last
    texts = ["LIST x" + ", 1" * i + " OF a Person who earns a Salary x" for i in range(cli.PREPARED_CAP + 3)]
    answers = [run_query(session, text) for text in texts]
    shapes = session.schema.shapes
    assert len(shapes) == cli.PREPARED_CAP and shapes.misses == len(texts)
    assert list(shapes) == [cli._shape(tokenize(text))[0] for text in texts[-cli.PREPARED_CAP:]]
    assert answers[-1] == run_query(fresh(), texts[-1])
