"""Each query text is prepared once per schema: its readings, plan and
output stage are kept in ``schema.prepared`` and serve every later run on
any population of the schema.  A run served from the table answers byte
for byte as a first run does; a change of the schema's macros or derived
types, or a new schema, makes the next run prepare the text again."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from conquer import cli
from conquer import paths as P
from conquer import relalg as ra
from conquer.cli import PREPARED_CAP, Session, execute, load_full_schema, run_query
from conquer.errors import AmbiguityError, ConquerError, EvalError, ParseError, TranslateError
from conquer.population import load_population
from conquer.schema import TypeRule

from .test_reading_golden import README_QUERIES, _gen
from .test_rule_plans import RULES, path_of, population_doc, schema_doc

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"

# one query of each kind: a projection, an ORDERED clause, a grouped count
# and a correlated subquery, over the demo schema
DEMO_QUERIES = [
    "LIST c, x / 3 OF Person who works for a Company c AND ALSO earns a Salary x",
    "LIST a Person who earns a Salary x ORDERED WITH x DESCENDING",
    "THE COUNT OF (Person who works for a Company c) GROUPED BY c",
    README_QUERIES[0],
]


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls of ``parse_list`` and ``compile_plan`` from now on."""
    counts: Counter = Counter()
    for module, name in [(cli, "parse_list"), (ra, "compile_plan")]:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return counts


def demo_session(**settings) -> Session:
    session = Session(**settings)
    session.load_schema_file(str(DEMO / "schema.json"))
    session.load_population_file(str(DEMO / "population.json"))
    return session


def outcome(session: Session, text: str):
    """What a run shows: its output, or the error it raises with the
    alternatives of an ambiguous query."""
    try:
        return run_query(session, text)
    except AmbiguityError as e:
        return type(e), str(e), tuple(e.alternatives)
    except ConquerError as e:
        return type(e), str(e)


def workload(name: str, n_ops: int = 12):
    wl = _gen().make_workload(name, ROOT, 1, n_ops)
    schema = load_full_schema(wl.schema_doc)
    return wl, schema, [load_population(schema, doc) for doc in wl.pop_docs]


# ---------------------------------------------------------------------------
# a run served from the table answers as a first run


@pytest.mark.parametrize("ambiguity", ["pick-first", "list", "fail"])
@pytest.mark.parametrize("out_format", ["table", "csv"])
def test_a_hit_answers_as_a_miss(ambiguity, out_format, calls):
    session = demo_session(ambiguity=ambiguity, out_format=out_format)
    wl, schema, pops = workload("long_query")
    homonym = next(op.text for op in wl.ops if op.kind == "homonym")
    bench = Session(schema=schema, base_pop=pops[0], ambiguity=ambiguity, out_format=out_format)
    for s, text in [(session, q) for q in DEMO_QUERIES] + [(bench, homonym)]:
        s.schema.prepared.clear()
        miss = outcome(s, text)
        parsed = calls["parse_list"]
        assert outcome(s, text) == miss
        assert calls["parse_list"] == parsed  # the second run was a hit
    if ambiguity == "pick-first":
        assert outcome(bench, homonym).startswith("HEAD")
    elif ambiguity == "list":
        assert outcome(bench, homonym).startswith("ambiguous query; interpretations:")
    else:
        kind, message, alternatives = outcome(bench, homonym)
        assert kind is AmbiguityError and len(alternatives) == 2


def test_the_session_settings_are_read_on_every_run():
    session = demo_session()
    text = DEMO_QUERIES[0]
    table = run_query(session, text)
    session.out_format = "csv"
    csv_out = run_query(session, text)
    assert csv_out != table
    assert csv_out == run_query(demo_session(out_format="csv"), text)


@pytest.mark.parametrize("name", ["join_scan", "correlated"])
def test_a_hit_on_another_population_answers_for_it(name, calls):
    """Every text first runs on one population, then on the others from
    the table; each answer is a fresh session's first run on that
    population."""
    wl, schema, pops = workload(name)
    texts = list(dict.fromkeys(README_QUERIES + [op.text for op in wl.ops]))
    session = Session(schema=schema, ambiguity="pick-first")
    for text in texts:
        session.base_pop = pops[0]
        run_query(session, text)
    parsed = calls["parse_list"]
    assert len(pops) > 1
    for i, pop in enumerate(pops[1:], 1):
        for text in texts:
            session.base_pop = pop
            fresh_schema = load_full_schema(wl.schema_doc)
            fresh = Session(schema=fresh_schema, base_pop=load_population(fresh_schema, wl.pop_docs[i]))
            assert run_query(session, text) == run_query(fresh, text), (i, text)
    # the fresh sessions parsed; the kept table served every run
    assert calls["parse_list"] == parsed + len(texts) * (len(pops) - 1)


def test_a_repeated_text_is_parsed_and_compiled_once(calls):
    session = demo_session()
    outs = {run_query(session, DEMO_QUERIES[1]) for _ in range(4)}
    assert len(outs) == 1
    assert calls == {"parse_list": 1, "compile_plan": 1}
    # the debugging commands read the same entry
    execute(session, "\\explain " + DEMO_QUERIES[1])
    execute(session, "\\dump-path " + DEMO_QUERIES[1])
    assert calls == {"parse_list": 1, "compile_plan": 1}


def test_an_entry_keeps_no_record_tree_and_no_parse_memo():
    session = demo_session()
    run_query(session, README_QUERIES[0])
    entry = session.schema.prepared[README_QUERIES[0]]
    assert all(reading.records is None for reading in entry.readings)
    assert not hasattr(entry, "memo")


# ---------------------------------------------------------------------------
# a projection is columns of the query's one plan


def test_a_projection_is_translated_and_compiled_with_its_path(monkeypatch, calls):
    """A LIST projection with an aggregate in it is translated with its
    path, through one ``Translator``, into one plan."""
    translated, translators = [], []
    translate, init = P.translate, P.Translator.__init__
    monkeypatch.setattr(P, "translate", lambda *args, **kwargs: translated.append(args) or translate(*args, **kwargs))
    monkeypatch.setattr(P.Translator, "__init__", lambda self, *args: translators.append(self) or init(self, *args))
    text = "LIST c, THE AVERAGE Salary of a Person who works for c OF " + README_QUERIES[0]
    assert run_query(demo_session(), text) == "\n".join([
        "c    | THE AVERAGE OF a Salary of a Person who works for c",
        "-----+----------------------------------------------------",
        "acme | 2000",
        "beta | 1000",
        "(2 rows)",
    ])
    assert len(translated) == 1 and len(translators) == 1 and calls["compile_plan"] == 1


def test_a_projected_column_does_not_break_ties():
    """Rows that tie on the order key keep the order of the path's own
    cells (here the persons' names) although the projected 0 - x orders
    them the other way."""
    text = "LIST 0 - x, HEAD OF a Person who works for a Company c AND ALSO earns a Salary x ORDERED WITH c ASCENDING"
    assert run_query(demo_session(out_format="csv"), text).splitlines() == [
        "0 - x,HEAD", "-1000,ann", "-2000,bob", "-3000,cy", "-500,dee", "-1500,eli", "-1000,fay",
    ]


# ---------------------------------------------------------------------------
# what makes a text prepared again


def test_a_redefined_macro_changes_the_answer(calls):
    session = demo_session()
    execute(session, "\\macro Scaled(n) ::= n * 2")
    assert "| 6" in run_query(session, "LIST Scaled(3)")
    execute(session, "\\macro Scaled(n) ::= n * 3")
    assert "| 9" in run_query(session, "LIST Scaled(3)")
    assert calls["parse_list"] == 2


def test_a_macro_written_into_the_table_changes_the_answer(calls):
    session = demo_session()
    execute(session, "\\macro Scaled(n) ::= n * 2")
    execute(session, "\\macro Tripled(n) ::= n * 3")
    assert "| 6" in run_query(session, "LIST Scaled(3)")
    macros = session.schema.macros
    # the table refuses a direct write, which would leave the prepared
    # text stale; the same change made through ``revise`` is seen
    with pytest.raises(TypeError):
        macros["Scaled"] = macros["Tripled"]
    session.schema.revise(macros={**macros, "Scaled": macros["Tripled"]})
    assert "| 9" in run_query(session, "LIST Scaled(3)")
    assert calls["parse_list"] == 2


def test_a_new_macro_name_changes_the_reading():
    """A word that becomes a macro reads as a call from then on."""
    session = demo_session()
    with pytest.raises(ConquerError, match="unknown function 'Scaled'"):
        run_query(session, "LIST Scaled(3)")
    execute(session, "\\macro Scaled(n) ::= n * 2")
    assert "| 6" in run_query(session, "LIST Scaled(3)")


def test_an_appended_derivation_rule_prepares_again(calls):
    doc = schema_doc()
    doc["derivations"] = [r for r in RULES if r.get("type") != "BigCompany"]
    schema = load_full_schema(doc)
    session = Session(schema=schema, base_pop=load_population(schema, population_doc(4)))
    text = "a BigCompany"
    assert run_query(session, text).endswith("(0 rows)")
    schema.revise(derivations=schema.derivations + (TypeRule("BigCompany", path_of(schema, RULES[1]["body"])),))
    parsed, compiled = calls["parse_list"], calls["compile_plan"]
    out = run_query(session, text)
    assert calls["parse_list"] == parsed + 1 and calls["compile_plan"] > compiled
    fresh_doc = schema_doc()
    fresh_schema = load_full_schema(fresh_doc)
    fresh = Session(schema=fresh_schema, base_pop=load_population(fresh_schema, population_doc(4)))
    assert out == run_query(fresh, text) and not out.endswith("(0 rows)")


def test_a_loaded_population_is_derived_again(tmp_path):
    """The derived population follows the base population it was derived
    from."""
    schema = load_full_schema(schema_doc())
    session = Session(schema=schema, base_pop=load_population(schema, population_doc(1)))
    text = "a HighEarner"
    before = run_query(session, text)
    doc = tmp_path / "population.json"
    doc.write_text(json.dumps(population_doc(9)))
    session.load_population_file(str(doc))
    after = run_query(session, text)
    assert after == run_query(Session(schema=schema, base_pop=session.base_pop), text)
    assert after != before


def test_a_reloaded_schema_starts_with_an_empty_table(calls):
    session = demo_session()
    run_query(session, DEMO_QUERIES[2])
    old = session.schema
    session.load_schema_file(str(DEMO / "schema.json"))
    session.load_population_file(str(DEMO / "population.json"))
    assert session.schema.prepared == {} and DEMO_QUERIES[2] in old.prepared
    assert run_query(session, DEMO_QUERIES[2]) == run_query(demo_session(), DEMO_QUERIES[2])
    assert calls["parse_list"] == 3


# ---------------------------------------------------------------------------
# errors and the cap


@pytest.mark.parametrize(
    "text, error",
    [
        ("a Nonexistent", ParseError),
        ("THE COUNT OF a Person GROUPED BY x", TranslateError),
        ("LIST c, x / 0 OF Person who works for a Company c AND ALSO earns a Salary x", EvalError),
    ],
)
def test_an_error_is_raised_again(text, error):
    session = demo_session()
    first = outcome(session, text)
    assert first[0] is error
    assert outcome(session, text) == first
    # a text whose parse raises is not kept
    assert (text in session.schema.prepared) == (error is not ParseError)


def test_the_table_keeps_at_most_the_cap():
    session = demo_session()
    texts = [f"a Person who earns a Salary x WHERE x > {1000 + i}" for i in range(PREPARED_CAP + 5)]
    answers = [run_query(session, text) for text in texts]
    table = session.schema.prepared
    assert len(table) == PREPARED_CAP
    # the texts prepared first went first
    assert list(table) == texts[-PREPARED_CAP:]
    fresh = demo_session()
    for text, answer in zip(texts, answers):
        assert run_query(session, text) == answer == run_query(fresh, text)
        assert len(table) <= PREPARED_CAP
