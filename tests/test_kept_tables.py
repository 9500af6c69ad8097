"""The tables of kept work and what makes it stale.

``Schema.prepared``, ``Schema.shapes`` and ``Population.results`` are
``Kept`` tables: capped, the entry used least recently dropped first.  The
macros and derivation rules of a schema change through ``Schema.revise``
alone, which drops the work kept on them: the prepared texts and shapes and
the rules' and constraints' plans.  A session's derived population is kept
while its base population and the schema's rules are the ones it was
derived from."""

from __future__ import annotations

from collections import Counter

import pytest

from conquer import cli
from conquer import paths as P
from conquer import relalg as ra
from conquer.cli import PREPARED_CAP, Session, execute, load_full_schema, run_query
from conquer.frontend import tokenize
from conquer.population import load_population
from conquer.schema import Kept, Schema, TypeRule

from .test_prepared_shapes import fresh
from .test_rule_plans import path_of, population_doc, schema_doc

TEXT = "a Person who earns a Salary x WHERE x > 1000"


def test_a_kept_table_drops_the_entry_used_least_recently():
    table = Kept(2)
    table.keep("a", 1)
    table.keep("b", 2)
    assert table.find("a") == 1
    table.keep("c", 3)
    assert list(table) == ["a", "c"]
    assert table.find("b") is None and (table.hits, table.misses) == (1, 1)


def test_a_text_prepared_before_a_macro_is_a_miss():
    session = fresh()
    run_query(session, TEXT)
    prepared = session.schema.prepared
    hits, misses = prepared.hits, prepared.misses
    execute(session, "\\macro Doubled(n) ::= n * 2")
    run_query(session, TEXT)
    assert (prepared.hits, prepared.misses) == (hits, misses + 1)
    run_query(session, TEXT)
    assert (prepared.hits, prepared.misses) == (hits + 1, misses + 1)


def test_a_used_text_outlives_the_older_unused_ones():
    session = fresh()
    texts = [f"a Person who earns a Salary x WHERE x > {1000 + i}" for i in range(PREPARED_CAP + 1)]
    run_query(session, texts[0])
    run_query(session, texts[1])
    run_query(session, texts[0])  # used again, so now the one used last
    for text in texts[2:]:
        run_query(session, text)
    table = session.schema.prepared
    assert len(table) == PREPARED_CAP
    assert texts[0] in table and texts[1] not in table


def test_a_used_shape_outlives_the_older_unused_ones():
    def text(n: int, literal: int) -> str:
        # n equal literals share one slot, so n tells the shape
        return "LIST x" + f", {literal}" * n + " OF a Person who earns a Salary x"

    session = fresh()
    run_query(session, text(1, 1))
    run_query(session, text(2, 1))
    run_query(session, text(1, 2))  # another text of the first shape
    for n in range(3, PREPARED_CAP + 2):
        run_query(session, text(n, 1))
    shapes = session.schema.shapes
    assert len(shapes) == PREPARED_CAP
    key = lambda n: cli._shape(tokenize(text(n, 1)))[0]  # noqa: E731
    assert key(1) in shapes and key(2) not in shapes


@pytest.fixture
def counts(monkeypatch) -> Counter:
    """Calls from now on of what builds kept work: ``Prepared``, the parse
    of a shape (``_readings``), ``compile_plan``, ``apply_derivations`` and
    ``Schema.derived_types``."""
    out: Counter = Counter()
    targets = [
        (cli.Prepared, "__init__"), (cli, "_readings"), (ra, "compile_plan"), (P, "apply_derivations"),
        (Schema, "derived_types"),
    ]
    for owner, name in targets:
        fn = getattr(owner, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            out[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return out


def rules_session() -> Session:
    schema = load_full_schema(schema_doc())
    return Session(schema=schema, base_pop=load_population(schema, population_doc(4)))


def test_a_warm_hit_reads_no_derived_types(counts):
    session = rules_session()
    run_query(session, TEXT)
    counts.clear()
    run_query(session, TEXT)
    assert counts == Counter()


def test_a_macro_prepares_the_text_again_and_keeps_the_derived_population(counts):
    session = rules_session()
    schema = session.schema
    first = run_query(session, TEXT)
    key = cli._shape(tokenize(TEXT))[0]
    kept = [schema.prepared[TEXT], schema.shapes[key]]
    derived = session.derived_pop
    execute(session, "\\macro Doubled(n) ::= n * 2")
    counts.clear()
    for _ in range(3):
        assert run_query(session, TEXT) == first
    # the text and its shape are prepared once each and the text's plan is
    # compiled once; the rules are the same, so nothing is derived again
    assert counts["__init__"] == 1 and counts["_readings"] == 1 and counts["compile_plan"] == 1
    assert counts["apply_derivations"] == 0 and session.derived_pop is derived
    now = [schema.prepared[TEXT], schema.shapes[key]]
    assert all(new is not old for new, old in zip(now, kept))
    # the rules' plans went with the macro and are built on the next derive
    assert schema.plans == {}
    execute(session, "\\derive")
    assert counts["compile_plan"] == 1 + len(schema.derivations) and len(schema.plans) == len(schema.derivations)


def test_a_rule_change_derives_the_population_once(counts):
    session = rules_session()
    schema = session.schema
    first = run_query(session, TEXT)
    derived = session.derived_pop
    richer = TypeRule("HighEarner", path_of(schema, "a Person who earns a Salary x WHERE x >= 5000"))
    schema.revise(derivations=(richer,) + schema.derivations[1:])
    counts.clear()
    for _ in range(3):
        assert run_query(session, TEXT) == first
    # the population is derived once, compiling each rule's plan once, and
    # the text's plan is compiled once
    assert counts["apply_derivations"] == 1 and session.derived_pop is not derived
    assert counts["compile_plan"] == len(schema.derivations) + 1


@pytest.mark.parametrize("change", ["macros", "derivations"])
def test_a_revise_drops_the_kept_plans_texts_and_shapes(change):
    session = rules_session()
    schema = session.schema
    run_query(session, TEXT)
    execute(session, "\\derive")
    assert schema.plans and schema.prepared and schema.shapes
    schema.revise(**{change: getattr(schema, change)})
    assert schema.plans == {} and schema.prepared == {} and schema.shapes == {}


def test_the_rules_refuse_a_direct_write():
    # the macros' refusal is checked in tests/test_prepared.py
    schema = load_full_schema(schema_doc())
    with pytest.raises(AttributeError):
        schema.derivations.append(schema.derivations[0])
    schema.revise(derivations=schema.derivations[:1])
    assert len(schema.derivations) == 1
