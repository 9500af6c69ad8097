"""Every query on a population keeps the result of each uncorrelated
sub-plan on it, under the code of the one node that the schema's plans
hold for the sub-plan's structure, and the text of each cell value; every
later query on the population reads them.  A warm population answers byte
for byte as a cold one; the work that two texts share runs once per
population; constants of different types, a sub-plan that raises and a
change of the schema's rules are never served a wrong result, and a
result kept before a rule change is served after it; and the kept results
stay within their cap."""

from __future__ import annotations

import gc
import json
import random
from fractions import Fraction

import pytest

from conquer import relalg as ra
from conquer.bag import Bag
from conquer.cli import Session, load_full_schema, run_query
from conquer.errors import ConquerError, EvalError
from conquer.paths import expr_of
from conquer.population import RESULTS_CAP, load_population
from conquer.schema import TypeRule

from .test_oracle_large import DEMO_QUERIES, demo_population_doc
from .test_parse_golden import GOLDEN
from .test_rule_plans import RULES, path_of, population_doc, schema_doc
from .test_scaling import DEMO
from .test_text_differential import demo_set_texts

JOIN = "a Person who works for a Company c AND ALSO earns a Salary x"


def demo_texts() -> list[str]:
    """The demo-schema texts of the parser golden and of the oracle
    corpus, each once."""
    golden = [case["text"] for case in json.loads(GOLDEN.read_text()) if case["schema"] == "demo"]
    return list(dict.fromkeys(golden + demo_set_texts() + DEMO_QUERIES))


def demo_docs() -> list[dict]:
    """The demo population, and a generated one with NULL salaries, persons
    without a salary and a company without employees."""
    return [json.loads((DEMO / "population.json").read_text()), demo_population_doc(random.Random(7), 24, 5)]


def outputs(session: Session, text: str) -> tuple:
    """The table and the CSV output of ``text``, or the error it raises."""
    out = []
    for fmt in ("table", "csv"):
        session.out_format = fmt
        try:
            out.append(run_query(session, text))
        except ConquerError as e:
            out.append((type(e), str(e)))
    return tuple(out)


@pytest.mark.parametrize("doc", demo_docs(), ids=["demo", "generated"])
def test_a_warm_population_answers_as_a_cold_one(doc):
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    texts = demo_texts()
    cold = {}
    for text in texts:
        cold[text] = outputs(Session(schema=schema, base_pop=load_population(schema, doc)), text)
    for order in (texts, texts[::-1]):
        session = Session(schema=schema, base_pop=load_population(schema, doc))
        for text in order:
            outputs(session, text)
        for text in order:
            assert outputs(session, text) == cold[text], text
        # more sub-plans than the cap ran, so some results were dropped
        assert session.base_pop.results.misses > RESULTS_CAP
    assert sum(isinstance(out[0], str) for out in cold.values()) > 150


def test_the_work_two_texts_share_runs_once(monkeypatch):
    """The join that two texts share is one sub-plan of both plans: the
    second text reads it from the population, so the intersection at its
    core runs once, and the second text misses only on its own nodes."""
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    texts = [f"{JOIN} WHERE x > 1000", f"THE COUNT OF ({JOIN}) GROUPED BY c"]
    intersections = []
    intersect = Bag.intersect
    monkeypatch.setattr(Bag, "intersect", lambda self, other: intersections.append(1) or intersect(self, other))
    doc = demo_docs()[1]
    alone = []
    for text in texts:
        pop = load_population(schema, doc)
        run_query(Session(schema=schema, base_pop=pop), text)
        alone.append(pop.results.misses)
    assert len(intersections) == 2
    intersections.clear()
    session = Session(schema=schema, base_pop=load_population(schema, doc))
    run_query(session, texts[0])
    results = session.base_pop.results
    assert (results.hits, results.misses) == (0, alone[0])
    run_query(session, texts[1])
    assert len(intersections) == 1
    # the second text's plan found its join kept, and computed none of
    # the nodes under it
    assert results.hits >= 1 and results.misses - alone[0] < alone[1]


@pytest.mark.parametrize("value", [1, 1.0, Fraction(1)], ids=["int", "float", "Fraction"])
def test_constants_of_different_types_are_kept_apart(value):
    """Plans that differ only in a constant's type are nodes of their own,
    so each answers with its own type on a population that has run the
    others."""
    pop = load_population(load_full_schema(json.loads((DEMO / "schema.json").read_text())), {})
    plans = {type(v): ra.compile_plan(ra.Project({"a": ra.Const(v)}, ra.UNIT), pop.schema) for v in (1, 1.0, Fraction(1))}
    for plan in plans.values():
        ra.evaluate(plan, pop)
    assert pop.results.misses == 3
    ((got,),) = ra.evaluate(plans[type(value)], pop).body.distinct()
    assert type(got) is type(value) and pop.results.hits == 1


def test_a_sub_plan_that_raises_is_not_kept():
    pop = load_population(load_full_schema(json.loads((DEMO / "schema.json").read_text())), {})
    e = ra.Project({"a": ra.Apply("/", [ra.Const(1), ra.Const(0)])}, ra.UNIT)
    for misses in (1, 2):
        with pytest.raises(EvalError, match="division by zero"):
            ra.evaluate(e, pop)
        assert pop.results.misses == misses and len(pop.results) == 0


def test_the_kept_results_stay_within_the_cap():
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    pop = load_population(schema, {})
    plans = [ra.compile_plan(ra.Project({"a": ra.Const(i)}, ra.UNIT), schema) for i in range(RESULTS_CAP + 20)]
    for plan in plans:
        ra.evaluate(plan, pop)
        assert len(pop.results) <= RESULTS_CAP
    assert len(pop.results) == RESULTS_CAP
    # the ones used least recently went first
    hits = pop.results.hits
    ra.evaluate(plans[-1], pop)
    assert pop.results.hits == hits + 1
    ra.evaluate(plans[0], pop)
    assert pop.results.hits == hits + 1


def test_a_table_node_goes_with_the_last_plan_that_holds_it():
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    before = len(schema.subplans)
    plan = ra.compile_plan(ra.Project({"a": ra.Const("only here")}, ra.UNIT), schema)
    assert len(schema.subplans) > before
    del plan
    gc.collect()
    assert len(schema.subplans) == before


def session_on(rules: list, n: int = 4) -> Session:
    doc = schema_doc()
    doc["derivations"] = rules
    schema = load_full_schema(doc)
    return Session(schema=schema, base_pop=load_population(schema, population_doc(n)))


@pytest.mark.parametrize("change", ["append", "remove"])
def test_a_rule_change_answers_as_a_cold_population(change):
    """A query on a population whose results were kept before a derivation
    rule was appended or removed answers as a fresh session on the rules
    after the change."""
    big = next(r for r in RULES if r.get("type") == "BigCompany")
    before = [r for r in RULES if r is not big] if change == "append" else RULES
    after = RULES if change == "append" else [r for r in RULES if r is not big]
    texts = ["a BigCompany", "a Company c WHERE THE COUNT OF a Person who works for c >= 2", "a HighEarner"]
    session = session_on(before)
    for text in texts:
        run_query(session, text)
    schema = session.schema
    if change == "append":
        schema.revise(derivations=schema.derivations + (TypeRule("BigCompany", path_of(schema, big["body"])),))
    else:
        schema.revise(derivations=[r for r in schema.derivations if r.defines != "BigCompany"])
    fresh = session_on(after)
    for text in texts:
        assert outputs(session, text) == outputs(fresh, text), text


def test_a_result_kept_before_a_rule_change_is_served_after_it():
    """A sub-plan's result depends on its structure and the population
    alone, so one kept on a base population before a rule is appended is
    served after it, and answers as a fresh population does."""
    big = next(r for r in RULES if r.get("type") == "BigCompany")
    session = session_on([r for r in RULES if r is not big])
    schema, pop = session.schema, session.base_pop
    e = expr_of(schema, path_of(schema, "a Company c WHERE THE COUNT OF a Person who works for c >= 2"))
    kept = ra.evaluate(e, pop)
    hits, misses = pop.results.hits, pop.results.misses
    schema.revise(derivations=schema.derivations + (TypeRule("BigCompany", path_of(schema, big["body"])),))
    assert ra.evaluate(e, pop) == kept
    assert pop.results.hits > hits and pop.results.misses == misses
    assert kept == ra.evaluate(e, load_population(schema, population_doc(4)))
