"""Work that must not grow with the population, with sharing in the plan
or with the length of a query, counted rather than timed."""

from __future__ import annotations

import dataclasses
from pathlib import Path

from conquer import paths as P
from conquer import relalg as ra
from conquer.bag import Bag
from conquer.cli import Session, run_query
from conquer.frontend import disambiguate, parse_list, tokenize
from conquer.frontend.parser import parse_list_records
from conquer.population import Population, load_population

DEMO = Path(__file__).resolve().parent.parent / "demo"
CORRELATED = (
    "Person who earns a Salary x AND ALSO works for a Company c "
    "WHERE x > THE AVERAGE Salary of a Person who works for c"
)


def demo_session() -> Session:
    session = Session()
    session.load_schema_file(str(DEMO / "schema.json"))
    session.load_population_file(str(DEMO / "population.json"))
    return session


def generated_session(persons: int, companies: int = 5) -> tuple[Session, int]:
    """The demo schema with ``persons`` generated persons spread over
    ``companies`` companies, and the number of persons who earn more than
    their company's average."""
    session = Session()
    session.load_schema_file(str(DEMO / "schema.json"))
    names = [f"p{i}" for i in range(persons)]
    firms = [f"c{j}" for j in range(companies)]
    salary = {p: 500 * (1 + i % 7) for i, p in enumerate(names)}
    employer = {p: firms[i % companies] for i, p in enumerate(names)}
    session.base_pop = load_population(session.schema, {
        "Person": names,
        "Company": firms,
        "F": [{"p1": p, "p2": s} for p, s in salary.items()],
        "G": [{"q1": p, "q2": c} for p, c in employer.items()],
    })
    staff = {c: [salary[p] for p in names if employer[p] == c] for c in firms}
    above = sum(1 for p in names if salary[p] * len(staff[employer[p]]) > sum(staff[employer[p]]))
    return session, above


def recording(monkeypatch, owner, name: str) -> list:
    """Record the result of every call of ``owner.name`` in the returned
    list."""
    calls: list = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_correlated_subquery_reads_the_population_a_fixed_number_of_times(monkeypatch):
    cases = [generated_session(n) for n in (20, 80)]
    calls = recording(monkeypatch, Population, "instances")
    counts = []
    for session, above in cases:
        calls.clear()
        out = run_query(session, CORRELATED)
        assert out.splitlines()[-1] == f"({above} rows)"
        counts.append(len(calls))
    assert counts[0] == counts[1]


def distinct_nodes(plan, kind) -> int:
    seen: dict[int, object] = {}
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if dataclasses.is_dataclass(node) and type(node).__module__ == ra.__name__:
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, (tuple, list, frozenset)):
            stack.extend(node)
    return sum(isinstance(node, kind) for node in seen.values())


def test_shared_intersections_are_evaluated_once_each(monkeypatch):
    session = demo_session()
    plans = recording(monkeypatch, P, "translate")
    calls = recording(monkeypatch, Bag, "intersect")
    out = run_query(session, "Person who works for a Company c" + " AND ALSO earns a Salary x" * 8)
    assert out.splitlines()[-1] == "(6 rows)"
    (plan,) = plans
    intersections = distinct_nodes(plan, ra.Intersect)
    assert 0 < intersections < 2**8 - 1
    assert len(calls) == intersections


def record_trees(session: Session, text: str) -> int:
    return len(parse_list_records(tokenize(text), session.schema))


def test_and_also_chain_parses_to_one_record_tree():
    chain = "Person who works for a Company c" + " AND ALSO earns a Salary x" * 20
    assert record_trees(demo_session(), chain) == 1


def test_nested_subqueries_parse_to_one_record_tree():
    text = "a Person"
    for _ in range(15):
        text = f"Person who earns a Salary x WHERE x > THE COUNT OF ({text})"
    assert record_trees(demo_session(), text) == 1


def test_bracketed_variable_after_a_type_is_the_same_reading():
    schema = demo_session().schema
    (bare,) = parse_list("Person who earns a Salary x", schema).interpretations
    (bracketed,) = parse_list("Person who earns a Salary (x)", schema).interpretations
    assert P.canonical(bare.path) == P.canonical(bracketed.path)


def rewritten_projections(monkeypatch, text: str) -> tuple[int, int]:
    """The distinct ``Project`` nodes of the demo query's plan as
    ``translate`` gives it and after the evaluator's rewrite."""
    plans = recording(monkeypatch, P, "translate")
    run_query(demo_session(), text)
    (plan,) = plans
    return distinct_nodes(plan, ra.Project), distinct_nodes(ra.rewrite(plan), ra.Project)


def test_rewrite_fuses_the_projections_of_a_two_fact_join(monkeypatch):
    before, after = rewritten_projections(monkeypatch, "Person who works for a Company c AND ALSO earns a Salary x")
    assert before == 38
    assert after <= 18


def test_rewrite_fuses_the_projections_of_a_correlated_query(monkeypatch):
    before, after = rewritten_projections(monkeypatch, CORRELATED)
    assert before == 65
    assert after <= 31


def test_disambiguation_works_out_each_sub_path_once(monkeypatch):
    schema = demo_session().schema
    readings = [
        parse_list("Person who works for a Company c" + " AND ALSO earns a Salary x" * k, schema)
        for k in (2, 4, 6, 8)
    ]
    calls = recording(monkeypatch, P, "head_tail_combos")
    counts = []
    for result in readings:
        calls.clear()
        disambiguate(schema, result)
        counts.append(len(calls))
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1
