"""Work that must not grow with the population, with sharing in the plan
or with the length of a query, counted rather than timed."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from conquer import paths as P
from conquer import relalg as ra
from conquer import walk
from conquer.bag import Bag
from conquer.cli import Session, run_query
from conquer.frontend import disambiguate, parse_list, tokenize
from conquer.frontend.parser import parse_list_records
from conquer.population import Population, load_population
from conquer.schema import FRESH_PREFIX, load_schema
from conquer.verbalise import verbalise_interpretation

DEMO = Path(__file__).resolve().parent.parent / "demo"
TWO_FACT_JOIN = "Person who works for a Company c AND ALSO earns a Salary x"
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


def recording_args(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call of ``owner.name`` in the returned
    list."""
    calls: list = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

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


def plan_objects(plan) -> list:
    """Every distinct object reachable from ``plan`` through the fields of
    its nodes, sub-plans inside scalars and conditions included."""
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
    return list(seen.values())


def distinct_nodes(plan, kind) -> int:
    return sum(isinstance(node, kind) for node in plan_objects(plan))


def test_shared_intersections_are_evaluated_once_each(monkeypatch):
    session = demo_session()
    plans = recording(monkeypatch, P, "translate")
    calls = recording(monkeypatch, Bag, "intersect")
    out = run_query(session, "Person who works for a Company c" + " AND ALSO earns a Salary x" * 8)
    assert out.splitlines()[-1] == "(6 rows)"
    (plan,) = plans
    intersections = sum(
        isinstance(node, ra.SetOp) and node.op == "intersect" for node in plan_objects(plan)
    )
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


def translated_plan(monkeypatch, text: str):
    """The plan ``translate`` gives for the demo query ``text``."""
    plans = recording(monkeypatch, P, "translate")
    run_query(demo_session(), text)
    (plan,) = plans
    return plan


def test_translation_fuses_the_projections_of_a_two_fact_join(monkeypatch):
    assert distinct_nodes(translated_plan(monkeypatch, TWO_FACT_JOIN), ra.Project) == 2


def test_translation_fuses_the_projections_of_a_correlated_query(monkeypatch):
    assert distinct_nodes(translated_plan(monkeypatch, CORRELATED), ra.Project) <= 7


def test_translation_drops_the_type_table_joins_of_a_two_fact_join(monkeypatch):
    plan = translated_plan(monkeypatch, TWO_FACT_JOIN)
    assert distinct_nodes(plan, ra.Join) <= 2
    assert distinct_nodes(plan, ra.TypeTable) <= 2
    # one projection over each fact type's table
    projections = [x for x in plan_objects(plan) if isinstance(x, ra.Project)]
    assert sorted(x.of.tid for x in projections if isinstance(x.of, ra.TypeTable)) == ["F", "G"]
    assert len(projections) == 2


def test_translation_drops_the_type_table_joins_of_a_correlated_query(monkeypatch):
    plan = translated_plan(monkeypatch, CORRELATED)
    assert distinct_nodes(plan, ra.Join) <= 2
    assert distinct_nodes(plan, ra.Project) <= 7


@pytest.mark.parametrize("text", [TWO_FACT_JOIN, CORRELATED])
def test_translation_builds_only_the_projections_it_keeps(monkeypatch, text):
    schema = demo_session().schema
    reading = disambiguate(schema, parse_list(text, schema)).interpretations[0]
    built = []
    init = ra.Project.__init__

    def recording_init(self, assigns, of):
        init(self, assigns, of)
        built.append(self)

    monkeypatch.setattr(ra.Project, "__init__", recording_init)
    plan = P.translate(schema, reading.path, reading.typing)
    kept = {id(x) for x in plan_objects(plan)}
    assert built and all(id(x) in kept for x in built)


def test_two_fact_join_has_no_join(monkeypatch):
    # the AND ALSO is one set operation over the two facts' projections
    assert distinct_nodes(translated_plan(monkeypatch, TWO_FACT_JOIN), ra.Join) == 0


def reading_plan(session: Session, text: str):
    """The plan of the first reading of ``text``."""
    reading = disambiguate(session.schema, parse_list(text, session.schema)).interpretations[0]
    return P.translate(session.schema, reading.path, reading.typing)


@pytest.mark.parametrize("term", ["earns a Salary x", "works for a Company c"])
def test_each_term_of_a_chain_adds_one_set_operation(term):
    session = demo_session()
    counts = []
    for k in (2, 5, 10):
        plan = reading_plan(session, "Person who " + " AND ALSO ".join([term] * (k + 1)))
        counts.append((distinct_nodes(plan, ra.RelExpr.__args__), distinct_nodes(plan, ra.SetOp)))
    (nodes2, sets2), (nodes5, sets5), (nodes10, sets10) = counts
    assert (nodes5 - nodes2, nodes10 - nodes5) == (3, 5)
    assert (sets5 - sets2, sets10 - sets5) == (3, 5)


def test_a_translation_names_only_its_paths_attributes(monkeypatch):
    """A path's translation has hd, tl and the attributes the path names,
    and no fresh name of the translator, on every path and sub-path of the
    oracle corpus and of the text differential, so one sub-plan serves
    every occurrence of its path."""
    from .test_oracle_corpus import all_cases
    from .test_roundtrip import CASES, make_case, rich_doc
    from .test_text_differential import demo_set_texts, value_salary_doc

    checked = []
    path = P.Translator.path

    def checking(self, p, B):
        out = path(self, p, B)
        assert set(out.assigns) <= {P.HD, P.TL} | p.uses, p
        assert not any(a.startswith(FRESH_PREFIX) for a in out.assigns), p
        checked.append(p)
        return out

    monkeypatch.setattr(P.Translator, "path", checking)
    for _, schema, _, expr, typing in all_cases():
        P.translate(schema, expr, typing)
    for doc in (rich_doc(), value_salary_doc()):
        schema = load_schema(doc)
        for i in range(CASES):
            p, typing, _ = make_case(schema, i)
            P.translate(schema, p, typing)
    session = demo_session()
    for text in demo_set_texts():
        reading_plan(session, text)
    assert len(checked) > 10_000


def test_two_fact_join_reads_each_remaining_type_table_once(monkeypatch):
    tables = distinct_nodes(translated_plan(monkeypatch, TWO_FACT_JOIN), ra.TypeTable)
    session = demo_session()
    calls = recording(monkeypatch, Population, "instances")
    assert run_query(session, TWO_FACT_JOIN).splitlines()[-1] == "(6 rows)"
    assert len(calls) == tables


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


MIXED_CHAIN = (
    "Person who earns a Salary x AND ALSO works for a Company c AND ALSO works for a Company: 'acme' "
    "AND ALSO earns a Salary: 3000 AND ALSO earns a Salary x AND ALSO works for a Company c"
)


def test_readings_share_sub_paths_and_each_is_analysed_once(monkeypatch):
    schema = demo_session().schema
    combos = recording_args(monkeypatch, P, "_combos_of")
    scans = recording_args(monkeypatch, P, "_pairs_of")
    parsed = parse_list(MIXED_CHAIN, schema)
    assert len(disambiguate(schema, parsed).interpretations) == 1
    # the chain has 16 readings, all with one typing
    readings = parsed.interpretations
    assert len(readings) == 16 and len({i.typing for i in readings}) == 1
    tree, distinct = 0, set()
    stack = [i.path for i in readings]
    while stack:
        node = stack.pop()
        tree += 1
        distinct.add(id(node))
        stack.extend(walk.children(node, P.PATH_KINDS))
    assert (tree, len(distinct)) == (784, 161)
    # memo misses, not calls: no sub-path is worked out twice.  Besides the
    # readings' own sub-paths, the misses cover the expansions of mix-fix
    # connections and denotations, and the trees that fail to type
    for name, misses in (("head/tail", combos), ("typing scan", scans)):
        ids = [id(args[-1]) for args in misses]
        assert len(ids) == len(set(ids)), name
        assert len(ids) < tree / 2, name


def test_verbalisation_works_out_each_sub_path_once(monkeypatch):
    schema = demo_session().schema
    (reading,) = disambiguate(schema, parse_list(MIXED_CHAIN, schema)).interpretations
    combos = recording_args(monkeypatch, P, "_combos_of")
    verbalise_interpretation(schema, reading)
    ids = [(args[1], id(args[-1])) for args in combos]
    assert ids and len(ids) == len(set(ids))
