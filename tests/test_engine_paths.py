"""Paths of the engine that the rest of the suite does not take: derivation
rules in dependency order and in a cycle, binding an attribute whose type
has several roots, a mix-fix reading with two middle arguments, macro
arguments put in a denotation's ``!v`` and in a condition macro's path
parameter, and the debug text of each path kind that ``\\dump-path`` does
not print."""

from __future__ import annotations

import json

import pytest

from conquer import paths as P
from conquer import relalg as ra
from conquer.cli import Session, execute, load_full_schema, run_query
from conquer.errors import ConquerError
from conquer.population import load_population
from conquer.schema import load_schema

from .test_prepared import DEMO
from .test_rule_plans import population_doc, schema_doc

DEMO_SCHEMA = json.loads((DEMO / "schema.json").read_text())
DEMO_POPULATION = json.loads((DEMO / "population.json").read_text())


def demo_session(doc: dict = DEMO_SCHEMA, pop: dict = DEMO_POPULATION) -> Session:
    schema = load_full_schema(doc)
    return Session(schema=schema, base_pop=load_population(schema, pop))


def rules_session(rules: list[dict]) -> Session:
    doc = schema_doc()
    doc["derivations"], doc["constraints"] = rules, []
    schema = load_full_schema(doc)
    return Session(schema=schema, base_pop=load_population(schema, population_doc(4)))


# ---------------------------------------------------------------------------
# derivation rules


HIGH_EARNER = {"type": "HighEarner", "body": "a Person who earns a Salary x WHERE x >= 4000"}


def test_a_rule_reads_a_derived_type_whose_rule_comes_after_it():
    reads_high_earners = {"type": "BigCompany", "body": "a Company c WHERE SOME a HighEarner who works for c"}
    session = rules_session([reads_high_earners, HIGH_EARNER])
    pop = population_doc(4)
    rich = {f["p1"] for f in pop["F"] if f["p2"] is not None and f["p2"] >= 4000}
    expected = {g["q2"] for g in pop["G"] if g["q1"] in rich}
    assert execute(session, "\\derive").splitlines() == [
        f"derived BigCompany: {len(expected)} instances", f"derived HighEarner: {len(rich)} instances",
    ]
    answer = run_query(session, "a BigCompany").splitlines()
    assert {row.split(" | ")[0].strip() for row in answer[2:-1]} == expected and expected


@pytest.mark.parametrize(
    "rules",
    [
        [{"type": "HighEarner", "body": "a HighEarner who earns a Salary x WHERE x >= 4000"}],
        [
            {"type": "HighEarner", "body": "a Person who works for a BigCompany"},
            {"type": "BigCompany", "body": "a Company c WHERE SOME a HighEarner who works for c"},
        ],
    ],
    ids=["own type", "two rules"],
)
def test_cyclic_derivation_rules_are_refused(rules):
    session = rules_session(rules)
    with pytest.raises(ConquerError, match="cyclic derivation rules"):
        execute(session, "\\derive")


# ---------------------------------------------------------------------------
# translation


def test_an_attribute_of_a_type_with_several_roots_binds_each_root():
    doc = json.loads(json.dumps(DEMO_SCHEMA))
    doc["types"]["Member"] = "entity"
    doc["specialises"] = {"Member": ["Person", "Company"]}
    schema = load_schema(doc)
    plan = P.bind_attr(schema, {("x", "Member")}, "x")
    assert plan == ra.SetOp(ra.TypeTable("x", "Company"), "union", ra.TypeTable("x", "Person"))


def test_a_mixfix_reading_with_two_middle_arguments():
    doc = json.loads(json.dumps(DEMO_SCHEMA))
    doc["types"]["K"] = "relationship"
    doc["roles_of"]["K"] = ["k1", "k2", "k3", "k4"]
    doc["player"].update({"k1": "Person", "k2": "Salary", "k3": "Company", "k4": "Person"})
    doc["idf"]["K"] = ["k1", "k2", "k3", "k4"]
    doc["naming"]["mfix"].append(["K", ["pays", "at", "to"], ["k1", "k2", "k3", "k4"]])
    pop = dict(DEMO_POPULATION, K=[
        {"k1": "ann", "k2": 1000, "k3": "acme", "k4": "bob"},
        {"k1": "ann", "k2": 1000, "k3": "beta", "k4": "cy"},
        {"k1": "ann", "k2": 2000, "k3": "acme", "k4": "dee"},
        {"k1": "eli", "k2": 1000, "k3": "acme", "k4": "fay"},
    ])
    session = demo_session(doc, pop)
    text = "a Person: 'ann' pays a Salary: 1000 at a Company: 'acme' to a Person"
    assert "<k1, k2: Salary: 1000, k3: Company: 'acme', k4>" in execute(session, f"\\dump-path {text}")
    assert run_query(session, text).splitlines()[2:] == ["ann  | bob", "(1 row)"]


# ---------------------------------------------------------------------------
# macro arguments


def test_a_macro_argument_in_a_denotation():
    session = demo_session()
    execute(session, "\\macro Earner(v) ::= Person who earns Salary: !v")
    assert run_query(session, "Earner(1000)") == run_query(session, "Person who earns Salary: 1000")


@pytest.mark.parametrize(
    "argument, read_as",
    [("SOME a Company", "Some(Some(Company))"), ("1000", "Some(1000)")],
    ids=["condition", "scalar"],
)
def test_a_condition_macro_path_parameter_given_a_condition_or_a_scalar_in_a_text(argument, read_as):
    session = demo_session()
    execute(session, "\\macro Has(v) ::= SOME v")
    text = f"a Person WHERE Has({argument})"
    assert execute(session, f"\\dump-path {text}") == f"Where(Person; {read_as})"
    assert run_query(session, text) == run_query(session, "a Person")


PERSON, COMPANY = P.TypeAtom("Person"), P.TypeAtom("Company")
X = P.SVar("x")


@pytest.mark.parametrize(
    "argument, put_in",
    [(P.CSome(COMPANY), P.CondPath(P.CSome(COMPANY))), (P.SConst(1000), P.Scalar(P.SConst(1000)))],
    ids=["condition", "scalar"],
)
def test_a_condition_macro_path_parameter_given_a_condition_or_a_scalar_from_a_program(argument, put_in):
    # a text's argument is lowered as its parameter is read, a path here;
    # a program may give the condition or scalar itself
    session = demo_session()
    execute(session, "\\macro Has(v) ::= SOME v")
    assert P.expand_macro(session.schema, "Has", [argument]) == P.CSome(put_in)


# ---------------------------------------------------------------------------
# debug text


@pytest.mark.parametrize(
    "path, text",
    [
        (P.Reverse(PERSON), "(Person)<-"),
        (P.DistinctPath(PERSON), "Ds(Person)"),
        (P.Product(PERSON, COMPANY), "(Person x Company)"),
        (P.SetCompare(PERSON, "all_in", COMPANY), "(Person subseteq Company)"),
        (P.MissingPath(PERSON, COMPANY), "(Person excl Company)"),
        (P.Shuffle(PERSON, ["a", "b"]), "Path(Person, a, b)"),
        (P.FuncApp("f", [PERSON, COMPANY]), "f(Person, Company)"),
        (P.Confluence([("a", PERSON, "b")], COMPANY), "[a: Person: b; Company]"),
        (P.GroupFn("count", PERSON, ["a"]), "GCount(Person, {a})"),
        (P.GroupFn("sum", PERSON, ["a", "b"], "c"), "GSum(Person, {a, b}, c)"),
        (P.SubExpr([PERSON, COMPANY]), "[Person, Company]"),
        (P.TlCoerce(PERSON), "TlCoerce(Person)"),
        (P.CondPath(P.CSome(PERSON)), "Some(Person)"),
        (P.SVarRole("x", "p1"), "x.p1"),
        (P.SApply("+", [X, P.SConst(1)]), "(x + 1)"),
        (P.SApply("abs", [X]), "abs(x)"),
        (P.CExclusion(PERSON, COMPANY), "(Person disjoint Company)"),
        (P.Denote("Person", P.Abstract("p")), "Person: !p"),
        (P.Denote("F", P.Composite([P.Abstract("p"), P.ByPath(P.Scalar(P.SConst(1000)))])), "F: (!p, 1000)"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
)
def test_the_debug_text_of_each_kind(path, text):
    assert P.path_text(path) == text
