"""Each derivation rule and constraint of a schema is compiled to a plan
once, on first use, and that plan answers for every population after.

The schema is the demo schema with the contract fact type W, the derived
subtypes HighEarner and BigCompany, the derived fact type Staff, and five
constraints.  The populations hold NULL salaries, persons with no salary
fact, a company with no employees and contracts.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from conquer import paths as P
from conquer import relalg as ra
from conquer.bag import Bag
from conquer.cli import Session, execute, load_full_schema
from conquer.errors import EvalError, ParseError
from conquer.frontend import disambiguate, parse_list
from conquer.population import Population, load_population
from conquer.schema import FactRule, TypeRule
from conquer.values import FactInstance

DEMO = Path(__file__).resolve().parent.parent / "demo"

RULES = [
    {"type": "HighEarner", "body": "a Person who earns a Salary x WHERE x >= 4000"},
    {"type": "BigCompany", "body": "a Company c WHERE THE COUNT OF a Person who works for c >= 15"},
    {
        "fact": "Staff",
        "roles": {"st1": "c", "st2": "p"},
        "body": "a Person p who works for a Company c AND ALSO earns a Salary x WHERE x >= 1000",
    },
]
CONSTRAINTS = [
    "SOME a Person",
    "SOME a HighEarner",
    "SOME a BigCompany",
    "NOT SOME a Person who works for a Company: 'co0' AND ALSO earns a Salary: 6000",
    "SOME a Company who has on staff a HighEarner",
]
SALARIES = list(range(500, 6001, 250))


def schema_doc() -> dict:
    doc = json.loads((DEMO / "schema.json").read_text())
    doc["types"].update({"W": "relationship", "HighEarner": "entity", "BigCompany": "entity", "Staff": "relationship"})
    doc["roles_of"].update({"W": ["w1", "w2"], "Staff": ["st1", "st2"]})
    doc["player"].update({"w1": "Person", "w2": "Company", "st1": "Company", "st2": "Person"})
    doc["idf"].update({"W": ["w1", "w2"], "Staff": ["st1", "st2"]})
    doc["specialises"] = {"HighEarner": "Person", "BigCompany": "Company"}
    doc["naming"]["tnm"].update(
        {"W": "Contract", "HighEarner": "HighEarner", "BigCompany": "BigCompany", "Staff": "Staff"}
    )
    doc["naming"]["mfix"] += [["W", ["employs"], ["w2", "w1"]], ["Staff", ["has on staff"], ["st1", "st2"]]]
    doc["derivations"] = RULES
    doc["constraints"] = CONSTRAINTS
    return doc


def population_doc(seed: int) -> dict:
    """From 1 to 90 persons spread over every company but the last, which
    has none.  A tenth of the persons earn a NULL salary, a tenth earn
    nothing, and a tenth hold a contract with some company."""
    rng = random.Random(seed)
    persons = [f"per{i:03d}" for i in range(1 + 7 * seed % 90)]
    companies = [f"co{i}" for i in range(rng.randrange(3, 6))]
    doc = {"Person": persons, "Company": companies, "F": [], "G": [], "W": []}
    for p in persons:
        doc["G"].append({"q1": p, "q2": rng.choice(companies[:-1])})
        draw = rng.random()
        if draw >= 0.1:
            doc["F"].append({"p1": p, "p2": None if draw < 0.2 else rng.choice(SALARIES)})
        if rng.random() < 0.1:
            doc["W"].append({"w1": p, "w2": rng.choice(companies)})
    return doc


def session_on(doc: dict, seed: int) -> Session:
    schema = load_full_schema(doc)
    return Session(schema=schema, base_pop=load_population(schema, population_doc(seed)))


def counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def count_calls(monkeypatch) -> Counter:
    """Calls of the compiling stages and of ``evaluate`` from now on, and
    the plan nodes compiled, as ``node``."""
    calls: Counter = Counter()
    for module, name in [(P, "infer_typing"), (P, "translate"), (ra, "compile_plan"), (ra, "evaluate")]:
        monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
    for builders in ra._BUILDERS.values():
        for kind, build in builders.items():
            monkeypatch.setitem(builders, kind, counting(calls, "node", build))
    return calls


def one_round(session: Session) -> tuple[str, str]:
    return execute(session, "\\derive"), execute(session, "\\constraints")


def path_of(schema, text: str):
    (reading,) = disambiguate(schema, parse_list(text, schema)).interpretations
    return reading.path


def test_a_second_population_compiles_nothing(monkeypatch):
    session = session_on(schema_doc(), 1)
    one_round(session)
    calls = count_calls(monkeypatch)
    session.base_pop = load_population(session.schema, population_doc(2))
    one_round(session)
    # nothing is translated or compiled, not even one node
    assert dict(calls) == {"evaluate": 8}


def test_an_added_rule_rebuilds_the_plans(monkeypatch):
    """Sponsorship K has its sponsor role played by BigCompany.  Until
    BigCompany has a rule, a sponsor is a BigCompany by the population's
    closure, and the plans rely on that; once a rule defines BigCompany, a
    sponsor must also meet the rule."""
    doc = schema_doc()
    doc["types"]["K"] = "relationship"
    doc["roles_of"]["K"] = ["k1", "k2"]
    doc["player"].update({"k1": "BigCompany", "k2": "Person"})
    doc["idf"]["K"] = ["k1", "k2"]
    doc["naming"]["mfix"].append(["K", ["sponsors"], ["k1", "k2"]])
    doc["derivations"] = [r for r in RULES if r.get("type") != "BigCompany"]
    doc["constraints"] = CONSTRAINTS + ["SOME a BigCompany sponsors a Person"]
    schema = load_full_schema(doc)
    pop_doc = population_doc(4)
    pop_doc["K"] = [{"k1": pop_doc["Company"][-1], "k2": "per000"}]  # the company without employees
    session = Session(schema=schema, base_pop=load_population(schema, pop_doc))
    _, verdicts = one_round(session)
    assert "pass: SOME a BigCompany sponsors a Person" in verdicts

    schema.revise(derivations=schema.derivations + (TypeRule("BigCompany", path_of(schema, RULES[1]["body"])),))
    calls = count_calls(monkeypatch)
    derived, verdicts = one_round(session)
    assert calls["translate"] == 9 and calls["evaluate"] == 9
    # every kept plan is compiled again, and its nodes with it
    assert calls["compile_plan"] == len(schema.plans) == 9 and calls["node"] > 9
    assert "derived BigCompany: " in derived
    assert "FAIL: SOME a BigCompany sponsors a Person" in verdicts


def fresh_run(schema, base: Population) -> tuple[dict, list[bool]]:
    """The derived instances and constraint verdicts from translating and
    evaluating each rule body and constraint path anew, with no kept plan.
    No rule of the schema reads a type another rule defines."""
    def relation(path, pop, extra=()):
        return ra.evaluate(P.translate(schema, path, P.infer_typing(schema, path, extra)), pop)

    derived = {}
    for rule in schema.derivations:
        if isinstance(rule, FactRule):
            rel = relation(rule.body, base, [(a, schema.player(r)) for r, a in rule.role_attrs])
            slots = [rel.header.index(a) for _, a in rule.role_attrs]
            roles = [r for r, _ in rule.role_attrs]
            derived[rule.rel] = Bag.from_counts(
                (FactInstance(dict(zip(roles, (u[i] for i in slots)))), n) for u, n in rel.rows()
            )
        else:
            rel = relation(rule.body, base)
            derived[rule.tid] = Bag.from_counts((u[rel.header.index(P.HD)], n) for u, n in rel.rows()).to_set()
    pop = base
    for tid, bag in derived.items():
        pop = pop.with_population(tid, bag)
    return derived, [bool(relation(path, pop).body) for _, path in schema.constraints]


def test_kept_plans_agree_with_fresh_compilation():
    session = session_on(schema_doc(), 0)
    schema = session.schema
    seen = Counter()
    for seed in range(24):
        session.base_pop = load_population(schema, population_doc(seed))
        execute(session, "\\derive")
        pop = session.population()
        kept = {t: pop.instances(t) for t in schema.derived_types()}
        verdicts = [P.check_constraint(schema, path, pop) for _, path in schema.constraints]
        assert (kept, verdicts) == fresh_run(schema, session.base_pop), seed
        seen.update((t, bag.cardinality() > 0) for t, bag in kept.items())
        seen.update(enumerate(verdicts))
    # every derived type is empty on some population and not on another,
    # and so is every verdict but that of SOME a Person
    assert all(seen[t, True] and seen[t, False] for t in kept)
    assert all(seen[i, True] and seen[i, False] for i in range(1, len(CONSTRAINTS)))


def staff_session(body: str) -> Session:
    """A session on population 3 of the schema whose one rule derives
    Staff, filling st1 with c and st2 with p of ``body``."""
    doc = schema_doc()
    doc["derivations"] = [{"fact": "Staff", "roles": {"st1": "c", "st2": "p"}, "body": body}]
    doc["constraints"] = []
    return session_on(doc, 3)


def test_a_fact_rules_plan_is_its_bodys_translation():
    """The plan of a fact rule is its body's, with no projection onto the
    roles stacked on it: here one projection over the table of G, whose
    columns c and p fill the roles."""
    session = staff_session("a Person p who works for a Company c")
    execute(session, "\\derive")
    ((_, plan),) = session.schema.plans.values()
    assert isinstance(plan.root, ra.Project) and isinstance(plan.root.of, ra.TypeTable)
    assert plan.root.of.tid == "G"
    base = session.base_pop
    employer = {(f["q2"], f["q1"]) for f in base.instances("G").elements()}
    staff = session.population().instances("Staff")
    assert {(f["st1"], f["st2"]) for f in staff.elements()} == employer
    assert staff.cardinality() == len(employer) > 0


def test_a_role_variable_outside_the_bodys_columns_raises():
    """A grouped count's columns are hd and tl alone, so the rule's c and p
    are unbound: loading the schema refuses the rule."""
    with pytest.raises(ParseError, match="rule for 'Staff': variable 'c' is not a column of its body"):
        staff_session("THE COUNT OF (Person p who works for a Company c) GROUPED BY c")


def test_an_appended_rule_with_a_role_variable_outside_its_body_raises_at_derive():
    """A rule appended to a loaded schema is not checked at load: it raises
    on a population where its body has rows."""
    session = staff_session("a Person p who works for a Company c")
    text = "THE COUNT OF (Person p who works for a Company c) GROUPED BY c"
    (reading,) = disambiguate(session.schema, parse_list(text, session.schema)).interpretations
    attr = {name: a for a, name in reading.vnm.items()}
    rule = FactRule("Staff", (("st1", attr["c"]), ("st2", attr["p"])), reading.path, text)
    session.schema.revise(derivations=[rule])
    with pytest.raises(EvalError, match="unbound attribute 'c'"):
        execute(session, "\\derive")


def test_a_plan_runs_only_on_its_own_schema():
    schema = load_full_schema(schema_doc())
    plan = ra.compile_plan(ra.TypeTable("p", "Person"), schema)
    assert ra.evaluate(plan, load_population(schema, population_doc(0))).body
    twin = load_full_schema(schema_doc())
    with pytest.raises(EvalError, match="another schema"):
        ra.evaluate(plan, load_population(twin, population_doc(0)))


def test_a_path_outside_the_schema_is_not_kept():
    """Only the schema's own rules and constraints have a kept plan, so
    checking ad hoc paths does not grow the schema."""
    schema = load_full_schema(schema_doc())
    pop = load_population(schema, population_doc(5))
    before = dict(schema.plans)
    for _ in range(3):
        assert P.check_constraint(schema, P.TypeAtom("Person"), pop)
    assert schema.plans == before


def test_revising_the_rules_drops_their_plans():
    """``Schema.revise`` drops every kept plan, so rounds of rules replaced
    by fresh copies leave no plan of a rule the schema no longer has."""
    session = session_on(schema_doc(), 1)
    schema = session.schema
    one_round(session)
    for _ in range(5):
        schema.revise(derivations=schema.derivations[:1])
        schema.revise(derivations=load_full_schema(schema_doc()).derivations)
        execute(session, "\\derive")
    # the last \derive kept the plans of the three rules alone
    assert len(schema.plans) == len(schema.derivations) == 3


def test_each_rule_body_is_translated_once(monkeypatch):
    """Loading checks a fact rule's role variables on the plan that
    ``\\derive`` then runs, so loading and deriving translate each of the
    three rule bodies once."""
    calls = count_calls(monkeypatch)
    session = session_on(schema_doc(), 1)
    execute(session, "\\derive")
    assert calls["translate"] == len(RULES) == 3


@pytest.mark.parametrize(
    "rule, error",
    [
        (
            {"fact": "Staff", "roles": {"st1": "c", "st2": "q"}, "body": "a Person p who works for a Company c"},
            "derivation rule for 'Staff' names unknown variable 'q'",
        ),
        (
            {"type": "HighEarner", "body": "a Company c employs a Person p"},
            "derivation rule body is ambiguous: 'a Company c employs a Person p'",
        ),
        (
            {
                "fact": "Staff",
                "roles": {"st1": "c", "st2": "p"},
                "body": "THE COUNT OF (Person p who works for a Company c) GROUPED BY c",
            },
            "derivation rule for 'Staff': variable 'c' is not a column of its body",
        ),
    ],
    ids=["unknown-variable", "ambiguous-body", "not-a-column"],
)
def test_one_faulty_rule_among_good_ones_raises_its_error(rule, error):
    """A document with one faulty rule among good ones raises that rule's
    error.  "employs" reads both Contract and, here, Employment."""
    doc = schema_doc()
    doc["naming"]["mfix"].append(["G", ["employs"], ["q2", "q1"]])
    doc["derivations"] = RULES[:1] + [rule] + RULES[1:]
    with pytest.raises(ParseError) as raised:
        load_full_schema(doc)
    assert str(raised.value) == f"[parse] {error}"
