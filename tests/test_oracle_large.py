"""The engine against the brute-force oracle on larger populations.

The corpus generators of ``test_oracle_corpus`` are reused with value
pools of eight instances per value type and up to twenty instances per
type, so that joins, groups and selections see bags with multiplicities
above one.  Each case also averages a numeric-headed path, so that exact
non-integral fractions are compared too, and filters a variable template
by comparing its variable with an aggregate over a path that ends in the
same variable: a subquery that depends on the outer row.

The demo schema is checked too, on generated populations of up to 200
persons with NULL salaries and a company without employees, and on one
with a relationship instance that lacks a role.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conquer.bag import Bag
from conquer.cli import load_full_schema
from conquer.errors import EvalError, TypingError
from conquer.frontend import disambiguate, parse_list
from conquer.paths import (
    AttrAtom,
    CScalarComp,
    RoleEntry,
    SAgg,
    SConst,
    Scalar,
    SVar,
    TypeAtom,
    Where,
    concat,
    infer_typing,
    role_exit,
    translate,
)
from conquer.population import load_population
from conquer.relalg import evaluate
from conquer.values import FactInstance

from .oracle import oracle_eval
from .test_oracle_corpus import Gen, gen_pop, gen_schema
from .test_scaling import DEMO

CASES = 250
LARGE_POOLS = {"VA": list(range(8)), "VB": list(range(10, 18))}


def typed(schema, expr):
    try:
        return infer_typing(schema, expr)
    except TypingError:
        return None


def correlated(rng: random.Random, schema):
    """``x`` over a variable template, kept where ``x`` compares with the
    count, sum or average of a path ending in ``x``; None when no role is
    played by the variable's type."""
    gen = Gen(rng, schema)
    v = rng.choice(["VA", "VB"])
    rid = next((r for r in gen.roles if schema.player(r) == v), None)
    if rid is None:
        return None
    base = concat(TypeAtom(v), AttrAtom("x"), RoleEntry(rid), role_exit(rid))
    agg = rng.choice(["count", "sum", "avg"])
    inner = gen.numeric_headed(2) if agg != "count" else gen.path(2, allow_vars=False)
    op = rng.choice(["<", "<=", "=", "<>", ">=", ">"])
    return Where([(base, CScalarComp(SVar("x"), op, SAgg(agg, concat(inner, AttrAtom("x")))))])


def make_large_case(index: int):
    """A schema, a population and typable expressions: a random path, the
    average over a numeric-headed path and a correlated filter."""
    rng = random.Random(7_000_019 * (index + 1))
    schema = gen_schema(rng)
    pop = gen_pop(rng, schema, LARGE_POOLS, max_rows=20)
    exprs = []
    for make in (
        lambda: Gen(rng, schema).path(rng.choice([1, 2, 3])),
        lambda: Scalar(SAgg("avg", Gen(rng, schema).numeric_headed(2))),
        lambda: correlated(rng, schema),
    ):
        for _ in range(20):
            expr = make()
            typing = expr and typed(schema, expr)
            if typing is not None:
                exprs.append((expr, typing))
                break
        else:
            raise AssertionError(f"case {index}: could not generate a typable expression")
    return schema, pop, exprs


def test_oracle_equivalence_large_populations():
    mismatches = []
    multiplied = fractional = correlated_rows = 0
    for i in range(CASES):
        schema, pop, exprs = make_large_case(i)
        for expr, typing in exprs:
            engine = evaluate(translate(schema, expr, typing), pop)
            header, body = oracle_eval(schema, pop, typing, expr)
            if engine.header != header or engine.body != body:
                mismatches.append((i, expr))
                continue
            rows = list(engine.rows())
            multiplied += any(n > 1 for _, n in rows)
            fractional += any(
                isinstance(v, Fraction) and v.denominator != 1 for t, _ in rows for v in t
            )
            if "x" in engine.header:  # only the correlated filter names its variable x
                correlated_rows += len({t[engine.header.index("x")] for t, _ in rows}) > 1
    assert not mismatches, f"{len(mismatches)} oracle mismatches, first: {mismatches[:3]}"
    # the corpus must actually exercise repeated rows, exact averages and
    # subqueries evaluated for several values of the outer variable
    assert multiplied > 10
    assert fractional > 10
    assert correlated_rows > 10


# queries on the demo schema whose readings the oracle can evaluate: no
# coercion of a value to a number
DEMO_QUERIES = [
    "Person who works for a Company c AND ALSO earns a Salary x",
    "Person who earns a Salary x WHERE x >= 3000",
    "Person who works for a Company c BUT NOT earns a Salary x",
    "Person who earns a Salary x OR OTHERWISE works for a Company c",
    "Company c WHERE SOME Person who works for c AND ALSO earns a Salary: 6000",
]
# the salaries of the persons who work for the outer row's company c, and
# those persons
STAFF_SALARIES = concat(RoleEntry("p2"), role_exit("p1"), RoleEntry("q1"), role_exit("q2"), AttrAtom("c"))
STAFF = concat(TypeAtom("Person"), RoleEntry("q1"), role_exit("q2"), AttrAtom("c"))


def demo_population_doc(rng: random.Random, persons: int, companies: int) -> dict:
    """Persons spread over every company but the last, which has none; a
    tenth earn a NULL salary and a tenth earn nothing."""
    names = [f"p{i}" for i in range(persons)]
    firms = [f"c{j}" for j in range(companies)]
    doc = {"Person": names, "Company": firms, "F": [], "G": []}
    for p in names:
        doc["G"].append({"q1": p, "q2": rng.choice(firms[:-1])})
        draw = rng.random()
        if draw >= 0.1:
            doc["F"].append({"p1": p, "p2": None if draw < 0.2 else rng.choice(range(500, 6001, 250))})
    return doc


def demo_readings(schema) -> list:
    """(path, typing) of each demo query, and of a filter of companies on
    an aggregate over their own staff for each aggregate."""
    out = []
    for text in DEMO_QUERIES:
        reading = disambiguate(schema, parse_list(text, schema)).interpretations[0]
        out.append((reading.path, reading.typing))
    for fn, of, op, k in [
        ("avg", STAFF_SALARIES, ">", 2000),
        ("count", STAFF, "<", 30),
        ("sum", STAFF_SALARIES, ">=", 20000),
        ("max", STAFF_SALARIES, "=", 6000),
        ("min", STAFF_SALARIES, "<=", 750),
    ]:
        path = Where([(concat(TypeAtom("Company"), AttrAtom("c")), CScalarComp(SAgg(fn, of), op, SConst(k)))])
        out.append((path, infer_typing(schema, path)))
    return out


@pytest.mark.parametrize("seed, persons", [(1, 40), (2, 200)])
def test_oracle_equivalence_demo_schema(seed, persons):
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    pop = load_population(schema, demo_population_doc(random.Random(seed), persons, 6))
    answered = 0
    for path, typing in demo_readings(schema):
        engine = evaluate(translate(schema, path, typing), pop)
        assert (engine.header, engine.body) == oracle_eval(schema, pop, typing, path), path
        answered += bool(engine.body)
    assert answered == len(DEMO_QUERIES) + 5


def test_a_fact_without_a_role_raises_as_in_the_oracle():
    """A relationship instance built by hand without its company role: the
    engine and the oracle both fail on that role."""
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    pop = load_population(schema, demo_population_doc(random.Random(3), 30, 4))
    person = next(pop.instances("Person").distinct())
    pop = pop.with_population("G", pop.instances("G").union(Bag([FactInstance({"q1": person})])))
    path, typing = demo_readings(schema)[0]
    with pytest.raises(EvalError, match="relationship instance not defined for role 'q2'"):
        evaluate(translate(schema, path, typing), pop)
    with pytest.raises(KeyError, match="q2"):
        oracle_eval(schema, pop, typing, path)
