"""Seeded inputs for the benchmark: schemas, populations and operation lists.

Standard library only.  The generator keeps its own records of every
population it makes (a `World`), so the answer checks in `check.py` can be
computed from those records without the engine; the engine receives only
the JSON documents built from them.  The same seed gives the same inputs.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Salaries come from a short list so that ties are common.
SALARIES = list(range(500, 6001, 250))

# Population sizes: a ladder per workload, over which the operations are
# spread evenly, so that their costs spread evenly over about 1.6x around a
# few tenths of a second at the seed commit.  A median of times whose costs
# are all alike jumps when the host's speed changes during a run; a median
# of evenly spread costs moves smoothly (see README.md, Steadiness).
JOIN_SCAN_PERSONS, JOIN_SCAN_COMPANIES = [140, 149, 158, 167, 176], 5
CORRELATED_PERSONS, CORRELATED_COMPANIES = [26, 28, 30, 32, 34], 4
DERIVE_PERSONS, DERIVE_COMPANIES = [56, 63, 70, 77, 84], 5

# Number of AND ALSO operators in each long_query chain.
CHAIN_K = 5

# Thresholds of the derivation rules in the benchmark schema.
HIGH_EARNER_MIN = 4000
BIG_COMPANY_MIN = 15
STAFF_MIN = 1000


@dataclass
class World:
    """The generator's record of one population."""

    persons: list[str]
    companies: list[str]
    employer: dict[str, str]  # person -> company (fact type G, "works for")
    salary: dict[str, int | None]  # person -> salary; None is NULL; absent: no fact
    contractor: dict[str, str] = field(default_factory=dict)  # fact type W

    def population_doc(self) -> dict:
        doc = {
            "Person": list(self.persons),
            "Company": list(self.companies),
            "F": [{"p1": p, "p2": s} for p, s in self.salary.items()],
            "G": [{"q1": p, "q2": c} for p, c in self.employer.items()],
        }
        if self.contractor:
            doc["W"] = [{"w1": p, "w2": c} for p, c in self.contractor.items()]
        return doc


@dataclass
class Op:
    kind: str
    text: str  # query text; empty for derive_check operations
    params: dict = field(default_factory=dict)
    world: World | None = None
    pop: int = 0  # index of the population it runs on, in Workload.pop_docs


@dataclass
class Workload:
    name: str
    schema_doc: dict
    pop_docs: list[dict]  # the populations loaded at set-up
    ops: list[Op]
    ambiguity: str = "pick-first"


def load_demo(root: Path) -> tuple[dict, dict]:
    """The demo schema and population documents of the checkout."""
    demo = root / "demo"
    return json.loads((demo / "schema.json").read_text()), json.loads((demo / "population.json").read_text())


def demo_world(pop_doc: dict) -> World:
    return World(
        persons=list(pop_doc["Person"]),
        companies=list(pop_doc["Company"]),
        employer={f["q1"]: f["q2"] for f in pop_doc["G"]},
        salary={f["p1"]: f["p2"] for f in pop_doc["F"]},
    )


def bench_schema(demo_schema: dict) -> dict:
    """The demo schema extended with:

    - the fact type W (Contract), whose reading "employs" is a homonym of a
      second reading of G (Employment), so a query using "employs" keeps two
      readings;
    - the subtypes HighEarner and BigCompany and the fact type Staff, each
      defined by a derivation rule;
    - textual constraints.
    """
    doc = copy.deepcopy(demo_schema)
    doc["types"].update(
        {"W": "relationship", "HighEarner": "entity", "BigCompany": "entity", "Staff": "relationship"}
    )
    doc["roles_of"].update({"W": ["w1", "w2"], "Staff": ["st1", "st2"]})
    doc["player"].update({"w1": "Person", "w2": "Company", "st1": "Company", "st2": "Person"})
    doc["idf"].update({"W": ["w1", "w2"], "Staff": ["st1", "st2"]})
    doc["specialises"] = {"HighEarner": "Person", "BigCompany": "Company"}
    naming = doc["naming"]
    naming["tnm"].update(
        {"G": "Employment", "W": "Contract", "HighEarner": "HighEarner", "BigCompany": "BigCompany", "Staff": "Staff"}
    )
    naming["mfix"] = naming["mfix"] + [
        ["G", ["employs"], ["q2", "q1"]],
        ["W", ["employs"], ["w2", "w1"]],
        ["Staff", ["has on staff"], ["st1", "st2"]],
    ]
    doc["derivations"] = [
        {"type": "HighEarner", "body": f"a Person who earns a Salary x WHERE x >= {HIGH_EARNER_MIN}"},
        {
            "type": "BigCompany",
            "body": f"a Company c WHERE THE COUNT OF a Person who works for c >= {BIG_COMPANY_MIN}",
        },
        {
            "fact": "Staff",
            "roles": {"st1": "c", "st2": "p"},
            "body": f"a Person p who works for a Company c AND ALSO earns a Salary x WHERE x >= {STAFF_MIN}",
        },
    ]
    doc["constraints"] = list(CONSTRAINTS)
    return doc


# Each constraint passes when its query has an answer; `check.py` computes
# the verdicts from the records.
CONSTRAINTS = [
    "SOME a Person",
    "SOME a HighEarner",
    "SOME a BigCompany",
    f"NOT SOME a Person who works for a Company: 'co0' AND ALSO earns a Salary: {SALARIES[-1]}",
    "SOME a Company who has on staff a HighEarner",
]


def random_world(rng: random.Random, n_persons: int, n_companies: int, balanced: bool) -> World:
    """Persons and companies with seeded employers and salaries.  A tenth of
    the persons earn a NULL salary, a twentieth have no salary fact, and the
    others earn the values of SALARIES in turn, so the salaries have the
    same multiset for every seed and only who earns what depends on it.
    With `balanced`, every company has the same number of persons, give or
    take one.  Both keep the cost of a query independent of the seed."""
    persons = [f"per{i:03d}" for i in range(n_persons)]
    companies = [f"co{i}" for i in range(n_companies)]
    if balanced:
        shuffled = rng.sample(persons, n_persons)
        employer = {p: companies[shuffled.index(p) % n_companies] for p in persons}
    else:
        employer = {p: rng.choice(companies) for p in persons}
    earners = rng.sample(persons, n_persons - n_persons // 20)
    n_null = n_persons // 10
    values = [None] * n_null + [SALARIES[i % len(SALARIES)] for i in range(len(earners) - n_null)]
    salary = dict(sorted(zip(earners, values)))
    return World(persons, companies, employer, salary)


# ---------------------------------------------------------------------------
# operation lists

JOIN = "a Person who works for a Company c AND ALSO earns a Salary x"
COMPARATORS = [">", ">=", "<", "<=", "=", "<>"]


def join_scan_ops(rng: random.Random, worlds: list[World], n_ops: int) -> list[Op]:
    """Queries without subqueries, each over the two-fact join of G and F."""
    kinds = ["lookup", "join", "filter", "group", "ordered", "projection"]
    ops = []
    for i in range(n_ops):
        kind, world = kinds[i % len(kinds)], worlds[i % len(worlds)]
        salaries = sorted(s for s in world.salary.values() if s is not None)
        median_salary = salaries[len(salaries) // 2]
        if kind == "lookup":
            company = rng.choice(world.companies)
            ops.append(Op(kind, f"Person who works for a Company: '{company}' AND ALSO earns a Salary x",
                          {"company": company}))
        elif kind == "join":
            ops.append(Op(kind, JOIN))
        elif kind == "filter":
            # about half the rows pass, whatever the seed
            op, bound = rng.choice([">", ">=", "<", "<="]), median_salary
            ops.append(Op(kind, f"{JOIN} WHERE x {op} {bound}", {"op": op, "bound": bound}))
        elif kind == "group":
            ops.append(Op(kind, f"THE COUNT OF ({JOIN}) GROUPED BY c"))
        elif kind == "ordered":
            keys = [("x", rng.choice(["ASCENDING", "DESCENDING"])), ("c", rng.choice(["ASCENDING", "DESCENDING"]))]
            rng.shuffle(keys)
            spec = ", ".join(f"{v} {d}" for v, d in keys)
            ops.append(Op(kind, f"LIST {JOIN} ORDERED WITH {spec}", {"keys": keys}))
        else:
            divisor = rng.choice([2, 100, 1000])
            ops.append(Op(kind, f"LIST c, x / {divisor} OF {JOIN}", {"divisor": divisor}))
        ops[-1].world, ops[-1].pop = world, i % len(worlds)
    rng.shuffle(ops)
    return ops


CORRELATED_KINDS = ["avg", "max", "min", "sum", "count", "some"]


def correlated_ops(rng: random.Random, worlds: list[World], n_ops: int) -> list[Op]:
    """Queries whose WHERE clause compares against an aggregate over the
    persons of the outer row's company, or tests SOME."""
    outer = "Person who earns a Salary x AND ALSO works for a Company c WHERE "
    peers = "a Person who works for c"
    ops = []
    for i in range(n_ops):
        kind = CORRELATED_KINDS[i % len(CORRELATED_KINDS)]
        if kind in ("avg", "max", "min"):
            op = rng.choice(COMPARATORS)
            word = {"avg": "AVERAGE", "max": "MAXIMUM", "min": "MINIMUM"}[kind]
            text = f"{outer}x {op} THE {word} Salary of {peers}"
            params = {"op": op}
        elif kind == "sum":
            op, bound = rng.choice(COMPARATORS), rng.randrange(10, 40) * 1000
            text = f"{outer}THE SUM OF a Salary of {peers} {op} {bound}"
            params = {"op": op, "bound": bound}
        elif kind == "count":
            op, bound = rng.choice(COMPARATORS), rng.randrange(5, 11)
            text = f"{outer}THE COUNT OF a Salary of {peers} {op} {bound}"
            params = {"op": op, "bound": bound}
        else:
            negate, value = rng.random() < 0.5, rng.choice(SALARIES)
            text = f"{outer}{'NOT ' if negate else ''}SOME a Salary: {value} of {peers}"
            params = {"negate": negate, "value": value}
        ops.append(Op(kind, text, params, worlds[i % len(worlds)], i % len(worlds)))
    rng.shuffle(ops)
    return ops


def long_query_ops(rng: random.Random, world: World, n_ops: int) -> list[Op]:
    """Long AND ALSO chains, and queries that keep two readings.  The three
    kinds cost about the same at the seed commit.

    - same: one fact repeated CHAIN_K + 1 times; its answer must equal the
      single fact's.
    - mixed: CHAIN_K + 1 terms over a fixed pool, two with seeded constants.
    - homonym: a chain of CHAIN_K terms whose WHERE clause uses the homonym
      "employs"; the session lists the readings instead of evaluating.
    """
    kinds = ["same", "mixed", "homonym"]
    ops = []
    for i in range(n_ops):
        kind = kinds[i % len(kinds)]
        if kind == "same":
            term = ["earns a Salary x", "works for a Company c"][i // len(kinds) % 2]
            text = "Person who " + " AND ALSO ".join([term] * (CHAIN_K + 1))
            ops.append(Op(kind, text, {"terms": [term]}, world))
        elif kind == "mixed":
            company = rng.choice(world.companies)
            value = rng.choice(sorted({s for s in world.salary.values() if s is not None}))
            pool = [
                "earns a Salary x",
                "works for a Company c",
                f"works for a Company: '{company}'",
                f"earns a Salary: {value}",
            ]
            terms = [pool[j % len(pool)] for j in range(CHAIN_K + 1)]
            ops.append(Op(kind, "Person who " + " AND ALSO ".join(terms), {"terms": sorted(set(terms))}, world))
        else:
            terms = ["works for a Company c"] + ["earns a Salary x"] * (CHAIN_K - 1)
            text = "Person p who " + " AND ALSO ".join(terms) + " WHERE SOME a Company that employs p"
            ops.append(Op(kind, text, world=world))
    rng.shuffle(ops)
    return ops


def derive_ops(rng: random.Random, n_ops: int) -> list[Op]:
    """Each operation loads a freshly generated population, then derives and
    checks the constraints."""
    ops = []
    for i in range(n_ops):
        n = DERIVE_PERSONS[i % len(DERIVE_PERSONS)]
        world = random_world(rng, n, DERIVE_COMPANIES, balanced=False)
        contractors = rng.sample(world.persons, n // 10)
        world.contractor = {p: rng.choice(world.companies) for p in contractors}
        ops.append(Op("derive", "", world=world))
    rng.shuffle(ops)
    return ops


WORKLOADS = ["join_scan", "correlated", "long_query", "derive_check"]


def make_workload(name: str, root: Path, seed: int, n_ops: int) -> Workload:
    """The inputs of one workload: schema, set-up populations and a list of
    `n_ops` operations (run.py times all but the first few)."""
    rng = random.Random(f"{name}:{seed}")
    demo_schema, demo_pop = load_demo(root)
    if name == "derive_check":
        ops = derive_ops(rng, n_ops)
        return Workload(name, bench_schema(demo_schema), [ops[0].world.population_doc()], ops)
    if name == "long_query":
        ops = long_query_ops(rng, demo_world(demo_pop), n_ops)
        return Workload(name, bench_schema(demo_schema), [demo_pop], ops, "list")
    if name == "join_scan":
        worlds = [random_world(rng, n, JOIN_SCAN_COMPANIES, balanced=True) for n in JOIN_SCAN_PERSONS]
        ops = join_scan_ops(rng, worlds, n_ops)
    elif name == "correlated":
        worlds = [random_world(rng, n, CORRELATED_COMPANIES, balanced=True) for n in CORRELATED_PERSONS]
        ops = correlated_ops(rng, worlds, n_ops)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, demo_schema, [w.population_doc() for w in worlds], ops)
