"""The engine from the text end against the oracle.

Each path that ``test_roundtrip`` generates is verbalised, and the text
goes the way a query goes: ``parse_list``, ``disambiguate`` (the first
survivor is the reading taken), ``translate`` and ``evaluate``, on a
generated population.  The answer must be the oracle's for the original
path.  A text whose every reading is structurally empty must be rejected,
and then the original path must be structurally empty too.

The paths are generated for the round-trip schema and for a variant in
which Salary is a value type, as in the demo schema: an aggregate of
salaries is then a salary too, so some texts keep two readings, and the
first must be the one the text was made from.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from conquer.cli import load_full_schema
from conquer.errors import AmbiguityError
from conquer.frontend import disambiguate, parse_list
from conquer.paths import has_empty_subpath, translate
from conquer.population import load_population
from conquer.relalg import evaluate
from conquer.schema import load_schema
from conquer.values import NULL
from conquer.verbalise import VerbCtx, verbalise

from .oracle import oracle_eval
from .test_parse_golden import grammar_doc
from .test_oracle_large import demo_population_doc
from .test_roundtrip import CASES, make_case, rich_doc
from .test_scaling import DEMO

PERSONS = [f"p{i}" for i in range(7)]
SALARIES = [1000, 1500, 2000, 2500, 3000]
COMPANIES = ["acme", "bolt", "core", "dyna"]


def value_salary_doc() -> dict:
    """The round-trip schema with Salary (``y``) a value type."""
    doc = rich_doc()
    doc["types"]["y"] = "value"
    for table, names in (("types", ["SN", "SAmt"]), ("roles_of", ["SN"]), ("player", ["sn1", "sn2"]), ("idf", ["SN", "y"])):
        for name in names:
            del doc[table][name]
    return doc


def population(schema, seed: int):
    """Persons, salaries and companies, with earnings and employments drawn
    with repetition, so that some facts occur twice, some persons have none
    and some salaries and companies are nobody's."""
    rng = random.Random(seed)
    return load_population(schema, {
        "Person": PERSONS,
        "Salary": SALARIES,
        "Company": COMPANIES,
        "Earning": [{"p1": rng.choice(PERSONS), "p2": rng.choice(SALARIES[:-1])} for _ in range(8)],
        "Employment": [{"q1": rng.choice(PERSONS[:-1]), "q2": rng.choice(COMPANIES[:-1])} for _ in range(7)],
    })


def test_text_end_agrees_with_the_oracle():
    seen = Counter()
    for doc in (rich_doc(), value_salary_doc()):
        schema = load_schema(doc)
        pops = [population(schema, seed) for seed in range(2)]
        for i in range(CASES):
            p, typing, vnm = make_case(schema, i)
            text = verbalise(p, VerbCtx(schema, typing, vnm))
            pop = pops[i % len(pops)]
            try:
                result = disambiguate(schema, parse_list(text, schema))
            except AmbiguityError:
                assert has_empty_subpath(schema, p, typing), (i, text)
                seen["empty"] += 1
                continue
            reading = result.interpretations[0]
            got = evaluate(translate(schema, reading.path, reading.typing), pop)
            assert (got.header, got.body) == oracle_eval(schema, pop, typing, p), (i, text)
            seen["answered"] += 1
            seen["ambiguous"] += result.ambiguous
            seen["rows"] += got.body.cardinality()
    assert seen["answered"] + seen["empty"] == 2 * CASES
    # the texts reach the rejection, ambiguity and non-empty answers
    assert seen["empty"] > 0 and seen["ambiguous"] > 0 and seen["rows"] > 2 * CASES, dict(seen)


# set-operation operands on the demo schema, by the variables they bind
DEMO_OPERANDS = {
    "c": "works for a Company c",
    "x": "earns a Salary x",
    "neither": "works for a Company",
    "neither, a constant": "earns a Salary: 1000",
}
DEMO_SET_WORDS = ["AND ALSO", "OR OTHERWISE", "BUT NOT"]


def demo_set_texts() -> list[str]:
    """Each set word between each pair of operands; three-term chains, whose
    left operand binds what its two terms bind; the same with the last two
    terms bracketed, so that the right operand binds both; and filters of
    companies, the last of which has no employees."""
    texts = []
    ops = list(DEMO_OPERANDS.values())
    for word in DEMO_SET_WORDS:
        texts += [f"Person who {left} {word} {right}" for left in ops for right in ops]
        for other in DEMO_SET_WORDS:
            for a, b, c in [("c", "x", "c"), ("x", "c", "neither"), ("c", "x", "neither, a constant")]:
                a, b, c = DEMO_OPERANDS[a], DEMO_OPERANDS[b], DEMO_OPERANDS[c]
                texts.append(f"Person who {a} {word} {b} {other} {c}")
                texts.append(f"Person who {c} {word} ({a} {other} {b})")
        texts.append(f"Company c WHERE SOME Person who works for c {word} earns a Salary x")
    return texts


def test_text_end_agrees_with_the_oracle_on_demo_populations():
    """The demo schema's set operations from the text end, on the demo
    family of populations: NULL salaries, persons without a salary and a
    company without employees."""
    schema = load_full_schema(json.loads((DEMO / "schema.json").read_text()))
    pops = [load_population(schema, demo_population_doc(random.Random(seed), n, 5)) for seed, n in ((4, 24), (5, 60))]
    rows = padded = 0
    for text in demo_set_texts():
        (reading, *_) = disambiguate(schema, parse_list(text, schema)).interpretations
        plan = translate(schema, reading.path, reading.typing)
        for pop in pops:
            got = evaluate(plan, pop)
            assert (got.header, got.body) == oracle_eval(schema, pop, reading.typing, reading.path), text
            rows += got.body.cardinality()
            padded += any(v is NULL for t, _ in got.rows() for v in t)
    # the answers include rows with NULL, padded or earned
    assert rows > 1000 and padded > 10


# texts on the grammar schema whose translation no other text reaches:
# selections with a default or several branches, IS DISJOINT FROM, role
# access, mix-fix middles, fact types denoted by their roles, two grouping
# variables, shuffles through a middle variable and sub-expressions
GRAMMAR_TEXTS = [
    "IF SOME a Person who earns a Salary: 3000 THEN 'rich' ELSE 'poor'",
    "'high' IF SOME a Person who earns a Salary: 3000; 'low' IF SOME a Person who earns a Salary: 500; "
    "'none' OTHERWISE",
    "'high' IF SOME a Person who earns a Salary: 9000; 'none' OTHERWISE",
    "a Person p who earns a Salary x IF x > 1500; a Person p who earns a Salary x IF x < 800",
    "a Company c WHERE Person who works for c IS DISJOINT FROM Person who earns a Salary: 3000",
    "Employment e WHERE e.at-company = Company: 'acme'",
    "Earning e WHERE e.by-earner = e.by-earner",
    "Company c offers a Salary x to a Person p",
    "a Company offers.Offer a Salary x to a Person who earns x",
    "Earning: ('ann', 1000)",
    "Earning: 'ann', 1000",
    "Earning: (Person: 'ann', 1000)",
    "Earning: (!p, !x)",
    "Offer: 'beta', 3000, 'ann'",
    "THE COUNT OF (a Person p who earns a Salary x AND ALSO works for a Company c) GROUPED BY x, c",
    "THE SUM OF x IN (a Person p who earns a Salary x AND ALSO works for a Company c) GROUPED BY c",
    "THE PATH FROM p VIA x TO c OF a Person p who earns a Salary x AND ALSO works for a Company c",
    "SELECT p, x WHERE SOME a Person p who earns a Salary x",
    "[a Person who earns a Salary: 1000, a Person who works for a Company: 'beta']",
]


def grammar_populations(schema) -> list:
    """The demo population with three offers, and a generated one with
    offers drawn from its companies, salaries and persons."""
    demo = json.loads((DEMO / "population.json").read_text())
    demo["H"] = [
        {"h1": "acme", "h2": 1000, "h3": "ann"},
        {"h1": "beta", "h2": 3000, "h3": "ann"},
        {"h1": "beta", "h2": 500, "h3": "dee"},
    ]
    rng = random.Random(6)
    drawn = demo_population_doc(rng, 30, 4)
    drawn["H"] = [
        {"h1": rng.choice(drawn["Company"]), "h2": rng.choice(SALARIES), "h3": rng.choice(drawn["Person"])}
        for _ in range(8)
    ]
    return [load_population(schema, doc) for doc in (demo, drawn)]


def test_text_end_agrees_with_the_oracle_on_the_grammar_schema():
    schema = load_full_schema(grammar_doc())
    pops = grammar_populations(schema)
    answered = set()
    for text in GRAMMAR_TEXTS:
        (reading, *_) = disambiguate(schema, parse_list(text, schema)).interpretations
        plan = translate(schema, reading.path, reading.typing)
        for pop in pops:
            got = evaluate(plan, pop)
            assert (got.header, got.body) == oracle_eval(schema, pop, reading.typing, reading.path), text
            if got.body:
                answered.add(text)
    # every text has an answer on some population
    assert answered == set(GRAMMAR_TEXTS)
