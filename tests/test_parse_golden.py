"""What the parser gives a text stays byte-identical: every record tree
that ``parse_list_records`` and ``parse_records`` return, in the order
they come in, or the text of the syntax error.

The golden file holds the texts and what an earlier version of the parser
gave for them: the README's queries on the demo schema, the seed 1 to 3
operations of the benchmark's ``join_scan``, ``correlated`` and
``long_query`` workloads on their schemas, one text for each grammar
production on a schema that names every construct, and some syntax
errors.  To write it again from the parser as it stands::

    PYTHONPATH=src python -m tests.test_parse_golden --write
"""

from __future__ import annotations

import json
import sys
from functools import cache
from pathlib import Path

import pytest

from conquer.cli import load_full_schema
from conquer.errors import ConquerError
from conquer.frontend import dump_records, tokenize
from conquer.frontend.parser import parse_list_records, parse_records

from .test_reading_golden import README_QUERIES, ROOT, _gen
from .test_reading_golden import _schema as _workload_schema

GOLDEN = Path(__file__).resolve().parent / "parse_golden.json"

# each workload's schema
WORKLOADS = {"join_scan": "demo", "correlated": "demo", "long_query": "bench"}
SEEDS = (1, 2, 3)
OPS_PER_SEED = 62


def grammar_doc() -> dict:
    """The demo schema with its fact types named, role and reverse role
    names, and a three-role fact type read with a middle argument: Offer,
    "Company offers Salary to Person"."""
    doc = json.loads((ROOT / "demo" / "schema.json").read_text())
    doc["types"]["H"] = "relationship"
    doc["roles_of"]["H"] = ["h1", "h2", "h3"]
    doc["player"].update({"h1": "Company", "h2": "Salary", "h3": "Person"})
    doc["idf"]["H"] = ["h1", "h2", "h3"]
    naming = doc["naming"]
    naming["tnm"].update({"F": "Earning", "G": "Employment", "H": "Offer"})
    naming["pnm"] = {"p1": "earning", "q1": "working"}
    naming["rnm"] = {"p1": "by-earner", "q2": "at-company"}
    naming["mfix"].append(["H", ["offers", "to"], ["h1", "h2", "h3"]])
    return doc


# one text for each production of the grammar, on the grammar schema
PRODUCTION_TEXTS = [
    # selections
    "THE PATH FROM s TO p OF a Person p who earns a Salary s",
    "THE PATH FROM p VIA x, c TO s OF a Person p who earns a Salary x",
    "SELECT p WHERE SOME a Person p who earns a Salary x",
    "SELECT p, x WHERE SOME a Person p who earns a Salary x",
    "IF SOME a Company THEN a Person",
    "IF SOME a Company THEN a Person ELSE a Salary",
    "'P' IF SOME a Person",
    "'P' IF SOME a Person; 'T' IF SOME a Company; 'S' OTHERWISE",
    "'P' IF SOME a Person; 'S' OTHERWISE",
    "a Person who earns a Salary x WHERE x > 1000",
    "Salary of a Person p AS s VIA p EACH a Person p",
    "Salary of a Person p AS s VIA p, a Company c AS k EACH a Person p who works for a Company c",
    "Salary of a Person p, Company c VIA p EACH a Person p",
    # operator chains
    "Person who earns a Salary x AND ALSO works for a Company c BUT NOT earns a Salary: 1000",
    "a Person UNITED WITH a Person INTERSECTED WITH a Person MINUS a Person",
    "a Person who IS a Person",
    "x + 1 * 2 - 3",
    # units
    "(a Person)",
    "[a Person]",
    "[a Person, a Company]",
    "[a Person, a Company, a Salary]",
    "ONLY ONLY a Person",
    "THE REVERSE OF Salary of a Person",
    "DISTINCT a Salary",
    "THE COUNT OF a Person who works for a Company c GROUPED BY c",
    "THE SUM OF x IN a Person p who earns a Salary x GROUPED BY p",
    "THE COUNT OF (a Person who earns a Salary x AND ALSO works for a Company c) GROUPED BY x, c",
    "THE AVERAGE Salary of a Person",
    "THE COUNT OF a Person",
    "SOME a Person",
    "NOT SOME a Person",
    "~ SOME a Company",
    "1000",
    "'ann'",
    "true",
    "the Person: 'ann'",
    "Person: !p",
    "Salary: 1000",
    "Earning: ('ann', 1000)",
    "Earning: 'ann', 1000",
    "Earning: (Person: 'ann', 1000)",
    "Earning: (!p, !x)",
    "Offer: 'acme', 1000, 'ann'",
    "earning a Salary",
    "a Person who earning a Salary",
    "earning.Earning a Salary",
    "Person who works for.Employment a Company",
    "by-earner.Earning a Person",
    "Company c offers a Salary x to a Person p",
    "a Company offers.Offer a Salary to a Person",
    "f()",
    "f(a Person)",
    "f(a Person, a Salary)",
    "f(a Person, a Salary, 1000)",
    "x",
    "x.by-earner",
    "HEAD",
    # conditions
    "SOME a Person AND SOME a Company OR SOME a Salary",
    "SOME a Person EXCLUSIVE OR SOME a Company IMPLIES SOME a Salary",
    "NOT (SOME a Person)",
    "~ (SOME a Person & SOME a Company)",
    "1000 > 500",
    "a Salary IS A SUBSET OF a Salary",
    "a Company IS DISJOINT FROM Company c",
    "SOME a Person AND f(x)",
    # list statements
    "LIST a Person",
    "LIST x OF a Person who earns a Salary x",
    "LIST x, p FROM a Person p who earns a Salary x",
    "LIST x, p, x + 1 OF a Person p who earns a Salary x",
    "LIST a Person p ORDERED ASCENDING",
    "LIST a Person p ORDERED DESCENDING",
    "LIST a Person who earns a Salary x ORDERED WITH x DESCENDING",
    "LIST a Person who earns a Salary x ORDERED WITH ASCENDING x",
    "LIST x, p OF a Person p who earns a Salary x ORDERED WITH x DESCENDING, p ASCENDING",
    "a Person p who earns a Salary x ORDERED WITH DESCENDING x, ASCENDING p",
    "a Person ORDERED ASCENDING",
]

# texts that no reading parses
SYNTAX_ERRORS = [
    "",
    "a Person WHERE",
    "Person who earnz a Salary",
    "a Persn who earns a Salary",
    "Earning: ('ann', 1000",
    "LIST x OF",
    "Earning: 'ann',",
    "a Person )",
    "THE PATH FROM 1 TO x OF a Person",
    "THE PATH FROM p VIA x, TO s OF a Person p",
    "SELECT WHERE SOME a Person",
    "SELECT p, WHERE SOME a Person p",
    "[a Person,",
    "f(a Person,",
    "THE COUNT OF a Person GROUPED BY",
    "THE COUNT OF a Person GROUPED BY x,",
    "LIST x, OF a Person p",
    "a Person ORDERED WITH x",
    "'P' IF SOME a Person;",
    "Salary of a Person p AS s, EACH a Person p",
    "SOME a Person AND",
    "Company c offers a Salary x to",
]


@cache
def _schema(name: str):
    return load_full_schema(grammar_doc()) if name == "grammar" else _workload_schema(name)


def _parsed(parse, tokens, schema) -> list[str] | str:
    try:
        return [dump_records(rec) for rec in parse(tokens, schema)]
    except ConquerError as e:
        return f"error: {e}"


def observe(schema_name: str, text: str) -> dict:
    """The record trees the parser gives ``text``."""
    schema = _schema(schema_name)
    out = {"schema": schema_name, "text": text}
    try:
        tokens = tokenize(text)
    except ConquerError as e:
        out["error"] = str(e)
        return out
    out["list"] = _parsed(parse_list_records, tokens, schema)
    out["records"] = _parsed(parse_records, tokens, schema)
    return out


def _cases() -> list[tuple[str, str]]:
    gen = _gen()
    cases = [("demo", q) for q in README_QUERIES]
    for workload, schema_name in WORKLOADS.items():
        for seed in SEEDS:
            ops = gen.make_workload(workload, ROOT, seed, OPS_PER_SEED).ops
            cases.extend((schema_name, op.text) for op in ops)
    cases.extend(("grammar", text) for text in PRODUCTION_TEXTS + SYNTAX_ERRORS)
    return list(dict.fromkeys(cases))


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("expected", _golden(), ids=lambda e: f"{e['schema']}:{e['text'][:60]}")
def test_parser_gives_what_it_gave(expected):
    assert observe(expected["schema"], expected["text"]) == expected


def test_the_corpus_reaches_every_production_and_error():
    golden = _golden()
    assert [(e["schema"], e["text"]) for e in golden] == _cases()
    grammar = [e for e in golden if e["schema"] == "grammar"]
    # every production text parses one way or the other, and no error text does
    for e in grammar:
        parsed = isinstance(e.get("list"), list) or isinstance(e.get("records"), list)
        assert parsed == (e["text"] in PRODUCTION_TEXTS), e["text"]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps([observe(s, q) for s, q in _cases()], indent=1) + "\n")
