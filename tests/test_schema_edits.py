"""Every schema document is a schema or a staged error: a document made by
one to three random edits of the demo schema or of the benchmark schema
loads or is refused with a ``ConquerError``, ``validate_schema`` gives its
diagnostics without raising, and the demo population and a query on the
schema give an answer or a ``ConquerError``, never another exception."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conquer.cli import Session, load_full_schema, run_query
from conquer.errors import ConquerError
from conquer.population import load_population
from conquer.schema import validate_schema

from .test_loader import bench_doc, demo_doc
from .test_reading_golden import README_QUERIES
from .test_scaling import DEMO

SCHEMAS = {"demo": demo_doc(), "bench": bench_doc()}
POPULATION = json.loads((DEMO / "population.json").read_text())
QUERIES = README_QUERIES + [
    "LIST c, x OF a Person who earns a Salary x AND ALSO works for a Company c",
    "a Person who works for a Company: 'acme'",
    "a HighEarner who works for a BigCompany",
]

# what an edit puts in a place: a value of another shape, or a name or a
# part the document holds elsewhere, so that references cross
VALUES = [None, 0, 1, 2.5, True, "", "x", [], {}, ["x"], {"x": "y"}]
EDITS = ("delete", "value", "name", "copy", "rekey")

edit_lists = st.lists(
    st.tuples(st.sampled_from(EDITS), st.integers(0, 1 << 16), st.integers(0, 1 << 16)), min_size=1, max_size=3
)


def places(doc) -> list:
    """Every (container, key) of ``doc`` and of the containers in it."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for k in keys:
            out.append((node, k))
            if isinstance(node[k], (dict, list)):
                stack.append(node[k])
    return out


def names(doc) -> list[str]:
    """Every text of ``doc``, as a key or as a value, in a fixed order."""
    out = set()
    for node, k in places(doc):
        if isinstance(k, str):
            out.add(k)
        if isinstance(node[k], str):
            out.add(node[k])
    return sorted(out)


def edited(doc: dict, edits: list) -> dict:
    """A copy of ``doc`` with each edit applied in turn: an edit picks a
    place by its first number, and a value, a name or another place by its
    second."""
    doc = copy.deepcopy(doc)
    for kind, i, j in edits:
        spots = places(doc)
        if not spots:
            break
        node, k = spots[i % len(spots)]
        if kind == "delete":
            del node[k]
        elif kind == "value":
            node[k] = copy.deepcopy(VALUES[j % len(VALUES)])
        elif kind == "name":
            node[k] = names(doc)[j % len(names(doc))]
        elif kind == "copy":
            other, m = spots[j % len(spots)]
            node[k] = copy.deepcopy(other[m])
        elif isinstance(node, dict):  # rekey: the entry under another name
            node[names(doc)[j % len(names(doc))]] = node.pop(k)
    return doc


def outcome(doc: dict, query: str) -> str:
    """How far ``doc`` and ``query`` go: the stage whose ``ConquerError``
    stops them, or ``answer``.  Any other exception propagates."""
    try:
        schema = load_full_schema(doc)
    except ConquerError:
        return "schema"
    assert all(isinstance(d, str) for d in validate_schema(schema))
    try:
        pop = load_population(schema, copy.deepcopy(POPULATION))
    except ConquerError:
        return "population"
    try:
        run_query(Session(schema=schema, base_pop=pop), query)
    except ConquerError:
        return "query"
    return "answer"


def test_the_unedited_schemas_answer_every_query():
    for doc in SCHEMAS.values():
        assert [outcome(copy.deepcopy(doc), q) for q in QUERIES[:-1]] == ["answer"] * (len(QUERIES) - 1)
    assert outcome(copy.deepcopy(SCHEMAS["bench"]), QUERIES[-1]) == "answer"


def test_edits_reach_every_stage():
    """The edits are not all refused at load: over a fixed set of them,
    some documents are refused at each stage and some answer."""
    stages = set()
    for n in range(60):
        edits = [(EDITS[n % len(EDITS)], 7919 * n + 13, 104729 * n + 7)]
        stages.add(outcome(edited(SCHEMAS[("demo", "bench")[n % 2]], edits), QUERIES[n % len(QUERIES)]))
    assert stages == {"schema", "population", "query", "answer"}


@pytest.mark.parametrize("scheme", [["q2"], [["q1", "q2"]]], ids=["roles", "pairs"])
def test_a_denotation_through_a_cyclic_reference_scheme_is_refused(scheme):
    """Company identified through a role that Company plays: denoting a
    Company would expand without end."""
    doc = copy.deepcopy(SCHEMAS["demo"])
    doc["idf"]["Company"] = scheme
    session = Session(schema=load_full_schema(doc))
    with pytest.raises(ConquerError, match="reference scheme chain starting at 'Company' is cyclic"):
        run_query(session, "a Person who works for a Company: 'acme'")


@pytest.mark.parametrize("scheme", [["q2"], [["q1", "q2"]]], ids=["roles", "pairs"])
def test_validation_reports_the_cyclic_reference_scheme_that_a_denotation_meets(scheme):
    """Company is reported, and G, whose roles scheme only reaches the
    cycle, is not."""
    doc = copy.deepcopy(SCHEMAS["demo"])
    doc["idf"]["Company"] = scheme
    assert validate_schema(load_full_schema(doc)) == ["reference scheme chain starting at 'Company' is cyclic"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCHEMAS)), edit_lists, st.sampled_from(QUERIES))
def test_an_edited_schema_answers_or_is_refused(name, edits, query):
    outcome(edited(SCHEMAS[name], edits), query)
