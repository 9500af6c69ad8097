"""What the frontend shows of a query stays byte-identical: the chosen
reading's path (``\\dump-path``), the verbalised survivors (``\\explain``),
every surviving reading's path, the ``ambiguous`` flag and the diagnostics.

The golden file holds the queries and what an earlier version of the
engine showed for them: the README's queries on the demo schema, and the
first 25 seed-1 operations of the benchmark's ``long_query`` (on its
schema) and ``correlated`` (on the demo schema) workloads.  To write it
again from the engine as it stands::

    PYTHONPATH=src python tests/test_reading_golden.py --write
"""

from __future__ import annotations

import importlib.util
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from conquer.cli import Session, cmd_dump_path, cmd_explain, load_full_schema
from conquer.errors import ConquerError
from conquer.frontend import disambiguate, parse_list
from conquer.paths import path_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "reading_golden.json"

README_QUERIES = [
    "Person who earns a Salary x AND ALSO works for a Company c "
    "WHERE x > THE AVERAGE Salary of a Person who works for c",
    "LIST a Person who earns a Salary x ORDERED WITH x DESCENDING",
    "a Person who earns a Salary x",
]


@cache
def _gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


@cache
def _schema(name: str):
    demo = json.loads((ROOT / "demo" / "schema.json").read_text())
    return load_full_schema(_gen().bench_schema(demo) if name == "bench" else demo)


def _shown(f) -> str:
    try:
        return f()
    except ConquerError as e:
        return f"error: {e}"


def observe(schema_name: str, query: str) -> dict:
    """What the frontend shows of ``query``."""
    schema = _schema(schema_name)
    session = Session(schema=schema)
    out = {
        "schema": schema_name,
        "query": query,
        "dump_path": _shown(lambda: cmd_dump_path(session, query)),
        "explain": _shown(lambda: cmd_explain(session, query)),
    }
    try:
        parsed = parse_list(query, schema)
        out["diagnostics"] = list(parsed.diagnostics)
        result = disambiguate(schema, parsed)
    except ConquerError as e:
        out["error"] = str(e)
        return out
    out["readings"] = [path_text(i.path) for i in result.interpretations]
    out["ambiguous"] = result.ambiguous
    return out


def _cases() -> list[tuple[str, str]]:
    gen = _gen()
    cases = [("demo", q) for q in README_QUERIES]
    for workload, schema_name in (("long_query", "bench"), ("correlated", "demo")):
        ops = gen.make_workload(workload, ROOT, 1, 25).ops
        cases.extend((schema_name, op.text) for op in ops)
    return cases


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("expected", _golden(), ids=lambda e: e["query"][:60])
def test_frontend_shows_what_it_showed(expected):
    assert observe(expected["schema"], expected["query"]) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps([observe(s, q) for s, q in _cases()], indent=1) + "\n")
