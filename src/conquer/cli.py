"""The command line: load a schema and population, run queries.

Batch mode runs a single query (`--query`); otherwise a small REPL accepts
queries and backslash commands.  Query output is a table over HEAD, the
named variables in order of first appearance, and TAIL; abstract instances
are always replaced by their denotations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Any

from . import paths as P
from . import relalg as ra
from .errors import AmbiguityError, ConquerError
from .frontend import compile_schema_queries, disambiguate, dump_records, parse_list
from .frontend.lower import Interpretation
from .population import Population, denote_instance, load_population
from .schema import Schema, load_schema, validate_schema
from .values import NULL, Bool, EntityInstance, FactInstance, GroupedBag, format_number, is_number
from .verbalise import VerbCtx, verbalise_interpretation, verbalise_scalar


def load_full_schema(doc: dict | str) -> Schema:
    schema = load_schema(doc)
    return compile_schema_queries(schema)


@dataclass
class Session:
    schema: Schema | None = None
    base_pop: Population | None = None
    derived_pop: Population | None = None
    out_format: str = "table"
    null_token: str = "NULL"
    ambiguity: str = "pick-first"  # fail | list | pick-first

    def load_schema_file(self, path: str) -> str:
        with open(path) as f:
            doc = json.load(f)
        schema = load_full_schema(doc)
        diags = validate_schema(schema)
        self.schema = schema
        self.base_pop = None
        self.derived_pop = None
        lines = [f"schema loaded: {len(schema.user_types())} types, {len(schema.roles)} roles"]
        lines.extend(f"warning: {d}" for d in diags)
        return "\n".join(lines)

    def loaded_schema(self) -> Schema:
        """The loaded schema; commands that need one fail without it."""
        if self.schema is None:
            raise ConquerError("load a schema first")
        return self.schema

    def load_population_file(self, path: str) -> str:
        schema = self.loaded_schema()
        with open(path) as f:
            doc = json.load(f)
        self.base_pop = load_population(schema, doc)
        self.derived_pop = None
        return f"population loaded: {sum(1 for _ in self.base_pop.types())} populated types"

    def population(self) -> Population:
        schema = self.loaded_schema()
        if self.base_pop is None:
            self.base_pop = Population(schema)
        if schema.derivations:
            if self.derived_pop is None:
                self.derived_pop = P.apply_derivations(schema, self.base_pop)
            return self.derived_pop
        return self.base_pop


def _cell_text(value: Any, pop: Population, null_token: str) -> str:
    if value is NULL:
        return null_token
    if isinstance(value, (EntityInstance, FactInstance)):
        parts = denote_instance(value, pop)
        return ",".join(_cell_text(v, pop, null_token) for v in parts)
    if isinstance(value, GroupedBag):
        inner = ", ".join(_cell_text(v, pop, null_token) for v in value.bag.elements())
        return "{" + inner + "}"
    if isinstance(value, Bool):
        return "true" if value.value else "false"
    if is_number(value):
        return format_number(value)
    return str(value)


def _render_table(header: list[str], rows: list[list[str]], out_format: str) -> str:
    if out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


def _pick_interpretation(session: Session, result) -> Interpretation:
    if len(result.interpretations) == 1:
        return result.interpretations[0]
    if session.ambiguity == "fail":
        alts = [i.verbalisation or "" for i in result.interpretations]
        raise AmbiguityError("ambiguous query", alternatives=alts)
    return result.interpretations[0]


def run_query(session: Session, text: str) -> str:
    """The full pipeline: parse, disambiguate, normalise, translate,
    evaluate, project, order, denote and render."""
    schema = session.loaded_schema()
    result = disambiguate(schema, parse_list(text, schema))
    if result.ambiguous and session.ambiguity == "list":
        lines = ["ambiguous query; interpretations:"]
        lines.extend(f"  {i + 1}. {interp.verbalisation}" for i, interp in enumerate(result.interpretations))
        return "\n".join(lines)
    interp = _pick_interpretation(session, result)

    norm = P.normalise(schema, interp.path)
    typing = P.infer_typing(schema, norm)
    expr = P.translate(schema, norm, typing)
    pop = session.population()
    relation = ra.evaluate(expr, pop)

    ordered = P.order_result(relation, interp.order) if interp.order else [
        t for t, n in relation.rows() for _ in range(n)
    ]

    named = [
        attr
        for attr in interp.vnm
        if attr not in (P.HD, P.TL) and attr in relation.header
    ]

    if interp.projection:
        ctx = VerbCtx(schema, typing, interp.vnm)
        labels = [verbalise_scalar(e, ctx) for e in interp.projection]
        translator = P.Translator(schema, typing)
        compiled = [translator.scalar(e, frozenset(relation.header)) for e in interp.projection]
        header = labels
        rows = [
            [_cell_text(value, pop, session.null_token) for value in values]
            for values in ra.eval_scalars(compiled, pop, relation.header, ordered)
        ]
    else:
        header = ["HEAD"] + [interp.vnm[a] for a in named] + ["TAIL"]
        slots = [relation.header.index(a) for a in [P.HD] + named + [P.TL]]
        rows = [[_cell_text(t[i], pop, session.null_token) for i in slots] for t in ordered]

    return _render_table(header, rows, session.out_format)


# ---------------------------------------------------------------------------
# commands


def cmd_macro(session: Session, definition: str) -> str:
    schema = session.loaded_schema()
    head, sep, body = definition.partition("::=")
    if not sep:
        raise ConquerError("macro definition must use name(params) ::= body")
    head = head.strip()
    if "(" in head:
        name, _, params_text = head.partition("(")
        params = tuple(p.strip() for p in params_text.rstrip(") ").split(",") if p.strip())
    else:
        name, params = head, ()
    schema.raw_macros = [{"name": name.strip(), "params": list(params), "body": body.strip()}]
    compile_schema_queries(schema)
    schema.raw_macros = []
    return f"macro {name.strip()!r} defined"


def cmd_derive(session: Session) -> str:
    schema = session.loaded_schema()
    if not schema.derivations:
        return "0 derivation rules"
    session.derived_pop = None
    pop = session.population()
    lines = []
    for rule in schema.derivations:
        lines.append(f"derived {rule.defines}: {pop.instances(rule.defines).cardinality()} instances")
    return "\n".join(lines)


def cmd_constraints(session: Session) -> str:
    schema = session.loaded_schema()
    if not schema.constraints:
        return "0 constraints checked"
    pop = session.population()
    lines = []
    failures = 0
    for text, path in schema.constraints:
        ok = P.check_constraint(schema, path, pop)
        failures += 0 if ok else 1
        lines.append(f"{'pass' if ok else 'FAIL'}: {text}")
    lines.append(f"{len(schema.constraints)} constraints checked, {failures} failed")
    return "\n".join(lines)


def cmd_dump_records(session: Session, text: str) -> str:
    schema = session.loaded_schema()
    result = disambiguate(schema, parse_list(text, schema))
    interp = _pick_interpretation(session, result)
    records = interp.records
    if records.projection is None and records.order is None:
        records = records.inf  # a bare descriptor: its LIST I adds nothing
    return dump_records(records)


def cmd_dump_path(session: Session, text: str) -> str:
    schema = session.loaded_schema()
    result = disambiguate(schema, parse_list(text, schema))
    interp = _pick_interpretation(session, result)
    return P.path_text(interp.path)


def cmd_explain(session: Session, text: str) -> str:
    schema = session.loaded_schema()
    result = disambiguate(schema, parse_list(text, schema))
    lines = [f"{len(result.interpretations)} interpretation(s):"]
    for i, interp in enumerate(result.interpretations):
        rendered = interp.verbalisation or verbalise_interpretation(schema, interp)
        lines.append(f"  {i + 1}. {rendered}")
    return "\n".join(lines)


HELP = """\
queries are entered directly; commands:
  \\schema <file>          load a schema document
  \\pop <file>             load a population document
  \\macro Name(a) ::= ...  define a query macro
  \\derive                 apply derivation rules
  \\constraints            check the stored constraints
  \\dump-records <query>   print the record tree of a parse
  \\dump-path <query>      print the canonical path expression
  \\explain <query>        verbalise the surviving interpretations
  \\quit                   leave"""

COMMANDS = {
    "\\schema": lambda s, arg: s.load_schema_file(arg),
    "\\pop": lambda s, arg: s.load_population_file(arg),
    "\\macro": cmd_macro,
    "\\dump-records": cmd_dump_records,
    "\\dump-path": cmd_dump_path,
    "\\explain": cmd_explain,
    "\\help": lambda s, arg: HELP,
}


def execute(session: Session, line: str) -> str:
    line = line.strip()
    if not line:
        return ""
    if line.startswith("\\"):
        name, _, arg = line.partition(" ")
        if name == "\\derive":
            return cmd_derive(session)
        if name == "\\constraints":
            return cmd_constraints(session)
        handler = COMMANDS.get(name)
        if handler is None:
            raise ConquerError(f"unknown command {name}")
        return handler(session, arg.strip())
    return run_query(session, line)


def _internal_error(e: Exception) -> str:
    """The report of an error that is not a ConquerError: a fault of the
    engine, not of its input."""
    return f"[internal] {type(e).__name__}: {e}"


def repl(session: Session) -> int:
    while True:
        try:
            line = input("conquer> ")
        except EOFError:
            print()
            return 0
        if line.strip() in ("\\q", "\\quit", "exit"):
            return 0
        try:
            output = execute(session, line)
            if output:
                print(output)
        except ConquerError as e:
            print(str(e))
        except Exception as e:  # keep the REPL alive whatever went wrong
            print(_internal_error(e))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conquer",
        description="Run conceptual queries against an in-memory population.",
    )
    parser.add_argument("--schema", help="schema file (JSON)")
    parser.add_argument("--pop", help="population file (JSON)")
    parser.add_argument("--query", help="run one query and exit")
    parser.add_argument("--format", choices=["table", "csv"], default="table")
    parser.add_argument("--ambiguity", choices=["fail", "list", "pick-first"], default="pick-first")
    args = parser.parse_args(argv)

    session = Session(out_format=args.format, ambiguity=args.ambiguity)
    try:
        if args.schema:
            msg = session.load_schema_file(args.schema)
            if args.query is None:
                print(msg)
        if args.pop:
            msg = session.load_population_file(args.pop)
            if args.query is None:
                print(msg)
    except (ConquerError, OSError, json.JSONDecodeError) as e:
        print(str(e), file=sys.stderr)
        return 1
    except Exception as e:
        print(_internal_error(e), file=sys.stderr)
        return 1

    if args.query is not None:
        try:
            print(run_query(session, args.query))
            return 0
        except AmbiguityError as e:
            print(str(e), file=sys.stderr)
            for alt in e.alternatives:
                print(f"  alternative: {alt}", file=sys.stderr)
            return 2
        except ConquerError as e:
            print(str(e), file=sys.stderr)
            return 1
        except Exception as e:
            print(_internal_error(e), file=sys.stderr)
            return 1

    return repl(session)


if __name__ == "__main__":
    sys.exit(main())
