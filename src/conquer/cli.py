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
import sys
from dataclasses import dataclass, replace
from typing import Any

from . import paths as P
from . import relalg as ra
from .errors import AmbiguityError, ConquerError
from .frontend import Token, compile_macro, compile_schema_queries, disambiguate, dump_records, parse_list, tokenize
from .frontend.lower import Interpretation, ParseResult
from .population import Population, denote_instance, load_population
from .schema import PREPARED_CAP, Schema, load_schema, validate_schema
from .values import NULL, Bool, EntityInstance, FactInstance, GroupedBag, format_number, is_number
from .verbalise import VerbCtx, verbalise_interpretation, verbalise_scalar
from .walk import map_children


def load_full_schema(doc: dict | str) -> Schema:
    schema = load_schema(doc)
    return compile_schema_queries(schema)


@dataclass
class Session:
    schema: Schema | None = None
    base_pop: Population | None = None
    derived_pop: Population | None = None
    # the base population and the derivation rules that derived_pop was
    # derived from
    derived_from: tuple | None = None
    out_format: str = "table"
    ambiguity: str = "pick-first"  # fail | list | pick-first

    def load_schema_file(self, path: str) -> str:
        with open(path) as f:
            text = f.read()
        schema = load_full_schema(text)
        diags = validate_schema(schema)
        self.schema = schema
        self.base_pop = None
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
            text = f.read()
        self.base_pop = load_population(schema, text)
        return f"population loaded: {sum(1 for _ in self.base_pop.types())} populated types"

    def population(self) -> Population:
        schema = self.loaded_schema()
        if self.base_pop is None:
            self.base_pop = Population(schema)
        if schema.derivations:
            source = (self.base_pop, schema.derivations)
            if self.derived_pop is None or self.derived_from != source:
                self.derived_pop = P.apply_derivations(schema, self.base_pop)
                self.derived_from = source
            return self.derived_pop
        return self.base_pop


def _cell_text(value: Any, pop: Population) -> str:
    if value is NULL:
        return "NULL"
    if isinstance(value, (EntityInstance, FactInstance)):
        parts = denote_instance(value, pop)
        return ",".join(_cell_text(v, pop) for v in parts)
    if isinstance(value, GroupedBag):
        inner = ", ".join(_cell_text(v, pop) for v in value.bag.elements())
        return "{" + inner + "}"
    if isinstance(value, Bool):
        return "true" if value.value else "false"
    if is_number(value):
        return format_number(value)
    return str(value)


# the most cell texts a population keeps; past it, they are all dropped
TEXTS_CAP = 1 << 14


def _cell_texts(pop: Population):
    """``_cell_text`` for the cells of results on ``pop``, rendering each
    distinct value once for every result on it: the texts are kept in
    ``pop.texts``, which is emptied when it holds ``TEXTS_CAP`` of them.
    Values are told apart by type as well, so ``1``, ``1.0`` and
    ``Fraction(1)`` keep their own texts.  A grouped bag is rendered each
    time: equal grouped bags can list their elements in different
    orders."""
    done = pop.texts

    def text(value: Any) -> str:
        key = (type(value), value)
        out = done.get(key)
        if out is None:
            out = _cell_text(value, pop)
            if key[0] is not GroupedBag:
                if len(done) >= TEXTS_CAP:
                    done.clear()
                done[key] = out
        return out

    return text


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


def _verbalised(schema: Schema, readings) -> list[str]:
    """The text of each reading, for a command that shows them; a reading
    that cannot be verbalised shows the error instead."""
    texts = []
    for interp in readings:
        try:
            texts.append(verbalise_interpretation(schema, interp))
        except ConquerError as e:
            texts.append(f"<{e}>")
    return texts


def _listing(title: str, texts: list[str]) -> str:
    return "\n".join([title] + [f"  {i + 1}. {text}" for i, text in enumerate(texts)])


# ---------------------------------------------------------------------------
# prepared queries
#
# A query text is prepared once per schema: its readings are worked out on
# its first run and kept in ``schema.prepared``, and so, each on first need,
# are their verbalised texts and the chosen reading's stage, its plan and
# output columns.  None of that reads the population, so every later run of
# the text on any population of the schema starts at evaluation.
#
# The readings are worked out once per shape, the text's tokens with each
# string and number literal replaced by a slot, equal literals sharing one:
# ``schema.shapes`` keeps a shape's readings with a ``Param`` in each
# literal's place, and a text of that shape binds its own literals into
# them.  Nothing before translation reads a string's or a number's value,
# so the bound readings are those the text's own parse gives.  Translation
# and the plan stay per text: ``relalg`` merges self-joins by comparing
# constants' values, so a plan over placeholders could differ from the
# text's.
#
# Both tables are ``schema.Kept`` tables of at most ``PREPARED_CAP``
# entries, which drop the entry used least recently past it.
# ``Schema.revise`` empties both on each change of the macros or derivation
# rules, which the readings depend on.  A text or shape whose parse raises
# is not kept; a shape keeps the positions of its text's tokens, so a text
# whose shape's parse raises raises its own error.


def _readings(schema: Schema, text: str | list[Token]) -> ParseResult:
    """The readings of ``text``, or of its tokens, that survive
    disambiguation."""
    return disambiguate(schema, parse_list(text, schema))


def _kept(result: ParseResult) -> tuple:
    """The readings a prepared query keeps: without their record trees,
    and the readings after the first, which are kept for their texts
    alone (these read their paths and variable names), without their
    typing."""
    first, *rest = result.interpretations
    return (replace(first, records=None),) + tuple(replace(i, records=None, typing=None) for i in rest)


@dataclass(frozen=True, eq=False)
class _Stage:
    """What a run of the chosen reading needs besides the population: its
    plan, its order keys, the labels of its output columns and the slot of
    each in the plan's rows.  The columns are the projection's, which the
    plan computes, or HEAD, the named variables and TAIL."""

    plan: ra.Plan
    order: tuple
    labels: list[str]
    slots: list[int]


class Prepared:
    """A query text made ready for every population of one schema: its kept
    readings and, worked out on first need, the readings' verbalised texts
    and the stage of the chosen one, the first."""

    def __init__(self, readings: tuple):
        self.readings = readings
        self._texts: list[str] | None = None
        self._stage: _Stage | None = None

    def texts(self, schema: Schema) -> list[str]:
        if self._texts is None:
            self._texts = _verbalised(schema, self.readings)
        return self._texts

    def chosen(self, schema: Schema, ambiguity: str) -> Interpretation:
        """The reading that runs; several are an error under ``fail``."""
        if len(self.readings) > 1 and ambiguity == "fail":
            raise AmbiguityError("ambiguous query", alternatives=list(self.texts(schema)))
        return self.readings[0]

    def stage(self, schema: Schema) -> _Stage:
        if self._stage is None:
            interp = self.readings[0]
            # the projection's columns are named to sort after every
            # attribute of the path (letters, an @N suffix, and the fresh
            # ~N, ~qN and ~mN), since ordering breaks ties by the rows'
            # cells in header order: a column computed from the path's
            # cells then never decides between rows that they leave tied
            outputs = [(f"~~{i}", e) for i, e in enumerate(interp.projection or ())]
            expr = P.translate(schema, interp.path, interp.typing, outputs=outputs)
            header = expr.header
            if outputs:
                ctx = VerbCtx(schema, interp.typing, interp.vnm)
                labels = [verbalise_scalar(e, ctx) for e in interp.projection]
                columns = [a for a, _ in outputs]
            else:
                named = [a for a in interp.vnm if a not in (P.HD, P.TL) and a in header]
                labels = ["HEAD"] + [interp.vnm[a] for a in named] + ["TAIL"]
                columns = [P.HD] + named + [P.TL]
            slots = [header.index(a) for a in columns]
            self._stage = _Stage(ra.compile_plan(expr, schema), interp.order, labels, slots)
        return self._stage


@dataclass(frozen=True)
class Param:
    """The placeholder of a shape's literal: the slot its value binds."""

    slot: int


def _shape(tokens: list[Token]) -> tuple:
    """The shape of a text's tokens: its key, the value of each slot, and
    the tokens with each string and number literal's value replaced by its
    slot's ``Param``; literals of one type and value share a slot.  A token
    other than a literal is in the key by its text, which tells its kind as
    well."""
    slots: dict = {}
    key = []
    shaped = []
    for t in tokens:
        if t.kind == "string" or t.kind == "number":
            slot = slots.setdefault((type(t.value), t.value), len(slots))
            key.append((t.kind, slot))
            t = replace(t, value=Param(slot))
        else:
            key.append(t.text)
        shaped.append(t)
    return tuple(key), [v for _, v in slots], shaped


def _bind(readings: tuple, values: list) -> tuple:
    """``readings`` with each ``Param`` constant in their paths and
    projections replaced by its slot's value.  A sub-path the readings
    share is bound once, so the bound readings share it too."""
    done: dict = {}

    def bound(p):
        hit = done.get(id(p))
        if hit is None:
            if type(p) is P.SConst and type(p.value) is Param:
                hit = P.SConst(values[p.value.slot])
            else:
                hit = map_children(p, bound, kinds=P.PATH_KINDS)
            done[id(p)] = hit
        return hit

    return tuple(
        replace(r, path=bound(r.path), projection=r.projection and tuple(bound(e) for e in r.projection))
        for r in readings
    )


def _shaped_readings(schema: Schema, text: str) -> tuple:
    """The kept readings of ``text``: its shape's, bound to its literals."""
    key, values, shaped = _shape(tokenize(text))
    readings = schema.shapes.find(key)
    if readings is None:
        readings = schema.shapes.keep(key, _kept(_readings(schema, shaped)))
    return _bind(readings, values) if values else readings


def prepared(schema: Schema, text: str) -> Prepared:
    """The prepared query of ``text``: the one ``schema`` keeps, else a new
    one, kept."""
    entry = schema.prepared.find(text)
    if entry is None:
        entry = schema.prepared.keep(text, Prepared(_shaped_readings(schema, text)))
    return entry


def run_query(session: Session, text: str) -> str:
    """The full pipeline: prepare the text (or take it prepared), then
    evaluate, order, denote and render."""
    schema = session.loaded_schema()
    query = prepared(schema, text)
    if len(query.readings) > 1 and session.ambiguity == "list":
        return _listing("ambiguous query; interpretations:", query.texts(schema))
    query.chosen(schema, session.ambiguity)  # several readings raise under fail
    stage = query.stage(schema)
    pop = session.population()
    relation = ra.evaluate(stage.plan, pop)

    ordered = P.order_result(relation, stage.order) if stage.order else [
        t for t, n in relation.rows() for _ in range(n)
    ]

    cell = _cell_texts(pop)
    rows = [[cell(t[i]) for i in stage.slots] for t in ordered]
    return _render_table(stage.labels, rows, session.out_format)


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
    compile_macro(schema, name.strip(), params, body.strip())
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
    # a prepared query keeps no record tree, so this parse is not kept
    result = _readings(schema, text)
    Prepared(tuple(result.interpretations)).chosen(schema, session.ambiguity)
    records = result.interpretations[0].records
    if records.projection is None and records.order is None:
        records = records.inf  # a bare descriptor: its LIST I adds nothing
    return dump_records(records)


def cmd_dump_path(session: Session, text: str) -> str:
    schema = session.loaded_schema()
    return P.path_text(prepared(schema, text).chosen(schema, session.ambiguity).path)


def cmd_explain(session: Session, text: str) -> str:
    schema = session.loaded_schema()
    query = prepared(schema, text)
    return _listing(f"{len(query.readings)} interpretation(s):", query.texts(schema))


HELP = """\
queries are entered directly; commands:
  \\schema <file>          load a schema document
  \\pop <file>             load a population document
  \\macro Name(a) ::= ...  define a query macro
  \\derive                 apply derivation rules
  \\constraints            check the stored constraints
  \\dump-records <query>   print the record tree of a parse
  \\dump-path <query>      print the chosen reading's path as lowered
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
    except (ConquerError, OSError) as e:
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
