"""Shared helpers for building schemas, populations and relations in tests."""

from __future__ import annotations

import signal
from contextlib import contextmanager

from conquer.bag import Bag
from conquer.population import Population, load_population
from conquer.relalg import Relation
from conquer.schema import Schema, load_schema


def row(**values) -> tuple:
    """A row written by attribute name: its values in sorted-name order."""
    return tuple(values[a] for a in sorted(values))


def rel(header: list[str], *rows) -> Relation:
    """Build a relation from row tuples given in header order."""
    return Relation(tuple(sorted(header)), Bag(row(**dict(zip(header, r))) for r in rows))


def rows_of(relation: Relation) -> Bag:
    return relation.body


def make_schema(doc: dict) -> Schema:
    return load_schema(doc)


def make_population(schema: Schema, doc: dict) -> Population:
    return load_population(schema, doc)


def empty_pop(schema: Schema | None = None) -> Population:
    if schema is None:
        schema = load_schema({"types": {}})
    return Population(schema)


@contextmanager
def time_limit(seconds: int):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``
    seconds, so that a test of a loop that might not end fails instead."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
