"""The engine against the brute-force oracle on larger populations.

The corpus generators of ``test_oracle_corpus`` are reused with value
pools of eight instances per value type and up to twenty instances per
type, so that joins, groups and selections see bags with multiplicities
above one.  Each case also averages a numeric-headed path, so that exact
non-integral fractions are compared too, and filters a variable template
by comparing its variable with an aggregate over a path that ends in the
same variable: a subquery that depends on the outer row.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conquer.errors import TypingError
from conquer.paths import (
    AttrAtom,
    CScalarComp,
    RoleEntry,
    SAgg,
    Scalar,
    SVar,
    TypeAtom,
    Where,
    concat,
    infer_typing,
    role_exit,
    translate,
)
from conquer.relalg import evaluate

from .oracle import oracle_eval
from .test_oracle_corpus import Gen, gen_pop, gen_schema

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
