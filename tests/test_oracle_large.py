"""The engine against the brute-force oracle on larger populations.

The corpus generators of ``test_oracle_corpus`` are reused with value
pools of eight instances per value type and up to twenty instances per
type, so that joins, groups and selections see bags with multiplicities
above one.  Each case also averages a numeric-headed path, so that exact
non-integral fractions are compared too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conquer.errors import TypingError
from conquer.paths import SAgg, Scalar, infer_typing, translate
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


def make_large_case(index: int):
    """A schema, a population and typable expressions: a random path and
    the average over a numeric-headed path."""
    rng = random.Random(7_000_019 * (index + 1))
    schema = gen_schema(rng)
    pop = gen_pop(rng, schema, LARGE_POOLS, max_rows=20)
    exprs = []
    for make in (
        lambda: Gen(rng, schema).path(rng.choice([1, 2, 3])),
        lambda: Scalar(SAgg("avg", Gen(rng, schema).numeric_headed(2))),
    ):
        for _ in range(20):
            expr = make()
            typing = typed(schema, expr)
            if typing is not None:
                exprs.append((expr, typing))
                break
        else:
            raise AssertionError(f"case {index}: could not generate a typable expression")
    return schema, pop, exprs


def test_oracle_equivalence_large_populations():
    mismatches = []
    multiplied = fractional = 0
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
                isinstance(v, Fraction) and v.denominator != 1 for t, _ in rows for _, v in t.items()
            )
    assert not mismatches, f"{len(mismatches)} oracle mismatches, first: {mismatches[:3]}"
    # the corpus must actually exercise repeated rows and exact averages
    assert multiplied > 10
    assert fractional > 10
