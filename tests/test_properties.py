"""Cross-cutting invariants stated for the engine."""

import random

from conquer.frontend import parse
from conquer.paths import Concat, Front, DistinctPath, canonical
from conquer.relalg import (
    Attr,
    Compare,
    Connect,
    Const,
    Literal,
    Not,
    eval_cond,
    evaluate,
)
from conquer.schema import load_schema
from conquer.tri import UNKNOWN

from .conftest import chain_schema, pair_path, pairs_pop, run_path, salary_doc
from .util import empty_pop, rel


def test_cond_without_nulls_is_never_unknown():
    pop = empty_pop()
    rng = random.Random(5150)
    table = Literal(rel(["a", "b"], (1, 2), (3, 1), (2, 2)))

    def gen_cond(depth):
        if depth == 0:
            op = rng.choice(["<", "<=", "=", "<>", ">=", ">"])
            lhs = rng.choice([Const(rng.randrange(4)), Attr("a"), Attr("b")])
            rhs = rng.choice([Const(rng.randrange(4)), Attr("a"), Attr("b")])
            return Compare(lhs, op, rhs)
        if rng.random() < 0.3:
            return Not(gen_cond(depth - 1))
        conn = rng.choice(["and", "or", "xor", "implies"])
        return Connect(gen_cond(depth - 1), conn, gen_cond(depth - 1))

    for _ in range(300):
        cond = gen_cond(rng.randrange(0, 3))
        out = evaluate(table, pop)
        for row, _ in out.rows():
            assert eval_cond(cond, pop, dict(zip(out.header, row))) is not UNKNOWN


def test_eval_tuple_domains_match_header():
    schema = load_schema(chain_schema(2))
    from conquer.population import load_population

    pop = load_population(schema, pairs_pop(F1=[(1, 2), (2, 3)], F2=[(2, 5)]))
    out = run_path(schema, pop, Concat(pair_path(1), pair_path(2)))
    # each row has one value per header name, and the header is sorted
    assert out.header == tuple(sorted(set(out.header)))
    for t, _ in out.rows():
        assert type(t) is tuple and len(t) == len(out.header)


def test_concat_associativity_under_evaluation():
    schema = load_schema(chain_schema(3))
    from conquer.population import load_population

    pop = load_population(
        schema, pairs_pop(F1=[(1, 2), (4, 2)], F2=[(2, 3), (2, 7)], F3=[(3, 9), (7, 9)])
    )
    p, q, r = pair_path(1), pair_path(2), pair_path(3)
    left = run_path(schema, pop, Concat(Concat(p, q), r))
    right = run_path(schema, pop, Concat(p, Concat(q, r)))
    assert left == right


def test_front_and_distinct_idempotent_under_evaluation():
    schema = load_schema(chain_schema(1))
    from conquer.population import load_population

    pop = load_population(schema, pairs_pop(F1=[(1, 2), (1, 3), (4, 4)]))
    p = pair_path(1)
    assert run_path(schema, pop, Front(Front(p))) == run_path(schema, pop, Front(p))
    assert (
        run_path(schema, pop, DistinctPath(DistinctPath(p)))
        == run_path(schema, pop, DistinctPath(p))
    )


def test_parse_is_deterministic():
    schema = load_schema(salary_doc())
    text = "a Person who earns a Salary x AND ALSO works for a Company c"
    first = parse(text, schema)
    second = parse(text, schema)
    a = [canonical(i.path) for i in first.interpretations]
    b = [canonical(i.path) for i in second.interpretations]
    assert a == b
