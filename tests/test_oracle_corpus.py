"""Randomised cross-checks of the translation pipeline.

Each case builds a small random schema and population, generates a path
expression, and compares the engine (translate, then evaluate) against the
independent brute-force oracle.  The same corpus also checks that an empty
head/tail analysis implies an empty evaluation, and that normalisation
preserves evaluation.

Populations honour type relatedness: unrelated value types draw their
instances from disjoint pools, since related types are exactly the ones
that may share instances.
"""

from __future__ import annotations

import random



from conquer.errors import TypingError
from conquer.paths import (
    AttrAtom,
    CBagComp,
    CLogic,
    CNot,
    CSome,
    CScalarComp,
    Concat,
    CondPath,
    DistinctPath,
    Front,
    FrontDiff,
    FrontIntersect,
    FrontUnion,
    FuncApp,
    GroupFn,
    MissingPath,
    PathDiff,
    PathIntersect,
    PathUnion,
    Product,
    RelCompare,
    Reverse,
    RoleEntry,
    SAgg,
    SConst,
    SVar,
    Scalar,
    SetCompare,
    Shuffle,
    SubExpr,
    TypeAtom,
    Where,
    concat,
    head_tail_combos,
    infer_typing,
    normalise,
    role_exit,
    translate,
)
from conquer.population import load_population
from conquer.relalg import evaluate
from conquer.schema import load_schema

from .oracle import oracle_eval

CASES = 520
ROUNDTRIP_SEED = 987_001


def gen_schema(rng: random.Random):
    """Two unrelated value types and one or two binary fact types."""
    n_facts = rng.choice([1, 2, 2])
    doc = {
        "types": {"VA": "value", "VB": "value"},
        "player": {},
        "roles_of": {},
        "idf": {},
        "naming": {"tnm": {"VA": "Alpha", "VB": "Beta"}},
    }
    for i in range(1, n_facts + 1):
        f = f"F{i}"
        doc["types"][f] = "relationship"
        doc["roles_of"][f] = [f"r{i}a", f"r{i}b"]
        doc["player"][f"r{i}a"] = rng.choice(["VA", "VB"])
        doc["player"][f"r{i}b"] = rng.choice(["VA", "VB"])
        doc["idf"][f] = [f"r{i}a", f"r{i}b"]
        doc["naming"]["tnm"][f] = f
    return load_schema(doc)


# disjoint pools: related types may share instances, unrelated ones never do
POOLS = {"VA": [0, 1, 2, 3], "VB": [10, 11, 12, 13]}


def gen_pop(rng: random.Random, schema, pools=POOLS, max_rows: int = 4):
    """Up to ``max_rows`` instances per type, drawn from ``pools``."""
    doc: dict = {}
    for v in ("VA", "VB"):
        k = rng.randrange(0, min(max_rows, len(pools[v])) + 1)
        doc[schema.naming.tnm[v]] = rng.sample(pools[v], k)
    for f, (ra, rb) in ((f, schema.roles_of[f]) for f in schema.roles_of):
        pa = pools[schema.player(ra)]
        pb = pools[schema.player(rb)]
        combos = [(a, b) for a in pa for b in pb]
        rng.shuffle(combos)
        doc[f] = [{ra: a, rb: b} for a, b in combos[: rng.randrange(0, max_rows + 1)]]
    return load_population(schema, doc)


class Gen:
    def __init__(self, rng: random.Random, schema):
        self.rng = rng
        self.schema = schema
        self.roles = sorted(schema.roles)
        self.vars = 0

    def atom(self):
        kind = self.rng.choice(["type", "type", "entry", "exit"])
        if kind == "type":
            return TypeAtom(self.rng.choice(["VA", "VB"]))
        rid = self.rng.choice(self.roles)
        return RoleEntry(rid) if kind == "entry" else role_exit(rid)

    def numeric_headed(self, depth: int):
        """A path whose heads are always plain numbers."""
        v = TypeAtom(self.rng.choice(["VA", "VB"]))
        if depth <= 0 or self.rng.random() < 0.4:
            return v
        return Concat(v, self.path(depth - 1, allow_vars=False))

    def cond(self, depth: int):
        kind = self.rng.choice(["some", "some", "bag", "count", "not", "logic"])
        if kind == "some" or depth <= 0:
            return CSome(self.path(max(depth - 1, 0), allow_vars=False))
        if kind == "bag":
            op = self.rng.choice(["sub", "subeq", "=", "<>", "supeq", "sup"])
            return CBagComp(
                self.path(depth - 1, allow_vars=False),
                op,
                self.path(depth - 1, allow_vars=False),
            )
        if kind == "count":
            op = self.rng.choice(["<", "<=", "=", "<>", ">=", ">"])
            return CScalarComp(
                SAgg("count", self.path(depth - 1, allow_vars=False)),
                op,
                SConst(self.rng.randrange(0, 4)),
            )
        if kind == "not":
            return CNot(self.cond(depth - 1))
        op = self.rng.choice(["and", "or", "xor", "implies", "iff"])
        return CLogic(self.cond(depth - 1), op, self.cond(depth - 1))

    def var_template(self, depth: int):
        """A chain with one or two typed variables, wrapped in an operation
        that uses them."""
        rng = self.rng
        self.vars += 1
        x = f"x{self.vars}"
        v = rng.choice(["VA", "VB"])
        rid = None
        for r in self.roles:
            if self.schema.player(r) == v:
                rid = r
                break
        if rid is None:
            return self.path(depth, allow_vars=False)
        base = concat(TypeAtom(v), AttrAtom(x), RoleEntry(rid), role_exit(rid))
        choice = rng.choice(["where", "group", "shuffle", "plain"])
        if choice == "where":
            op = rng.choice(["<", "<=", "=", "<>", ">=", ">"])
            bound = rng.choice(POOLS[v])
            return Where([(base, CScalarComp(SVar(x), op, SConst(bound)))])
        if choice == "group":
            return GroupFn(rng.choice(["count", "dscount"]), base, [x])
        if choice == "shuffle":
            self.vars += 1
            y = f"x{self.vars}"
            chain = concat(TypeAtom(v), AttrAtom(x), RoleEntry(rid), role_exit(rid), AttrAtom(y))
            return Shuffle(chain, [y, x])
        return base

    def path(self, depth: int, allow_vars: bool = True):
        rng = self.rng
        if depth <= 0:
            return self.atom()
        if allow_vars and rng.random() < 0.18:
            return self.var_template(depth)
        kind = rng.choice(
            [
                "concat", "concat", "reverse", "front", "distinct", "product",
                "union", "intersect", "diff", "frunion", "frintersect", "frdiff",
                "setcmp", "missing", "relcmp", "where", "group", "subexpr",
                "scalar", "funcapp", "condpath",
            ]
        )
        sub = lambda: self.path(depth - 1, allow_vars=allow_vars)
        if kind == "concat":
            return Concat(sub(), sub())
        if kind == "reverse":
            return Reverse(sub())
        if kind == "front":
            return Front(sub())
        if kind == "distinct":
            return DistinctPath(sub())
        if kind == "product":
            return Product(sub(), sub())
        if kind == "union":
            return PathUnion(sub(), sub())
        if kind == "intersect":
            return PathIntersect(sub(), sub())
        if kind == "diff":
            return PathDiff(sub(), sub())
        if kind == "frunion":
            return FrontUnion(sub(), sub())
        if kind == "frintersect":
            return FrontIntersect(sub(), sub())
        if kind == "frdiff":
            return FrontDiff(sub(), sub())
        if kind == "setcmp":
            op = rng.choice(["all_in", "includes_all", "match_all"])
            return SetCompare(sub(), op, sub())
        if kind == "missing":
            return MissingPath(sub(), sub())
        if kind == "relcmp":
            op = rng.choice(["<", "<=", "=", "<>", ">=", ">"])
            if op in ("=", "<>"):
                return RelCompare(sub(), op, sub())
            # order comparisons need value operand ends
            return RelCompare(Front(self.numeric_headed(depth - 1)), op, self.numeric_headed(depth - 1))
        if kind == "where":
            return Where([(self.path(depth - 1, allow_vars=False), self.cond(depth - 1))])
        if kind == "group":
            return GroupFn(rng.choice(["count", "dscount"]), sub(), ["hd"])
        if kind == "subexpr":
            items = [self.path(depth - 1, allow_vars=False) for _ in range(rng.choice([1, 2]))]
            return SubExpr(items)
        if kind == "scalar":
            agg = rng.choice(["count", "sum", "min", "max", "avg"])
            operand = self.numeric_headed(depth - 1) if agg != "count" else sub()
            return Scalar(SAgg(agg, operand))
        if kind == "funcapp":
            op = rng.choice(["+", "-", "*"])
            return FuncApp(op, [self.numeric_headed(depth - 1), self.numeric_headed(depth - 1)])
        return CondPath(self.cond(depth - 1))


def make_case(index: int):
    rng = random.Random(1_000_003 * (index + 1))
    schema = gen_schema(rng)
    pop = gen_pop(rng, schema)
    for _ in range(20):
        expr = Gen(rng, schema).path(rng.choice([1, 2, 3, 4]))
        try:
            typing = infer_typing(schema, expr)
        except TypingError:
            continue
        return schema, pop, expr, typing
    raise AssertionError(f"case {index}: could not generate a typable expression")


def all_cases():
    for i in range(CASES):
        yield (i,) + make_case(i)


def test_oracle_equivalence_bulk():
    mismatches = []
    for i, schema, pop, expr, typing in all_cases():
        engine = evaluate(translate(schema, expr, typing), pop)
        header, body = oracle_eval(schema, pop, typing, expr)
        if engine.header != header or engine.body != body:
            mismatches.append((i, expr))
    assert not mismatches, f"{len(mismatches)} oracle mismatches, first: {mismatches[:3]}"


def test_head_tail_soundness_bulk():
    counterexamples = []
    structurally_empty = 0
    for i, schema, pop, expr, typing in all_cases():
        combos = head_tail_combos(schema, expr, typing)
        if combos:
            continue
        structurally_empty += 1
        engine = evaluate(translate(schema, expr, typing), pop)
        if engine.body:
            counterexamples.append((i, expr))
    assert not counterexamples, f"unsound head/tail analysis: {counterexamples[:3]}"
    # the corpus must actually exercise the empty case
    assert structurally_empty > 10


def test_normalisation_preserves_evaluation_bulk():
    mismatches = []
    for i, schema, pop, expr, typing in all_cases():
        before = evaluate(translate(schema, expr, typing), pop)
        norm = normalise(schema, expr)
        typing2 = infer_typing(schema, norm)
        after = evaluate(translate(schema, norm, typing2), pop)
        if before.body != after.body or (before.body and before.header != after.header):
            mismatches.append((i, expr, norm))
    assert not mismatches, f"normalisation changed results: {mismatches[:3]}"
