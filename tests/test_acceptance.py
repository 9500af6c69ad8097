"""The acceptance gate: one test per criterion, each printing a pass/fail
line.  Every tolerance is exact; all fixtures are desk scale."""

from __future__ import annotations

import random
from fractions import Fraction


from conquer.bag import Bag, bag_max, bag_min, bag_sum
from conquer.frontend import disambiguate, dump_records, parse
from conquer.paths import (
    AttrAtom,
    CScalarComp,
    Concat,
    CondPath,
    CSome,
    DistinctPath,
    Front,
    FrontIntersect,
    FuncApp,
    HdCoerce,
    MissingPath,
    MixFix,
    PathIntersect,
    PathUnion,
    Product,
    RelCompare,
    RoleEntry,
    SAgg,
    SApply,
    SConst,
    SVar,
    Scalar,
    SetCompare,
    TypeAtom,
    Where,
    apply_derivations,
    canonical,
    check_constraint,
    concat,
    head_tail_combos,
    infer_typing,
    normalise,
    role_exit,
    translate,
)
from conquer.population import load_population
from conquer.relalg import (
    Aggregate,
    Apply,
    Attr,
    Extend,
    Group,
    Literal,
    Project,
    Rename,
    DropAttrs,
    evaluate,
    eval_cond,
    eval_scalar,
    Compare,
    Connect,
    Const,
    Not,
    Select,
)
from conquer.schema import FactRule, load_schema
from conquer.tri import UNKNOWN
from conquer.values import NULL, TRUE, EntityInstance, FactInstance, GroupedBag

from .conftest import (
    SALARY_DUMP,
    SALARY_QUERY,
    chain_schema,
    fig6_doc,
    pair_path,
    pairs_pop,
    run_path,
    salary_doc,
    triple_path,
)
from .oracle import oracle_eval
from .test_oracle_corpus import all_cases
from .test_roundtrip import CASES as RT_CASES, make_case as rt_make_case, rich_doc
from .util import rel, row
from conquer.verbalise import VerbCtx, verbalise


def report(number: int, name: str, ok: bool = True):
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_multiset_laws():
    assert Bag(["a", "b", "a"]).union(Bag(["b", "c", "c"])) == Bag(list("aabbcc"))
    assert Bag(["a", "b", "a"]).intersect(Bag(["b", "b", "a", "c"])) == Bag(["a", "b"])
    assert Bag(list("abbac")).difference(Bag(["a", "b", "b", "b"])) == Bag(["a", "c"])
    assert Bag(list("abcca")).cardinality() == 5
    assert bag_max(Bag([1, 3, 9, 9, 1])) == 9
    assert bag_min(Bag([1, 3, 9, 9, 1])) == 1
    assert bag_sum(Bag([1, 3, 9, 9, 1])) == 23
    assert Bag(list("abcc")).subbag(Bag(list("abbccc")))
    assert not Bag(list("abcc")).subbag(Bag(list("abc")))
    assert Bag(list("aabbb")).to_set() == Bag(list("ab"))

    rng = random.Random(13371)
    for _ in range(1000):
        n = Bag(rng.choices(range(5), k=rng.randrange(8)))
        m = Bag(rng.choices(range(5), k=rng.randrange(8)))
        for e in range(5):
            assert n.union(m).frequency(e) == n.frequency(e) + m.frequency(e)
            assert n.intersect(m).frequency(e) == min(n.frequency(e), m.frequency(e))
            assert n.difference(m).frequency(e) == max(n.frequency(e) - m.frequency(e), 0)
    report(1, "multiset laws and worked examples")


def test_criterion_02_relational_algebra_goldens():
    src = Literal(rel(["x", "y", "z"], (1, 2, "a"), (2, 4, "b")))
    pop = load_population(load_schema({"types": {}}), {})

    project = Project({"a": Apply("+", [Attr("x"), Attr("y")]), "b": Attr("z")}, src)
    assert evaluate(project, pop) == rel(["a", "b"], (3, "a"), (6, "b"))

    extend = Extend({"a": Apply("+", [Attr("x"), Attr("y")]), "z": Apply("-", [Attr("y"), Attr("x")])}, src)
    assert evaluate(extend, pop) == rel(["x", "y", "z", "a"], (1, 2, 1, 3), (2, 4, 2, 6))

    rename = Rename({"a": "x", "b": "y"}, src)
    assert evaluate(rename, pop) == rel(["a", "b", "z"], (1, 2, "a"), (2, 4, "b"))

    drop = DropAttrs({"x"}, src)
    assert evaluate(drop, pop) == rel(["y", "z"], (2, "a"), (4, "b"))

    sums = Project({"a": Aggregate("sum", src, "x"), "b": Apply("+", [Aggregate("sum", src, "x"), Attr("y")])}, src)
    assert evaluate(sums, pop) == rel(["a", "b"], (3, 5), (3, 7))

    grouped = Group({"a"}, Literal(rel(["a", "b"], (1, "a"), (2, "b"), (1, "c"), (2, "b"))))
    out = evaluate(grouped, pop)
    assert out.header == ("a", "b")
    assert out.body == Bag(
        [
            row(a=1, b=GroupedBag(Bag(["a", "c"]))),
            row(a=2, b=GroupedBag(Bag(["b", "b"]))),
        ]
    )
    report(2, "relational algebra goldens")


def test_criterion_03_path_expression_goldens():
    schema = load_schema(chain_schema(4))

    def pop_of(**fact_pairs):
        return load_population(schema, pairs_pop(**fact_pairs))

    # identity table for a type
    pop = load_population(schema, {"Val": [1, 2, 3]})
    assert run_path(schema, pop, TypeAtom("V")) == rel(["hd", "tl"], (1, 1), (2, 2), (3, 3))

    # role entry and exit
    pop = pop_of(F1=[(1, "a"), (2, "b"), (3, "c")])
    facts = [FactInstance({"f1a": h, "f1b": t}) for h, t in [(1, "a"), (2, "b"), (3, "c")]]
    assert run_path(schema, pop, RoleEntry("f1a")) == rel(
        ["hd", "tl"], *[(h, f) for h, f in zip([1, 2, 3], facts)]
    )
    assert run_path(schema, pop, role_exit("f1a")) == rel(
        ["hd", "tl"], *[(f, h) for h, f in zip([1, 2, 3], facts)]
    )

    # concatenation
    pop = pop_of(F1=[(1, "a"), (2, "b"), (3, "a")], F2=[("a", "k"), ("c", "l"), ("b", "l")])
    assert run_path(schema, pop, Concat(pair_path(1), pair_path(2))) == rel(
        ["hd", "tl"], (1, "k"), (2, "l"), (3, "k")
    )

    # fronts and distinct over a table with a duplicate row
    dup_schema = load_schema(
        {
            "types": {"V": "value", "G": "relationship", "F2": "relationship"},
            "roles_of": {"G": ["g1", "g2", "g3"], "F2": ["f2a", "f2b"]},
            "player": {"g1": "V", "g2": "V", "g3": "V", "f2a": "V", "f2b": "V"},
            "idf": {"G": ["g1", "g2", "g3"], "F2": ["f2a", "f2b"]},
            "naming": {"tnm": {"V": "Val", "G": "G", "F2": "F2"}},
        }
    )
    dup_pop = load_population(
        dup_schema,
        {
            "G": [
                {"g1": "a", "g2": 1, "g3": "w"},
                {"g1": "a", "g2": 3, "g3": "w"},
                {"g1": "b", "g2": 5, "g3": "w"},
                {"g1": "a", "g2": 3, "g3": "u"},
            ],
            "F2": [{"f2a": 1, "f2b": 2}, {"f2a": 3, "f2b": 4}, {"f2a": 5, "f2b": 6}],
        },
    )
    hop = Concat(RoleEntry("g1"), role_exit("g2"))
    p = concat(hop, AttrAtom("x"), Concat(RoleEntry("f2a"), role_exit("f2b")))
    assert run_path(dup_schema, dup_pop, Front(p)) == rel(
        ["hd", "x", "tl"], ("a", 1, "a"), ("a", 3, "a"), ("b", 5, "b"), ("a", 3, "a")
    )
    assert run_path(dup_schema, dup_pop, DistinctPath(p)) == rel(
        ["hd", "x", "tl"], ("a", 1, 2), ("a", 3, 4), ("b", 5, 6)
    )

    # product
    pop = pop_of(F1=[(1, 2), (3, 4)], F2=[(5, "a"), (6, "b")], F3=[("a", "c"), ("b", "d")])
    assert run_path(schema, pop, Product(pair_path(1), triple_path(2, "x", 3))) == rel(
        ["hd", "x", "tl"], (1, "a", 5), (1, "b", 6), (3, "a", 5), (3, "b", 6)
    )

    # the subset / superset / matching triple
    pop = pop_of(
        F1=[("a", 1), ("a", 2), ("b", 1), ("b", 2), ("b", 3), ("b", 4), ("c", 1), ("c", 2), ("c", 3)],
        F2=[(1, "f"), (2, "g"), (3, "h")],
    )
    p1, p2 = pair_path(1), pair_path(2)
    assert run_path(schema, pop, SetCompare(p1, "all_in", p2)) == rel(
        ["hd", "tl"], ("a", 1), ("a", 2), ("c", 1), ("c", 2), ("c", 3)
    )
    assert run_path(schema, pop, SetCompare(p1, "includes_all", p2)) == rel(
        ["hd", "tl"], ("b", 1), ("b", 2), ("b", 3), ("b", 4), ("c", 1), ("c", 2), ("c", 3)
    )
    assert run_path(schema, pop, SetCompare(p1, "match_all", p2)) == rel(
        ["hd", "tl"], ("c", 1), ("c", 2), ("c", 3)
    )

    # missing versus concatenation
    pop = pop_of(F1=[("a", "b"), ("c", "d")], F2=[("b", 3), ("d", 4)])
    assert run_path(schema, pop, Concat(p1, p2)) == rel(["hd", "tl"], ("a", 3), ("c", 4))
    assert run_path(schema, pop, MissingPath(p1, p2)) == rel(["hd", "tl"], ("a", 4), ("c", 3))

    # binary comparison
    pop = pop_of(
        F1=[("a", 100), ("b", 233), ("c", 250), ("d", 130)],
        F2=[(50, 50), (101, 101), (200, 200)],
        F3=[(50, "k"), (101, "l"), (200, "m")],
    )
    assert run_path(schema, pop, RelCompare(pair_path(1), "<", triple_path(2, "x", 3))) == rel(
        ["hd", "x", "tl"], ("a", 101, "l"), ("a", 200, "m"), ("d", 200, "m")
    )

    # function application over paths
    pop = pop_of(
        F1=[(1, "l"), (3, "m")], F2=[("l", 2), ("m", 5)], F3=[(1, "s"), (4, "t")], F4=[("s", 3), ("t", 5)]
    )
    assert run_path(
        schema, pop, FuncApp("+", [triple_path(1, "x", 2), triple_path(3, "y", 4)])
    ) == rel(
        ["hd", "x", "y", "tl"], (2, "l", "s", 3), (5, "l", "t", 5), (4, "m", "s", 3), (7, "m", "t", 5)
    )

    # selection
    pop = pop_of(F1=[(1, 3), (6, 9)], F2=[(3, 5), (9, 8)])
    where = Where([(triple_path(1, "x", 2), CScalarComp(SVar("tl"), ">", SVar("x")))])
    assert run_path(schema, pop, where) == rel(["hd", "x", "tl"], (1, 3, 5))

    # fused front operators versus the plain set operators
    pop = pop_of(F1=[(1, 2), (2, 3), (2, 4), (1, 8), (3, 4)], F2=[(1, 2), (2, 9), (8, 3), (3, 1)])
    assert run_path(schema, pop, PathIntersect(p1, p2)) == rel(["hd", "tl"], (1, 2))
    assert run_path(schema, pop, FrontIntersect(p1, p2)) == rel(
        ["hd", "tl"], (1, 1), (2, 2), (3, 3)
    )

    # conditions as paths
    pop = pop_of(F1=[(1, 2)])
    assert run_path(schema, pop, CondPath(CSome(pair_path(1)))) == rel(["hd", "tl"], (TRUE, TRUE))

    # the exact average: heads 1, 2, 8, 8 give 19/4
    pop = pop_of(F1=[(1, 9), (2, 10), (8, 12)], F2=[(8, 12)])
    union = PathUnion(pair_path(1), pair_path(2))
    assert run_path(schema, pop, Scalar(SAgg("avg", union))) == rel(
        ["hd", "tl"], (Fraction(19, 4), Fraction(19, 4))
    )
    assert run_path(schema, pop, Scalar(SApply("+", [SConst(1), SAgg("avg", union)]))) == rel(
        ["hd", "tl"], (Fraction(23, 4), Fraction(23, 4))
    )
    report(3, "path expression goldens")


def test_criterion_04_oracle_equivalence():
    mismatches = 0
    total = 0
    for i, schema, pop, expr, typing in all_cases():
        total += 1
        engine = evaluate(translate(schema, expr, typing), pop)
        header, body = oracle_eval(schema, pop, typing, expr)
        if engine.header != header or engine.body != body:
            mismatches += 1
    assert total >= 500
    report(4, f"oracle equivalence on {total} random expressions", mismatches == 0)


def test_criterion_05_head_tail_soundness():
    counterexamples = 0
    empties = 0
    for i, schema, pop, expr, typing in all_cases():
        if head_tail_combos(schema, expr, typing):
            continue
        empties += 1
        if evaluate(translate(schema, expr, typing), pop).body:
            counterexamples += 1
    assert empties > 0
    report(5, f"head/tail soundness ({empties} structurally empty cases)", counterexamples == 0)


def test_criterion_06_normalisation():
    mismatches = 0
    for i, schema, pop, expr, typing in all_cases():
        before = evaluate(translate(schema, expr, typing), pop)
        norm = normalise(schema, expr)
        after = evaluate(translate(schema, norm, infer_typing(schema, norm)), pop)
        if before.body != after.body or (before.body and before.header != after.header):
            mismatches += 1
    # the subtype between the roles is kept: dropping it would change results
    sub_schema = load_schema(
        {
            "types": {"V": "value", "F": "relationship", "FSub": "relationship"},
            "specialises": {"FSub": "F"},
            "roles_of": {"F": ["p", "q"]},
            "player": {"p": "V", "q": "V"},
            "idf": {"F": ["p", "q"]},
            "naming": {"tnm": {"V": "Val", "F": "F", "FSub": "FSub"}},
        }
    )
    caveat = concat(RoleEntry("p"), TypeAtom("FSub"), role_exit("q"))
    assert normalise(sub_schema, caveat) == caveat
    fused = concat(RoleEntry("p"), TypeAtom("F"), role_exit("q"))
    assert normalise(sub_schema, fused) == MixFix("p", (), "q")
    report(6, "normalisation preserves evaluation", mismatches == 0)


def test_criterion_07_parser_golden():
    schema = load_schema(salary_doc())
    result = disambiguate(schema, parse(SALARY_QUERY, schema))
    assert len(result.interpretations) == 1
    interp = result.interpretations[0]
    assert dump_records(interp.records) == SALARY_DUMP

    left = concat(TypeAtom("x"), MixFix("p1", (), "p2"), TypeAtom("y"), AttrAtom("x"))
    right = concat(MixFix("q1", (), "q2"), TypeAtom("z"), AttrAtom("c"))
    inner = concat(
        TypeAtom("y"), MixFix("p2", (), "p1"), TypeAtom("x"), MixFix("q1", (), "q2"), AttrAtom("c")
    )
    cond = CScalarComp(SVar("x"), ">", SAgg("avg", HdCoerce(inner)))
    expected = Where(((FrontIntersect(left, right), cond),), None, True)
    assert canonical(interp.path) == canonical(expected)
    report(7, "record dump and lowering golden")


def test_criterion_08_verbalisation_stages():
    path = concat(TypeAtom("A"), RoleEntry("p"), TypeAtom("F"), role_exit("q"), TypeAtom("B"))

    bare = load_schema(fig6_doc("bare"))
    ctx = VerbCtx(bare, infer_typing(bare, path), {})
    assert verbalise(path, ctx) == "President has Election-result has as Result"

    prepost = load_schema(fig6_doc("prepost"))
    ctx = VerbCtx(prepost, infer_typing(prepost, path), {})
    assert verbalise(path, ctx) == "some President who has some Election-result that has as some Result"

    mixfix = load_schema(fig6_doc("mixfix"))
    norm = normalise(mixfix, path)
    ctx = VerbCtx(mixfix, infer_typing(mixfix, norm), {})
    assert (
        verbalise(norm, ctx)
        == "some President who has participated in an election leading in some Result"
    )
    report(8, "verbalisation refinement stages")


def test_criterion_09_round_trip():
    schema = load_schema(rich_doc())
    failures = 0
    for i in range(RT_CASES):
        p, typing, vnm = rt_make_case(schema, i)
        text = verbalise(p, VerbCtx(schema, typing, vnm))
        try:
            result = parse(text, schema)
        except Exception:
            failures += 1
            continue
        if canonical(p) not in {canonical(x.path) for x in result.interpretations}:
            failures += 1
    report(9, f"round trip inclusion on {RT_CASES} expressions", failures == 0)


def test_criterion_10_derivations_and_constraints():
    schema = load_schema(
        {
            "types": {
                "Product": "entity",
                "PCode": "value",
                "MoneyAmt": "value",
                "ExTax": "relationship",
                "Taxed": "relationship",
                "PC": "relationship",
            },
            "roles_of": {"ExTax": ["x1", "x2"], "Taxed": ["t1", "t2"], "PC": ["pc1", "pc2"]},
            "player": {
                "x1": "Product", "x2": "MoneyAmt", "t1": "Product", "t2": "MoneyAmt",
                "pc1": "Product", "pc2": "PCode",
            },
            "idf": {
                "Product": [["pc1", "pc2"]], "ExTax": ["x1", "x2"], "Taxed": ["t1", "t2"],
                "PC": ["pc1", "pc2"],
            },
            "naming": {"tnm": {"Product": "Product", "MoneyAmt": "MoneyAmt"}},
        }
    )
    ex_tax_of = concat(RoleEntry("x2"), role_exit("x1"), TypeAtom("Product"), AttrAtom("p"))
    scaled = FuncApp("*", [Scalar(SConst(Fraction(3, 2))), ex_tax_of])
    body = RelCompare(Concat(TypeAtom("MoneyAmt"), AttrAtom("a")), "=", scaled)
    schema.derivations.append(FactRule("Taxed", (("t1", "p"), ("t2", "a")), body))

    prices = {"p1": 10, "p2": 30, "p3": 7, "p4": 100, "p5": 1}
    pop = load_population(
        schema,
        {
            "Product": sorted(prices),
            "MoneyAmt": sorted(set(prices.values()) | {v * Fraction(3, 2) for v in prices.values()}),
            "ExTax": [{"x1": p, "x2": v} for p, v in sorted(prices.items())],
        },
    )
    derived = apply_derivations(schema, pop)
    expected = Bag(
        [
            FactInstance({"t1": EntityInstance("Product", (p,)), "t2": v * Fraction(3, 2)})
            for p, v in prices.items()
        ]
    )
    assert derived.instances("Taxed") == expected

    # constraints: non-emptiness of the condition result
    constraint = CondPath(CSome(TypeAtom("Product")))
    empty_pop = load_population(schema, {})
    assert check_constraint(schema, constraint, empty_pop) is False
    assert check_constraint(schema, constraint, pop) is True
    report(10, "derivation rules and constraints")


def test_criterion_11_null_policy():
    pop = load_population(load_schema({"types": {}}), {})
    t = {}
    n = Const(NULL)
    cases = []

    def check(idx, actual, expect):
        cases.append((idx, actual == expect or actual is expect))
        assert actual is expect or actual == expect, f"case {idx}: {actual!r} != {expect!r}"

    # three-valued conditions
    check(1, eval_cond(Compare(n, "=", n), pop, t), UNKNOWN)
    check(2, eval_cond(Compare(n, "<>", n), pop, t), UNKNOWN)
    check(3, eval_cond(Compare(n, "<", Const(2)), pop, t), UNKNOWN)
    check(4, eval_cond(Compare(Const(2), ">=", n), pop, t), UNKNOWN)
    check(5, eval_cond(Compare(Const(1), "=", Const(1)), pop, t), True)
    check(6, eval_cond(Compare(Const(1), "=", Const(2)), pop, t), False)
    unknown = Compare(n, "=", n)
    true = Compare(Const(1), "=", Const(1))
    false = Compare(Const(1), "=", Const(2))
    check(7, eval_cond(Connect(unknown, "and", false), pop, t), False)
    check(8, eval_cond(Connect(unknown, "and", true), pop, t), UNKNOWN)
    check(9, eval_cond(Connect(unknown, "or", true), pop, t), True)
    check(10, eval_cond(Connect(unknown, "or", false), pop, t), UNKNOWN)
    check(11, eval_cond(Not(unknown), pop, t), UNKNOWN)
    check(12, eval_cond(Connect(unknown, "xor", true), pop, t), UNKNOWN)
    check(13, eval_cond(Connect(false, "implies", unknown), pop, t), True)
    check(14, eval_cond(Connect(unknown, "implies", false), pop, t), UNKNOWN)

    # selection excludes unknown
    src = Literal(rel(["a"], (1,), (NULL,), (3,)))
    kept = evaluate(Select(Compare(Attr("a"), ">", Const(0)), src), pop)
    check(15, kept == rel(["a"], (1,), (3,)), True)

    # aggregates skip NULLs; counting counts every tuple
    check(16, eval_scalar(Aggregate("sum", src, "a"), pop, t), 4)
    check(17, eval_scalar(Aggregate("min", src, "a"), pop, t), 1)
    check(18, eval_scalar(Aggregate("avg", src, "a"), pop, t), Fraction(2))
    check(19, eval_scalar(Aggregate("count", src), pop, t), 3)
    check(20, eval_scalar(Aggregate("max", Literal(rel(["a"], (NULL,))), "a"), pop, t), NULL)

    assert len(cases) == 20 and all(ok for _, ok in cases)
    report(11, "NULL policy conformance (20 cases)")
