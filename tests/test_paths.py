"""Translation goldens: every worked table for the path operators."""

from fractions import Fraction

import pytest

from conquer.errors import TranslateError
from conquer.paths import (
    AttrAtom,
    CSome,
    CScalarComp,
    CondPath,
    Concat,
    Denote,
    DistinctPath,
    Front,
    FuncApp,
    GroupFn,
    MissingPath,
    MixFix,
    Product,
    RelCompare,
    Reverse,
    RoleEntry,
    SAgg,
    SConst,
    SVar,
    Scalar,
    SetCompare,
    SetOp,
    Shuffle,
    SubExpr,
    TypeAtom,
    Where,
    concat,
    role_exit,
)
from conquer.population import load_population
from conquer.schema import load_schema
from conquer.values import TRUE, FactInstance

from .conftest import chain_schema, pair_path, pairs_pop, run_path, triple_path
from .util import rel


@pytest.fixture
def schema():
    return load_schema(chain_schema(2))


def pop_of(schema, **fact_pairs):
    return load_population(schema, pairs_pop(**fact_pairs) | {"Val": []})


class TestLinear:
    def test_type_atom_is_identity(self, schema):
        pop = load_population(schema, {"Val": [1, 2, 3]})
        out = run_path(schema, pop, TypeAtom("V"))
        assert out == rel(["hd", "tl"], (1, 1), (2, 2), (3, 3))

    def test_role_entry(self, schema):
        pop = pop_of(schema, F1=[(1, "a"), (2, "b"), (3, "c")])
        out = run_path(schema, pop, RoleEntry("f1a"))
        facts = [FactInstance({"f1a": h, "f1b": t}) for h, t in [(1, "a"), (2, "b"), (3, "c")]]
        assert out == rel(["hd", "tl"], *[(h, f) for h, f in zip([1, 2, 3], facts)])

    def test_role_exit_swaps(self, schema):
        pop = pop_of(schema, F1=[(1, "a")])
        out = run_path(schema, pop, role_exit("f1a"))
        fact = FactInstance({"f1a": 1, "f1b": "a"})
        assert out == rel(["hd", "tl"], (fact, 1))

    def test_concat_example(self, schema):
        pop = pop_of(schema, F1=[(1, "a"), (2, "b"), (3, "a")], F2=[("a", "k"), ("c", "l"), ("b", "l")])
        out = run_path(schema, pop, Concat(pair_path(1), pair_path(2)))
        assert out == rel(["hd", "tl"], (1, "k"), (2, "l"), (3, "k"))

    def test_reverse_involution(self, schema):
        pop = pop_of(schema, F1=[(1, "a"), (2, "b")])
        p = pair_path(1)
        assert run_path(schema, pop, Reverse(Reverse(p))) == run_path(schema, pop, p)


class TestComplex:
    def test_front_and_distinct(self):
        # table with a named middle column and a duplicated row; the
        # duplicate arises from two distinct ternary facts with equal fronts
        schema = load_schema(
            {
                "types": {"V": "value", "G": "relationship", "F2": "relationship"},
                "roles_of": {"G": ["g1", "g2", "g3"], "F2": ["f2a", "f2b"]},
                "player": {"g1": "V", "g2": "V", "g3": "V", "f2a": "V", "f2b": "V"},
                "idf": {"G": ["g1", "g2", "g3"], "F2": ["f2a", "f2b"]},
                "naming": {"tnm": {"V": "Val", "G": "G", "F2": "F2"}},
            }
        )
        pop = load_population(
            schema,
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
        base = run_path(schema, pop, p)
        assert base == rel(
            ["hd", "x", "tl"], ("a", 1, 2), ("a", 3, 4), ("b", 5, 6), ("a", 3, 4)
        )
        fronted = run_path(schema, pop, Front(p))
        assert fronted == rel(
            ["hd", "x", "tl"], ("a", 1, "a"), ("a", 3, "a"), ("b", 5, "b"), ("a", 3, "a")
        )
        distinct = run_path(schema, pop, DistinctPath(p))
        assert distinct == rel(["hd", "x", "tl"], ("a", 1, 2), ("a", 3, 4), ("b", 5, 6))

    def test_product_example(self, schema):
        pop = pop_of(schema, F1=[(1, 2), (3, 4)], F2=[("a", "c"), ("b", "d")])
        # Q is a triple (5, a, c), (6, b, d): rebuild with explicit facts
        doc = chain_schema(3)
        schema3 = load_schema(doc)
        pop3 = load_population(
            schema3,
            pairs_pop(F1=[(1, 2), (3, 4)], F2=[(5, "a"), (6, "b")], F3=[("a", "c"), ("b", "d")]),
        )
        q = triple_path(2, "x", 3)
        out = run_path(schema3, pop3, Product(pair_path(1), q))
        assert out == rel(
            ["hd", "x", "tl"], (1, "a", 5), (1, "b", 6), (3, "a", 5), (3, "b", 6)
        )

    def test_set_compare_triple(self):
        schema = load_schema(chain_schema(2))
        p_pairs = [("a", 1), ("a", 2), ("b", 1), ("b", 2), ("b", 3), ("b", 4), ("c", 1), ("c", 2), ("c", 3)]
        q_pairs = [(1, "f"), (2, "g"), (3, "h")]
        pop = pop_of(schema, F1=p_pairs, F2=q_pairs)
        p, q = pair_path(1), pair_path(2)

        subset = run_path(schema, pop, SetCompare(p, "all_in", q))
        assert subset == rel(["hd", "tl"], ("a", 1), ("a", 2), ("c", 1), ("c", 2), ("c", 3))

        superset = run_path(schema, pop, SetCompare(p, "includes_all", q))
        assert superset == rel(
            ["hd", "tl"], ("b", 1), ("b", 2), ("b", 3), ("b", 4), ("c", 1), ("c", 2), ("c", 3)
        )

        matching = run_path(schema, pop, SetCompare(p, "match_all", q))
        assert matching == rel(["hd", "tl"], ("c", 1), ("c", 2), ("c", 3))

    def test_missing_vs_concat(self, schema):
        pop = pop_of(schema, F1=[("a", "b"), ("c", "d")], F2=[("b", 3), ("d", 4)])
        p, q = pair_path(1), pair_path(2)
        assert run_path(schema, pop, Concat(p, q)) == rel(["hd", "tl"], ("a", 3), ("c", 4))
        assert run_path(schema, pop, MissingPath(p, q)) == rel(["hd", "tl"], ("a", 4), ("c", 3))

    def test_rel_compare_example(self):
        schema = load_schema(chain_schema(3))
        pop = load_population(
            schema,
            pairs_pop(
                F1=[("a", 100), ("b", 233), ("c", 250), ("d", 130)],
                F2=[(50, 50), (101, 101), (200, 200)],
                F3=[(50, "k"), (101, "l"), (200, "m")],
            ),
        )
        p = pair_path(1)
        q = triple_path(2, "x", 3)
        out = run_path(schema, pop, RelCompare(p, "<", q))
        assert out == rel(["hd", "x", "tl"], ("a", 101, "l"), ("a", 200, "m"), ("d", 200, "m"))

    def test_func_app_example(self):
        schema = load_schema(chain_schema(4))
        pop = load_population(
            schema,
            pairs_pop(
                F1=[(1, "l"), (3, "m")],
                F2=[("l", 2), ("m", 5)],
                F3=[(1, "s"), (4, "t")],
                F4=[("s", 3), ("t", 5)],
            ),
        )
        p = triple_path(1, "x", 2)
        q = triple_path(3, "y", 4)
        out = run_path(schema, pop, FuncApp("+", [p, q]))
        assert out == rel(
            ["hd", "x", "y", "tl"],
            (2, "l", "s", 3),
            (5, "l", "t", 5),
            (4, "m", "s", 3),
            (7, "m", "t", 5),
        )

    def test_where_example(self, schema):
        pop = pop_of(schema, F1=[(1, 3), (6, 9)], F2=[(3, 5), (9, 8)])
        p = triple_path(1, "x", 2)
        cond = CScalarComp(SVar("tl"), ">", SVar("x"))
        out = run_path(schema, pop, Where([(p, cond)]))
        assert out == rel(["hd", "x", "tl"], (1, 3, 5))

    def test_front_ops_vs_plain_ops(self, schema):
        p_pairs = [(1, 2), (2, 3), (2, 4), (1, 8), (3, 4)]
        q_pairs = [(1, 2), (2, 9), (8, 3), (3, 1)]
        pop = pop_of(schema, F1=p_pairs, F2=q_pairs)
        p, q = pair_path(1), pair_path(2)

        assert run_path(schema, pop, SetOp(p, "intersect", q)) == rel(["hd", "tl"], (1, 2))
        assert run_path(schema, pop, SetOp(Front(p), "intersect", Front(q))) == rel(
            ["hd", "tl"], (1, 1), (2, 2), (3, 3)
        )

    def test_front_union_and_diff(self, schema):
        pop = pop_of(schema, F1=[(1, 2), (2, 3)], F2=[(2, 9), (4, 4)])
        p, q = pair_path(1), pair_path(2)
        assert run_path(schema, pop, SetOp(Front(p), "union", Front(q))) == rel(
            ["hd", "tl"], (1, 1), (2, 2), (2, 2), (4, 4)
        )
        assert run_path(schema, pop, SetOp(Front(p), "minus", Front(q))) == rel(["hd", "tl"], (1, 1))

    def test_union_of_plain_pair_paths(self, schema):
        pop = pop_of(schema, F1=[(1, 9)], F2=[(2, 8), (2, 7)])
        out = run_path(schema, pop, SetOp(pair_path(1), "union", pair_path(2)))
        assert out == rel(["hd", "tl"], (1, 9), (2, 8), (2, 7))

    def test_union_coercion_pads_one_sided_attributes(self, schema):
        from conquer.values import NULL

        # left side carries a named column the right side lacks
        pop = pop_of(schema, F1=[(1, 9)], F2=[(9, 5), (2, 8)])
        left = concat(pair_path(1), AttrAtom("x"), pair_path(2))  # (1, x=9, 5)
        right = pair_path(2)  # (9, 5), (2, 8)
        out = run_path(schema, pop, SetOp(left, "union", right))
        assert out.header == ("hd", "tl", "x")
        assert out == rel(
            ["hd", "x", "tl"], (1, 9, 5), (9, NULL, 5), (2, NULL, 8)
        )


class TestScalarEmbedding:
    def test_avg_example(self, schema):
        # heads 1, 2, 8, 8: the duplicate comes from uniting two fact paths
        pop = pop_of(schema, F1=[(1, 9), (2, 10), (8, 12)], F2=[(8, 12)])
        p = SetOp(pair_path(1), "union", pair_path(2))
        out = run_path(schema, pop, Scalar(SAgg("avg", p)))
        assert out == rel(["hd", "tl"], (Fraction(19, 4), Fraction(19, 4)))

    def test_one_plus_avg(self, schema):
        from conquer.paths import SApply

        pop = pop_of(schema, F1=[(1, 9), (2, 10), (8, 12)], F2=[(8, 12)])
        p = SetOp(pair_path(1), "union", pair_path(2))
        expr = Scalar(SApply("+", [SConst(1), SAgg("avg", p)]))
        out = run_path(schema, pop, expr)
        assert out == rel(["hd", "tl"], (Fraction(23, 4), Fraction(23, 4)))

    def test_unbound_variable_path_ranges_over_type(self, schema):
        pop = load_population(schema, {"Val": [1, 2]})
        out = run_path(schema, pop, Concat(TypeAtom("V"), AttrAtom("a")))
        assert out == rel(["hd", "a", "tl"], (1, 1, 1), (2, 2, 2))


class TestConditionsAsPaths:
    def test_some_nonempty_gives_true_row(self, schema):
        pop = pop_of(schema, F1=[(1, 2)])
        out = run_path(schema, pop, CondPath(CSome(pair_path(1))))
        assert out == rel(["hd", "tl"], (TRUE, TRUE))

    def test_some_empty_gives_no_rows(self, schema):
        pop = pop_of(schema, F1=[])
        out = run_path(schema, pop, CondPath(CSome(pair_path(1))))
        assert not out.body


class TestStructuredOps:
    def test_shuffle(self, schema):
        pop = pop_of(schema, F1=[(1, "a"), (2, "b")], F2=[("a", 9), ("b", 8)])
        p = triple_path(1, "x", 2)
        out = run_path(schema, pop, Shuffle(p, ["tl", "x"]))
        assert out.header == ("hd", "tl")
        assert out == rel(["hd", "tl"], (9, "a"), (8, "b"))

    def test_shuffle_needs_two_attrs(self, schema):
        pop = pop_of(schema, F1=[(1, 2)])
        with pytest.raises(TranslateError):
            run_path(schema, pop, Shuffle(pair_path(1), ["x"]))

    def test_sub_expression_filters(self, schema):
        pop = pop_of(schema, F1=[(1, "a"), (2, "b")], F2=[(1, "q")])
        # V filtered by having an F2 pair
        path = concat(TypeAtom("V"), SubExpr([pair_path(2)]), pair_path(1))
        out = run_path(schema, pop, path)
        assert out == rel(["hd", "tl"], (1, "a"))

    def test_mixfix_binary_equals_entry_exit(self, schema):
        pop = pop_of(schema, F1=[(1, "a"), (2, "b")])
        m = MixFix("f1a", (), "f1b")
        assert run_path(schema, pop, m) == run_path(schema, pop, pair_path(1))

    def test_mixfix_middle_filters(self):
        schema = load_schema(
            {
                "types": {"V": "value", "W": "value", "G": "relationship"},
                "roles_of": {"G": ["g1", "g2", "g3"]},
                "player": {"g1": "V", "g2": "W", "g3": "V"},
                "idf": {"G": ["g1", "g2", "g3"]},
                "naming": {"tnm": {"V": "Val", "W": "Wal", "G": "G"}},
            }
        )
        pop = load_population(
            schema,
            {
                "G": [
                    {"g1": 1, "g2": "x", "g3": 5},
                    {"g1": 2, "g2": "y", "g3": 6},
                ]
            },
        )
        from conquer.paths import ByPath

        m = MixFix("g1", (("g2", Denote("W", ByPath(Scalar(SConst("x"))))),), "g3")
        out = run_path(schema, pop, m)
        assert out == rel(["hd", "tl"], (1, 5))

    def test_group_count(self, schema):
        pop = pop_of(schema, F1=[("a", 1), ("a", 2), ("b", 3)])
        p = concat(AttrAtom("g"), pair_path(1))
        out = run_path(schema, pop, GroupFn("count", p, ["g"]))
        assert out == rel(["hd", "tl"], (2, 2), (1, 1))

    def test_group_sum_and_distinct_sum(self, schema):
        # the a-group holds the value 1 twice (through two different facts)
        pop = pop_of(schema, F1=[("a", 1), ("b", 3)], F2=[("a", 1)])
        p = SetOp(concat(pair_path(1), AttrAtom("v")), "union", concat(pair_path(2), AttrAtom("v")))
        out = run_path(schema, pop, GroupFn("sum", p, ["hd"], "v"))
        assert out == rel(["hd", "tl"], (2, 2), (3, 3))
        ds = run_path(schema, pop, GroupFn("dssum", p, ["hd"], "v"))
        assert ds == rel(["hd", "tl"], (1, 1), (3, 3))
