from fractions import Fraction

import pytest

from conquer.bag import Bag
from conquer.errors import EvalError
from conquer.population import Population
from conquer.relalg import (
    Apply,
    Attr,
    AttrRole,
    Avg,
    BagCompare,
    Compare,
    Connect,
    Const,
    Count,
    Diff,
    Distinct,
    DropAttrs,
    EMPTY_TUP,
    Extend,
    Group,
    Intersect,
    Join,
    LeftJoin,
    Literal,
    Max,
    Member,
    Min,
    Not,
    Project,
    Rename,
    ScalarTable,
    Select,
    Sum,
    Tup,
    TypeTable,
    Union,
    def_map,
    eval_cond,
    eval_scalar,
    eval_scalars,
    evaluate,
    sch,
)
from conquer.tri import UNKNOWN
from conquer.values import NULL, FactInstance, GroupedBag

from .util import empty_pop, make_population, make_schema, rel


def lit(header, *rows):
    return Literal(rel(header, *rows))


@pytest.fixture
def pop():
    return empty_pop()


@pytest.fixture
def example_p():
    # the running projection example: two rows over x, y, z
    return lit(["x", "y", "z"], (1, 2, "a"), (2, 4, "b"))


class TestProjectionFamily:
    def test_project_example(self, pop, example_p):
        e = Project({"a": Apply("+", [Attr("x"), Attr("y")]), "b": Attr("z")}, example_p)
        assert sch(e) == frozenset({"a", "b"})
        assert evaluate(e, pop).body == rel(["a", "b"], (3, "a"), (6, "b")).body

    def test_extend_example(self, pop, example_p):
        e = Extend(
            {"a": Apply("+", [Attr("x"), Attr("y")]), "z": Apply("-", [Attr("y"), Attr("x")])},
            example_p,
        )
        expected = rel(["x", "y", "z", "a"], (1, 2, 1, 3), (2, 4, 2, 6))
        assert evaluate(e, pop).body == expected.body

    def test_rename_example(self, pop, example_p):
        e = Rename({"a": "x", "b": "y"}, example_p)
        assert sch(e) == frozenset({"a", "b", "z"})
        expected = rel(["a", "b", "z"], (1, 2, "a"), (2, 4, "b"))
        assert evaluate(e, pop).body == expected.body

    def test_rename_swap(self, pop):
        e = Rename({"a": "b", "b": "a"}, lit(["a", "b"], (1, 2)))
        assert evaluate(e, pop).body == rel(["a", "b"], (2, 1)).body

    def test_drop_example(self, pop, example_p):
        e = DropAttrs({"x"}, example_p)
        expected = rel(["y", "z"], (2, "a"), (4, "b"))
        assert evaluate(e, pop).body == expected.body

    def test_project_identity_defmap(self, pop, example_p):
        e = Project(def_map(["x", "y", "z"]), example_p)
        assert evaluate(e, pop).body == example_p.relation.body

    def test_project_merges_duplicates(self, pop):
        e = Project({"a": Attr("x")}, lit(["x", "y"], (1, 10), (1, 20)))
        assert evaluate(e, pop).body == Bag([Tup({"a": 1}), Tup({"a": 1})])

    def test_unbound_attribute(self, pop, example_p):
        e = Project({"a": Attr("nope")}, example_p)
        with pytest.raises(EvalError, match="unbound attribute"):
            evaluate(e, pop)


class TestScalars:
    def test_sum_projection_example(self, pop, example_p):
        e = Project(
            {"a": Sum(example_p, "x"), "b": Apply("+", [Sum(example_p, "x"), Attr("y")])},
            example_p,
        )
        expected = rel(["a", "b"], (3, 5), (3, 7))
        assert evaluate(e, pop).body == expected.body

    def test_const(self, pop):
        assert eval_scalar(Const(42), pop, EMPTY_TUP) == 42

    def test_avg_weighted(self, pop):
        e = Avg(lit(["v"], (9,), (10,), (12,), (12,)), "v")
        assert eval_scalar(e, pop, EMPTY_TUP) == Fraction(43, 4)

    def test_count_counts_all_rows(self, pop):
        e = Count(lit(["v"], (1,), (NULL,), (2,)))
        assert eval_scalar(e, pop, EMPTY_TUP) == 3

    def test_aggregates_skip_nulls(self, pop):
        src = lit(["v"], (1,), (NULL,), (2,))
        assert eval_scalar(Sum(src, "v"), pop, EMPTY_TUP) == 3
        assert eval_scalar(Min(src, "v"), pop, EMPTY_TUP) == 1
        assert eval_scalar(Max(src, "v"), pop, EMPTY_TUP) == 2
        assert eval_scalar(Avg(src, "v"), pop, EMPTY_TUP) == Fraction(3, 2)

    def test_empty_aggregates_are_null(self, pop):
        src = lit(["v"])
        assert eval_scalar(Sum(src, "v"), pop, EMPTY_TUP) is NULL
        assert eval_scalar(Avg(src, "v"), pop, EMPTY_TUP) is NULL

    def test_role_access(self, pop):
        fact = FactInstance({"p": 1, "q": "a"})
        t = Tup({"a": fact})
        assert eval_scalar(AttrRole("a", "p"), pop, t) == 1
        with pytest.raises(EvalError, match="not a relationship instance"):
            eval_scalar(AttrRole("a", "p"), pop, Tup({"a": 5}))

    def test_scalar_table(self, pop):
        e = ScalarTable("x", Const(7))
        assert sch(e) == frozenset({"x"})
        assert evaluate(e, pop).body == Bag([Tup({"x": 7})])

    def test_correlated_subquery(self, pop):
        # the outer tuple is visible inside aggregates unless shadowed
        inner = Select(Compare(Attr("k"), "=", Attr("outer_k")), lit(["k"], (1,), (2,)))
        e = Count(inner)
        assert eval_scalar(e, pop, Tup({"outer_k": 1})) == 1


class TestGroup:
    def test_grouping_example(self, pop):
        src = lit(["a", "b"], (1, "a"), (2, "b"), (1, "c"), (2, "b"))
        out = evaluate(Group({"a"}, src), pop).body
        expected = Bag(
            [
                Tup({"a": 1, "b": GroupedBag(Bag(["a", "c"]))}),
                Tup({"a": 2, "b": GroupedBag(Bag(["b", "b"]))}),
            ]
        )
        assert out == expected

    def test_nulls_group_together(self, pop):
        src = lit(["a", "b"], (NULL, 1), (NULL, 2))
        out = evaluate(Group({"a"}, src), pop).body
        assert out == Bag([Tup({"a": NULL, "b": GroupedBag(Bag([1, 2]))})])


class TestJoins:
    def test_join_multiplies_frequencies(self, pop):
        left = lit(["a", "b"], (1, "x"), (1, "x"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(Join(left, right), pop).body
        assert out == Bag.from_counts([(Tup({"a": 1, "b": "x", "c": 9}), 2)])

    def test_left_join_pads_with_null(self, pop):
        left = lit(["a", "b"], (1, "x"), (2, "y"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(LeftJoin(left, right), pop).body
        assert out == Bag([Tup({"a": 1, "b": "x", "c": 9}), Tup({"a": 2, "b": "y", "c": NULL})])

    def test_null_joins_null(self, pop):
        left = lit(["a", "b"], (1, NULL), (2, "x"))
        right = lit(["b", "c"], (NULL, 9), ("y", 8))
        out = evaluate(Join(left, right), pop).body
        assert out == Bag([Tup({"a": 1, "b": NULL, "c": 9})])

    def test_multiplicities_multiply(self, pop):
        left = lit(["a", "b"], (1, "x"), (1, "x"), (2, "y"))
        right = lit(["b", "c"], ("x", 9), ("x", 9), ("x", 9), ("y", 8))
        out = evaluate(Join(left, right), pop).body
        assert out == Bag.from_counts([(Tup({"a": 1, "b": "x", "c": 9}), 6), (Tup({"a": 2, "b": "y", "c": 8}), 1)])

    def test_left_join_pads_and_keeps_multiplicity(self, pop):
        left = lit(["a", "b"], (1, "x"), (2, "y"), (2, "y"), (2, "y"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(LeftJoin(left, right), pop).body
        assert out == Bag.from_counts([(Tup({"a": 1, "b": "x", "c": 9}), 1), (Tup({"a": 2, "b": "y", "c": NULL}), 3)])

    def test_nothing_shared_is_the_cross_product(self, pop):
        left = lit(["a"], (1,), (1,), (2,))
        right = lit(["b"], ("x",), ("y",))
        out = evaluate(Join(left, right), pop).body
        expected = Bag.from_counts(
            [(Tup({"a": a, "b": b}), 2 if a == 1 else 1) for a in (1, 2) for b in ("x", "y")]
        )
        assert out == expected

    def test_equal_numbers_of_different_types_join(self, pop):
        left = lit(["a", "b"], (1, "x"))
        right = lit(["a", "c"], (Fraction(1), 9), (Fraction(2), 8))
        out = evaluate(Join(left, right), pop).body
        assert out == Bag([Tup({"a": 1, "b": "x", "c": 9})])

    def test_union_family(self, pop):
        p = lit(["a"], (1,), (1,), (2,))
        q = lit(["a"], (1,), (3,))
        assert evaluate(Union(p, q), pop).body == rel(["a"], (1,), (1,), (1,), (2,), (3,)).body
        assert evaluate(Intersect(p, q), pop).body == rel(["a"], (1,)).body
        assert evaluate(Diff(p, q), pop).body == rel(["a"], (1,), (2,)).body

    def test_header_mismatch(self, pop):
        with pytest.raises(EvalError, match="incompatible headers"):
            evaluate(Union(lit(["a"], (1,)), lit(["b"], (1,))), pop)


class TestTypeTable:
    def test_type_table(self):
        schema = make_schema({"types": {"X": "value"}, "naming": {"tnm": {"X": "Num"}}})
        pop = make_population(schema, {"Num": [1, 2, 3, 3]})
        out = evaluate(TypeTable("a", "X"), pop)
        assert out.header == frozenset({"a"})
        # each instance exactly once, even when the population repeats it
        assert out.body == Bag([Tup({"a": 1}), Tup({"a": 2}), Tup({"a": 3})])

    def test_empty_population(self):
        schema = make_schema({"types": {"X": "value"}})
        pop = make_population(schema, {})
        out = evaluate(TypeTable("a", "X"), pop)
        assert out.header == frozenset({"a"})
        assert not out.body


class TestConditions:
    def test_simple_compare(self, pop):
        assert eval_cond(Compare(Const(1), "<", Const(2)), pop, EMPTY_TUP) is True

    def test_null_compare_unknown(self, pop):
        assert eval_cond(Compare(Const(NULL), "=", Const(NULL)), pop, EMPTY_TUP) is UNKNOWN
        assert eval_cond(Compare(Const(NULL), "<", Const(2)), pop, EMPTY_TUP) is UNKNOWN

    def test_member(self, pop, example_p):
        assert eval_cond(Member(Const(2), example_p, "x"), pop, EMPTY_TUP) is True
        assert eval_cond(Member(Const(9), example_p, "x"), pop, EMPTY_TUP) is False

    def test_member_null_semantics(self, pop):
        src = lit(["a"], (1,), (NULL,))
        assert eval_cond(Member(Const(9), src, "a"), pop, EMPTY_TUP) is UNKNOWN
        assert eval_cond(Member(Const(1), src, "a"), pop, EMPTY_TUP) is True

    def test_bag_compare(self, pop):
        p = lit(["a"], (1,), (2,))
        q = lit(["a"], (1,), (2,), (2,))
        assert eval_cond(BagCompare(p, "subeq", q), pop, EMPTY_TUP) is True
        assert eval_cond(BagCompare(p, "sup", q), pop, EMPTY_TUP) is False

    def test_three_valued_connectives(self, pop):
        u = Compare(Const(NULL), "=", Const(1))
        t = Compare(Const(1), "=", Const(1))
        f = Compare(Const(1), "=", Const(2))
        assert eval_cond(Connect(u, "or", t), pop, EMPTY_TUP) is True
        assert eval_cond(Connect(u, "and", f), pop, EMPTY_TUP) is False
        assert eval_cond(Connect(u, "and", t), pop, EMPTY_TUP) is UNKNOWN
        assert eval_cond(Not(u), pop, EMPTY_TUP) is UNKNOWN

    def test_select_excludes_unknown(self, pop):
        src = lit(["a"], (1,), (NULL,), (3,))
        e = Select(Compare(Attr("a"), ">", Const(0)), src)
        assert evaluate(e, pop).body == rel(["a"], (1,), (3,)).body

    def test_distinct(self, pop):
        src = lit(["a"], (1,), (1,), (2,))
        assert evaluate(Distinct(src), pop).body == rel(["a"], (1,), (2,)).body
        assert evaluate(Distinct(Distinct(src)), pop).body == evaluate(Distinct(src), pop).body


class TestRepeatedSubPlans:
    """A sub-plan reached more than once in one evaluation is evaluated once
    per distinct binding of the outer attributes it reads."""

    @pytest.fixture
    def counted(self, monkeypatch):
        schema = make_schema({"types": {"X": "value"}, "naming": {"tnm": {"X": "Num"}}})
        pop = make_population(schema, {"Num": [1, 2, 3]})
        calls = []
        instances = Population.instances
        monkeypatch.setattr(Population, "instances", lambda self, tid: calls.append(tid) or instances(self, tid))
        return pop, calls

    def test_correlated_subquery_shares_its_uncorrelated_part(self, counted):
        pop, calls = counted
        outer = lit(["a", "c"], *[(a, a % 3) for a in range(1, 10)])
        # how many instances k are at least the outer row's c
        sub = Select(Compare(Attr("k"), ">=", Attr("c")), TypeTable("k", "X"))
        e = Select(Compare(Count(sub), ">", Const(2)), outer)
        assert evaluate(e, pop).body == rel(["a", "c"], (3, 0), (6, 0), (9, 0), (1, 1), (4, 1), (7, 1)).body
        assert len(calls) == 1

    def test_shared_node_is_evaluated_once(self, counted):
        pop, calls = counted
        x = TypeTable("k", "X")
        out = evaluate(Union(x, Intersect(x, x)), pop).body
        assert out == Bag.from_counts([(Tup({"k": k}), 2) for k in (1, 2, 3)])
        assert len(calls) == 1

    def test_memo_keys_on_the_type_of_a_value(self, pop):
        expr = Max(ScalarTable("v", Attr("a")), "v")
        outer = [Tup({"a": 1}), Tup({"a": 1.0}), Tup({"a": Fraction(1)})]
        values = [v for (v,) in eval_scalars([expr], pop, outer)]
        assert values == [1, 1, 1]
        assert [type(v) for v in values] == [int, float, Fraction]

    def test_nothing_is_cached_across_evaluations(self):
        schema = make_schema({"types": {"X": "value"}, "naming": {"tnm": {"X": "Num"}}})
        x = TypeTable("k", "X")
        e = Join(x, x)
        assert evaluate(e, make_population(schema, {"Num": [1]})).body == Bag([Tup({"k": 1})])
        assert evaluate(e, make_population(schema, {"Num": [2]})).body == Bag([Tup({"k": 2})])

    def test_an_error_in_a_subquery_is_raised_every_time(self, pop):
        sub = Select(Compare(Attr("missing"), "=", Const(1)), lit(["k"], (1,)))
        e = Select(Compare(Count(sub), ">", Const(0)), lit(["a"], (1,), (2,)))
        for _ in range(2):
            with pytest.raises(EvalError, match="unbound attribute 'missing'"):
                evaluate(e, pop)
