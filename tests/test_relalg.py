from fractions import Fraction

import pytest

from conquer.bag import Bag
from conquer.errors import EvalError, SchemaError
from conquer import relalg
from conquer.paths import translate
from conquer.population import Population
from conquer.relalg import (
    Aggregate,
    Apply,
    Attr,
    AttrRole,
    BagCompare,
    Compare,
    Connect,
    Const,
    Diff,
    Distinct,
    DropAttrs,
    Extend,
    Group,
    Intersect,
    Join,
    LeftJoin,
    Literal,
    Not,
    Project,
    Relation,
    Rename,
    ScalarTable,
    Select,
    TypeTable,
    Union,
    def_map,
    eval_cond,
    eval_scalar,
    eval_scalars,
    evaluate,
    rewrite,
    sch,
)
from conquer.tri import UNKNOWN
from conquer.values import NULL, FactInstance, GroupedBag

from .test_oracle_corpus import all_cases
from .test_scaling import CORRELATED, TWO_FACT_JOIN, demo_session, plan_objects, translated_plan
from .util import empty_pop, make_population, make_schema, rel, row


def lit(header, *rows):
    return Literal(rel(header, *rows))


@pytest.fixture
def pop():
    return empty_pop()


@pytest.fixture
def example_p():
    # the running projection example: two rows over x, y, z
    return lit(["x", "y", "z"], (1, 2, "a"), (2, 4, "b"))


@pytest.fixture
def counted(monkeypatch):
    """A population of the value type X, and the list that records each
    read of a type's instances."""
    schema = make_schema({"types": {"X": "value"}, "naming": {"tnm": {"X": "Num"}}})
    pop = make_population(schema, {"Num": [1, 2, 3]})
    calls = []
    instances = Population.instances
    monkeypatch.setattr(Population, "instances", lambda self, tid: calls.append(tid) or instances(self, tid))
    return pop, calls


class TestProjectionFamily:
    def test_project_example(self, pop, example_p):
        e = Project({"a": Apply("+", [Attr("x"), Attr("y")]), "b": Attr("z")}, example_p)
        assert sch(e) == frozenset({"a", "b"})
        assert evaluate(e, pop) == rel(["a", "b"], (3, "a"), (6, "b"))

    def test_extend_example(self, pop, example_p):
        e = Extend(
            {"a": Apply("+", [Attr("x"), Attr("y")]), "z": Apply("-", [Attr("y"), Attr("x")])},
            example_p,
        )
        expected = rel(["x", "y", "z", "a"], (1, 2, 1, 3), (2, 4, 2, 6))
        assert evaluate(e, pop) == expected

    def test_rename_example(self, pop, example_p):
        e = Rename({"a": "x", "b": "y"}, example_p)
        assert sch(e) == frozenset({"a", "b", "z"})
        expected = rel(["a", "b", "z"], (1, 2, "a"), (2, 4, "b"))
        assert evaluate(e, pop) == expected

    def test_rename_swap(self, pop):
        e = Rename({"a": "b", "b": "a"}, lit(["a", "b"], (1, 2)))
        assert evaluate(e, pop) == rel(["a", "b"], (2, 1))

    def test_drop_example(self, pop, example_p):
        e = DropAttrs({"x"}, example_p)
        expected = rel(["y", "z"], (2, "a"), (4, "b"))
        assert evaluate(e, pop) == expected

    def test_project_identity_defmap(self, pop, example_p):
        e = Project(def_map(["x", "y", "z"]), example_p)
        assert evaluate(e, pop) == example_p.relation

    def test_project_merges_duplicates(self, pop):
        e = Project({"a": Attr("x")}, lit(["x", "y"], (1, 10), (1, 20)))
        assert evaluate(e, pop) == rel(["a"], (1,), (1,))

    def test_unbound_attribute(self, pop, example_p):
        e = Project({"a": Attr("nope")}, example_p)
        with pytest.raises(EvalError, match="unbound attribute"):
            evaluate(e, pop)


class TestScalars:
    def test_sum_projection_example(self, pop, example_p):
        e = Project(
            {"a": Aggregate("sum", example_p, "x"), "b": Apply("+", [Aggregate("sum", example_p, "x"), Attr("y")])},
            example_p,
        )
        expected = rel(["a", "b"], (3, 5), (3, 7))
        assert evaluate(e, pop) == expected

    def test_const(self, pop):
        assert eval_scalar(Const(42), pop, {}) == 42

    def test_avg_weighted(self, pop):
        e = Aggregate("avg", lit(["v"], (9,), (10,), (12,), (12,)), "v")
        assert eval_scalar(e, pop, {}) == Fraction(43, 4)

    def test_count_counts_all_rows(self, pop):
        e = Aggregate("count", lit(["v"], (1,), (NULL,), (2,)))
        assert eval_scalar(e, pop, {}) == 3

    def test_aggregates_skip_nulls(self, pop):
        src = lit(["v"], (1,), (NULL,), (2,))
        assert eval_scalar(Aggregate("sum", src, "v"), pop, {}) == 3
        assert eval_scalar(Aggregate("min", src, "v"), pop, {}) == 1
        assert eval_scalar(Aggregate("max", src, "v"), pop, {}) == 2
        assert eval_scalar(Aggregate("avg", src, "v"), pop, {}) == Fraction(3, 2)

    def test_empty_aggregates_are_null(self, pop):
        src = lit(["v"])
        assert eval_scalar(Aggregate("sum", src, "v"), pop, {}) is NULL
        assert eval_scalar(Aggregate("avg", src, "v"), pop, {}) is NULL

    def test_aggregates_call_the_module_reductions(self, pop, monkeypatch):
        # the benchmark's self-test replaces relalg.bag_avg to check that its
        # answer checker rejects a wrong average
        src = lit(["v"], (1,), (2,))
        for fn in ("sum", "min", "max", "avg"):
            name = "bag_" + fn
            monkeypatch.setattr(relalg, name, lambda bag, name=name: name)
            assert eval_scalar(Aggregate(fn, src, "v"), pop, {}) == name

    def test_role_access(self, pop):
        fact = FactInstance({"p": 1, "q": "a"})
        assert eval_scalar(AttrRole("a", "p"), pop, {"a": fact}) == 1
        with pytest.raises(EvalError, match="not a relationship instance"):
            eval_scalar(AttrRole("a", "p"), pop, {"a": 5})

    def test_scalar_table(self, pop):
        e = ScalarTable("x", Const(7))
        assert sch(e) == frozenset({"x"})
        assert evaluate(e, pop) == rel(["x"], (7,))

    def test_correlated_subquery(self, pop):
        # the outer tuple is visible inside aggregates unless shadowed
        inner = Select(Compare(Attr("k"), "=", Attr("outer_k")), lit(["k"], (1,), (2,)))
        e = Aggregate("count", inner)
        assert eval_scalar(e, pop, {"outer_k": 1}) == 1


class TestGroup:
    def test_grouping_example(self, pop):
        src = lit(["a", "b"], (1, "a"), (2, "b"), (1, "c"), (2, "b"))
        out = evaluate(Group({"a"}, src), pop)
        expected = Bag(
            [
                row(a=1, b=GroupedBag(Bag(["a", "c"]))),
                row(a=2, b=GroupedBag(Bag(["b", "b"]))),
            ]
        )
        assert out.header == ("a", "b")
        assert out.body == expected

    def test_nulls_group_together(self, pop):
        src = lit(["a", "b"], (NULL, 1), (NULL, 2))
        out = evaluate(Group({"a"}, src), pop)
        assert out.header == ("a", "b")
        assert out.body == Bag([row(a=NULL, b=GroupedBag(Bag([1, 2])))])

    def test_grouping_attribute_outside_the_header(self):
        with pytest.raises(EvalError, match="grouping attributes not in header"):
            Group({"z"}, lit(["a"]))


class TestJoins:
    def test_join_multiplies_frequencies(self, pop):
        left = lit(["a", "b"], (1, "x"), (1, "x"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(Join(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag.from_counts([(row(a=1, b="x", c=9), 2)])

    def test_left_join_pads_with_null(self, pop):
        left = lit(["a", "b"], (1, "x"), (2, "y"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(LeftJoin(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([row(a=1, b="x", c=9), row(a=2, b="y", c=NULL)])

    def test_null_joins_null(self, pop):
        left = lit(["a", "b"], (1, NULL), (2, "x"))
        right = lit(["b", "c"], (NULL, 9), ("y", 8))
        out = evaluate(Join(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([row(a=1, b=NULL, c=9)])

    def test_multiplicities_multiply(self, pop):
        left = lit(["a", "b"], (1, "x"), (1, "x"), (2, "y"))
        right = lit(["b", "c"], ("x", 9), ("x", 9), ("x", 9), ("y", 8))
        out = evaluate(Join(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag.from_counts([(row(a=1, b="x", c=9), 6), (row(a=2, b="y", c=8), 1)])

    def test_left_join_pads_and_keeps_multiplicity(self, pop):
        left = lit(["a", "b"], (1, "x"), (2, "y"), (2, "y"), (2, "y"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(LeftJoin(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag.from_counts([(row(a=1, b="x", c=9), 1), (row(a=2, b="y", c=NULL), 3)])

    def test_nothing_shared_is_the_cross_product(self, pop):
        left = lit(["a"], (1,), (1,), (2,))
        right = lit(["b"], ("x",), ("y",))
        out = evaluate(Join(left, right), pop)
        expected = Bag.from_counts(
            [(row(a=a, b=b), 2 if a == 1 else 1) for a in (1, 2) for b in ("x", "y")]
        )
        assert out.header == ("a", "b")
        assert out.body == expected

    def test_equal_numbers_of_different_types_join(self, pop):
        left = lit(["a", "b"], (1, "x"))
        right = lit(["a", "c"], (Fraction(1), 9), (Fraction(2), 8))
        out = evaluate(Join(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([row(a=1, b="x", c=9)])
        # a shared attribute takes the right row's value, as in the oracle
        assert [type(u[0]) for u, _ in out.rows()] == [Fraction]

    def test_right_attribute_sorting_first_leads_the_row(self, pop):
        # every other join test has the left attributes sorting first, which
        # a join that concatenated its operands' rows would also pass
        left = lit(["b", "c"], ("x", 1), ("y", 2))
        right = lit(["a", "b"], (7, "x"), (8, "z"))
        out = evaluate(Join(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([(7, "x", 1)])

    def test_left_join_pad_between_left_attributes(self, pop):
        left = lit(["a", "c"], (1, "x"), (2, "y"))
        right = lit(["b", "c"], (9, "x"))
        out = evaluate(LeftJoin(left, right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([(1, 9, "x"), (2, NULL, "y")])

    def test_union_family(self, pop):
        p = lit(["a"], (1,), (1,), (2,))
        q = lit(["a"], (1,), (3,))
        assert evaluate(Union(p, q), pop) == rel(["a"], (1,), (1,), (1,), (2,), (3,))
        assert evaluate(Intersect(p, q), pop) == rel(["a"], (1,))
        assert evaluate(Diff(p, q), pop) == rel(["a"], (1,), (2,))

    def test_header_mismatch(self):
        # refused when the node is built, before anything is evaluated
        with pytest.raises(EvalError, match="incompatible headers"):
            Union(lit(["a"]), lit(["b"]))


class TestTypeTable:
    def test_type_table(self):
        schema = make_schema({"types": {"X": "value"}, "naming": {"tnm": {"X": "Num"}}})
        pop = make_population(schema, {"Num": [1, 2, 3, 3]})
        out = evaluate(TypeTable("a", "X"), pop)
        assert out.header == ("a",)
        # each instance exactly once, even when the population repeats it
        assert out.body == Bag([row(a=1), row(a=2), row(a=3)])

    def test_empty_population(self):
        schema = make_schema({"types": {"X": "value"}})
        pop = make_population(schema, {})
        out = evaluate(TypeTable("a", "X"), pop)
        assert out.header == ("a",)
        assert not out.body


class TestConditions:
    def test_simple_compare(self, pop):
        assert eval_cond(Compare(Const(1), "<", Const(2)), pop, {}) is True

    def test_null_compare_unknown(self, pop):
        assert eval_cond(Compare(Const(NULL), "=", Const(NULL)), pop, {}) is UNKNOWN
        assert eval_cond(Compare(Const(NULL), "<", Const(2)), pop, {}) is UNKNOWN

    def test_bag_compare(self, pop):
        p = lit(["a"], (1,), (2,))
        q = lit(["a"], (1,), (2,), (2,))
        assert eval_cond(BagCompare(p, "subeq", q), pop, {}) is True
        assert eval_cond(BagCompare(p, "sup", q), pop, {}) is False

    def test_three_valued_connectives(self, pop):
        u = Compare(Const(NULL), "=", Const(1))
        t = Compare(Const(1), "=", Const(1))
        f = Compare(Const(1), "=", Const(2))
        assert eval_cond(Connect(u, "or", t), pop, {}) is True
        assert eval_cond(Connect(u, "and", f), pop, {}) is False
        assert eval_cond(Connect(u, "and", t), pop, {}) is UNKNOWN
        assert eval_cond(Not(u), pop, {}) is UNKNOWN

    def test_select_excludes_unknown(self, pop):
        src = lit(["a"], (1,), (NULL,), (3,))
        e = Select(Compare(Attr("a"), ">", Const(0)), src)
        assert evaluate(e, pop) == rel(["a"], (1,), (3,))

    def test_distinct(self, pop):
        src = lit(["a"], (1,), (1,), (2,))
        assert evaluate(Distinct(src), pop) == rel(["a"], (1,), (2,))
        assert evaluate(Distinct(Distinct(src)), pop) == evaluate(Distinct(src), pop)


class TestRepeatedSubPlans:
    """A sub-plan reached more than once in one evaluation is evaluated once
    per distinct binding of the outer attributes it reads."""

    def test_correlated_subquery_shares_its_uncorrelated_part(self, counted):
        pop, calls = counted
        outer = lit(["a", "c"], *[(a, a % 3) for a in range(1, 10)])
        # how many instances k are at least the outer row's c
        sub = Select(Compare(Attr("k"), ">=", Attr("c")), TypeTable("k", "X"))
        e = Select(Compare(Aggregate("count", sub), ">", Const(2)), outer)
        assert evaluate(e, pop) == rel(["a", "c"], (3, 0), (6, 0), (9, 0), (1, 1), (4, 1), (7, 1))
        assert len(calls) == 1

    def test_shared_node_is_evaluated_once(self, counted):
        pop, calls = counted
        x = TypeTable("k", "X")
        out = evaluate(Union(x, Intersect(x, x)), pop)
        assert out.header == ("k",)
        assert out.body == Bag.from_counts([(row(k=k), 2) for k in (1, 2, 3)])
        assert len(calls) == 1

    def test_memo_keys_on_the_type_of_a_value(self, pop):
        expr = Aggregate("max", ScalarTable("v", Attr("a")), "v")
        outer = [row(a=1), row(a=1.0), row(a=Fraction(1))]
        values = [v for (v,) in eval_scalars([expr], pop, ("a",), outer)]
        assert values == [1, 1, 1]
        assert [type(v) for v in values] == [int, float, Fraction]

    def test_nothing_is_cached_across_evaluations(self):
        schema = make_schema({"types": {"X": "value"}, "naming": {"tnm": {"X": "Num"}}})
        x = TypeTable("k", "X")
        e = Join(x, x)
        assert evaluate(e, make_population(schema, {"Num": [1]})) == rel(["k"], (1,))
        assert evaluate(e, make_population(schema, {"Num": [2]})) == rel(["k"], (2,))

    def test_an_error_in_a_subquery_is_raised_every_time(self, pop):
        sub = Select(Compare(Attr("missing"), "=", Const(1)), lit(["k"], (1,)))
        e = Select(Compare(Aggregate("count", sub), ">", Const(0)), lit(["a"], (1,), (2,)))
        for _ in range(2):
            with pytest.raises(EvalError, match="unbound attribute 'missing'"):
                evaluate(e, pop)


def fact_pop():
    """Value types V and Small (a subtype of V) and the fact type G over V,
    with the facts (1, 5), (1, 6) and (2, 5) and the Small instance 1."""
    schema = make_schema({
        "types": {"V": "value", "Small": "value", "G": "relationship"},
        "specialises": {"Small": "V"},
        "roles_of": {"G": ["q1", "q2"]},
        "player": {"q1": "V", "q2": "V"},
        "naming": {"tnm": {"V": "V", "Small": "Small", "G": "G"}},
    })
    facts = [{"q1": 1, "q2": 5}, {"q1": 1, "q2": 6}, {"q1": 2, "q2": 5}]
    return make_population(schema, {"G": facts, "Small": [1]})


class TestRewrite:
    """``evaluate`` fuses stacked projections, drops identity projections,
    merges two projections of one type table joined on its instance column
    and drops a join with a type table whose instances the other side's
    column already fills a role of; a rewritten plan gives the same
    relation and raises where the plan as built does."""

    def test_rename_extend_drop_chain_fuses(self, pop):
        src = lit(["x", "y", "z"], (1, 2, "a"), (1, 2, "b"), (1, 2, "b"), (3, 4, "c"))
        e = Rename({"w": "x"}, Extend({"k": Const(7), "v": Attr("y")}, DropAttrs({"z"}, src)))
        fused = rewrite(e, pop.schema)
        assert isinstance(fused, Project) and fused.of is src
        expected = Relation(
            ("k", "v", "w", "y"), Bag.from_counts([((7, 2, 1, 2), 3), ((7, 4, 3, 4), 1)])
        )
        assert evaluate(e, pop) == expected

    def test_outer_role_over_inner_attribute(self, pop):
        src = lit(["f", "n"], (FactInstance({"p": 1, "q": "a"}), 5), (FactInstance({"p": 2, "q": "b"}), 5))
        e = Project({"v": AttrRole("g", "p"), "m": Attr("n")}, Rename({"g": "f"}, src))
        fused = rewrite(e, pop.schema)
        assert fused == Project({"v": AttrRole("f", "p"), "m": Attr("n")}, src)
        assert evaluate(e, pop) == rel(["m", "v"], (5, 1), (5, 2))

    def test_inner_constant(self, pop):
        src = lit(["x"], (1,), (2,), (2,))
        e = Project({"a": Attr("k"), "b": Apply("+", [Attr("x"), Attr("k")])}, Extend({"k": Const(10)}, src))
        assert rewrite(e, pop.schema).of is src
        assert evaluate(e, pop) == rel(["a", "b"], (10, 11), (10, 12), (10, 12))

    def test_outer_binding_read_is_not_sent_to_the_operand(self, pop):
        # the outer projection's `a` is the outer binding's; the inner one
        # renames the operand's own `a` to `b`
        inner = Rename({"b": "a"}, lit(["a"], (1,), (2,), (3,)))
        e = Project({"s": Apply("+", [Attr("b"), Attr("a")])}, inner)
        assert eval_scalar(Aggregate("sum", e, "s"), pop, {"a": 10}) == 36
        assert eval_scalar(Aggregate("count", Select(Compare(Attr("s"), ">", Const(12)), e)), pop, {"a": 10}) == 1

    def test_dropped_unbound_attribute_still_raises(self, pop):
        inner = Project({"b": Attr("x"), "c": Attr("nope")}, lit(["x"], (1,)))
        with pytest.raises(EvalError, match="unbound attribute 'nope'"):
            evaluate(Project({"a": Attr("b")}, inner), pop)

    def test_identity_projection_is_removed(self, pop, example_p):
        e = Distinct(Project(def_map(["x", "y", "z"]), example_p))
        assert rewrite(e, pop.schema) == Distinct(example_p)
        assert evaluate(e, pop) == example_p.relation

    def test_shared_rewritten_sub_plan_is_evaluated_once(self, counted):
        pop, calls = counted
        # the identity projection goes, so the shared Distinct is rebuilt
        shared = Distinct(Project({"m": Attr("k")}, Project(def_map(["k"]), TypeTable("k", "X"))))
        e = Union(shared, Intersect(shared, shared))
        out = rewrite(e, pop.schema)
        assert out.left is out.right.left is out.right.right
        assert evaluate(e, pop) == Relation(("m",), Bag.from_counts([((m,), 2) for m in (1, 2, 3)]))
        assert len(calls) == 1

    def test_self_join_merge_keeps_multiplicities(self):
        pop = fact_pop()
        left = Project({"h": AttrRole("a", "q1"), "k": Attr("a")}, TypeTable("a", "G"))
        right = Project({"t": AttrRole("b", "q2"), "k": Attr("b")}, TypeTable("b", "G"))
        e = Project({"h": Attr("h")}, Join(left, right))
        out = rewrite(e, pop.schema)
        assert not any(isinstance(x, Join) for x in plan_objects(out))
        assert evaluate(e, pop) == Relation(("h",), Bag.from_counts([((1,), 2), ((2,), 1)]))
        assert sorted(u[0] for u, _ in evaluate(DropAttrs({"k"}, Join(left, right)), pop).rows()) == [1, 1, 2]

    def test_merged_self_join_still_raises_on_a_role(self):
        pop = fact_pop()
        on_value = Join(
            Project({"h": AttrRole("a", "q1"), "k": Attr("a")}, TypeTable("a", "V")),
            Project({"k": Attr("b")}, TypeTable("b", "V")),
        )
        assert isinstance(rewrite(on_value, pop.schema), Project)
        with pytest.raises(EvalError, match="not a relationship instance"):
            evaluate(on_value, pop)
        no_role = Join(
            Project({"h": AttrRole("a", "nope"), "k": Attr("a")}, TypeTable("a", "G")),
            TypeTable("k", "G"),
        )
        assert isinstance(rewrite(no_role, pop.schema), Project)
        with pytest.raises(EvalError, match="not defined for role 'nope'"):
            evaluate(no_role, pop)

    def test_self_join_on_a_role_is_kept(self):
        pop = fact_pop()
        # facts that share their first filler: a many-to-many join
        e = Join(
            Project({"h": AttrRole("a", "q1"), "x": Attr("a")}, TypeTable("a", "G")),
            Project({"h": AttrRole("b", "q1"), "y": Attr("b")}, TypeTable("b", "G")),
        )
        assert isinstance(rewrite(e, pop.schema), Join)
        assert evaluate(e, pop).body.cardinality() == 5

    def test_semi_join_with_a_subtype_table_is_kept(self):
        pop = fact_pop()
        fillers = Project({"p": AttrRole("f", "q1")}, TypeTable("f", "G"))
        small = Join(fillers, TypeTable("p", "Small"))
        assert isinstance(rewrite(small, pop.schema), Join)
        assert evaluate(small, pop) == rel(["p"], (1,), (1,))
        # the player's own table filters nothing, so its join goes
        player = Join(TypeTable("p", "V"), fillers)
        assert rewrite(player, pop.schema) is fillers
        assert evaluate(player, pop) == rel(["p"], (1,), (1,), (2,))

    def test_semi_join_on_a_padded_column_is_kept(self):
        pop = fact_pop()
        # 5 and 6 fill no first role, so their rows are padded with NULL
        facts = Project({"a": AttrRole("f", "q1"), "p": AttrRole("f", "q2")}, TypeTable("f", "G"))
        padded = LeftJoin(TypeTable("a", "V"), facts)
        e = Join(padded, TypeTable("p", "V"))
        assert isinstance(rewrite(e, pop.schema), Join)
        assert evaluate(e, pop) == rel(["a", "p"], (1, 5), (1, 6), (2, 5))

    def test_join_with_an_undeclared_supertype_still_raises(self):
        schema = make_schema({
            "types": {"V": "value", "G": "relationship"},
            "specialises": {"V": "Ghost"},
            "roles_of": {"G": ["q1", "q2"]},
            "player": {"q1": "V", "q2": "V"},
        })
        pop = make_population(schema, {"G": [{"q1": 1, "q2": 2}]})
        e = Join(Project({"p": AttrRole("f", "q1")}, TypeTable("f", "G")), TypeTable("p", "Ghost"))
        with pytest.raises(SchemaError, match="unknown type 'Ghost'"):
            evaluate(e, pop)

    def test_merged_shared_sub_plan_is_evaluated_once(self, counted):
        pop, calls = counted
        shared = Join(TypeTable("k", "X"), Project({"k": Attr("j"), "m": Attr("j")}, TypeTable("j", "X")))
        e = Union(shared, Intersect(shared, shared))
        out = rewrite(e, pop.schema)
        assert isinstance(out.left, Project)
        assert out.left is out.right.left is out.right.right
        assert evaluate(e, pop) == Relation(("k", "m"), Bag.from_counts([((v, v), 2) for v in (1, 2, 3)]))
        assert len(calls) == 1


class TestHeaders:
    """Every relational node carries its header and the slot of each of its
    attributes from the moment it is built."""

    @pytest.mark.parametrize("text", [TWO_FACT_JOIN, CORRELATED])
    def test_every_node_of_a_rewritten_plan(self, monkeypatch, text):
        pop = demo_session().base_pop
        plan = rewrite(translated_plan(monkeypatch, text), pop.schema)
        nodes = [x for x in plan_objects(plan) if isinstance(x, relalg.RelExpr.__args__)]
        evaluated = 0
        for node in nodes:
            assert list(node.header) == sorted(node.header)
            assert node.slots == {a: i for i, a in enumerate(node.header)}
            # a node inside a correlated subquery reads the outer row, so it
            # is evaluated only as a part of its parent
            if not node.free:
                out = evaluate(node, pop)
                assert out.header == node.header
                assert all(len(u) == len(node.header) for u, _ in out.rows())
                evaluated += 1
        assert evaluated > len(nodes) // 2


def test_every_node_kind_occurs_in_a_translated_plan():
    # a kind that no translation builds is dead code, even though the
    # evaluator's isinstance tests still name it; only tests build Literal
    seen = set()
    for _, schema, _, expr, typing in all_cases():
        seen.update(type(x) for x in plan_objects(translate(schema, expr, typing)))
    assert relalg.RA_KINDS - seen == {Literal}
