import dataclasses
from fractions import Fraction

import pytest

from conquer.bag import Bag
from conquer.errors import EvalError, SchemaError
from conquer import relalg, walk
from conquer.paths import translate
from conquer.population import Population
from conquer.schema import TypeRule
from conquer.relalg import (
    Aggregate,
    Apply,
    Attr,
    AttrRole,
    BagCompare,
    Compare,
    Connect,
    Const,
    DropAttrs,
    Extend,
    Group,
    Join,
    JoinRules,
    Literal,
    Not,
    Project,
    Relation,
    Rename,
    Select,
    SetOp,
    TypeTable,
    UNIT,
    def_map,
    eval_cond,
    eval_scalar,
    evaluate,
    Columns,
)
from conquer.tri import UNKNOWN
from conquer.values import NULL, EntityInstance, FactInstance, GroupedBag

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
        assert e.header == ("a", "b")
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
        assert e.header == ("a", "b", "z")
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
        # a scalar's one-row table is a projection of the unit relation
        e = Project({"x": Const(7)}, UNIT)
        assert e.header == ("x",)
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

    def test_union_pads_with_null(self, pop):
        # a union on the common attribute b: the key x counts once on each
        # side, and the key y, on the left only, is padded
        left = lit(["a", "b"], (1, "x"), (2, "y"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(SetOp(left, "union", right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([row(a=1, b="x", c=9), row(a=1, b="x", c=9), row(a=2, b="y", c=NULL)])

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

    def test_union_pads_and_keeps_multiplicity(self, pop):
        left = lit(["a", "b"], (1, "x"), (2, "y"), (2, "y"), (2, "y"))
        right = lit(["b", "c"], ("x", 9))
        out = evaluate(SetOp(left, "union", right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag.from_counts([(row(a=1, b="x", c=9), 2), (row(a=2, b="y", c=NULL), 3)])

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

    def test_union_pad_between_left_attributes(self, pop):
        left = lit(["a", "c"], (1, "x"), (2, "y"))
        right = lit(["b", "c"], (9, "x"))
        out = evaluate(SetOp(left, "union", right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag([(1, 9, "x"), (1, 9, "x"), (2, NULL, "y")])

    def test_union_family(self, pop):
        p = lit(["a"], (1,), (1,), (2,))
        q = lit(["a"], (1,), (3,))
        assert evaluate(SetOp(p, "union", q), pop) == rel(["a"], (1,), (1,), (1,), (2,), (3,))
        assert evaluate(SetOp(p, "intersect", q), pop) == rel(["a"], (1,))
        assert evaluate(SetOp(p, "minus", q), pop) == rel(["a"], (1,), (2,))

    def test_union_pads_a_key_of_the_right_operand_only(self, pop):
        left = lit(["a", "b"], (1, "x"))
        right = lit(["b", "c"], ("y", 8), ("y", 8))
        out = evaluate(SetOp(left, "union", right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag.from_counts([((1, "x", NULL), 1), ((NULL, "y", 8), 2)])

    def test_intersection_pairs_each_keys_distinct_rows_with_the_least_count(self, pop):
        # the key x occurs three times on the left, in two distinct rows,
        # and twice on the right; the key y only on the left
        left = lit(["a", "b"], (1, "x"), (2, "x"), (2, "x"), (3, "y"))
        right = lit(["b", "c"], ("x", 9), ("x", 9))
        out = evaluate(SetOp(left, "intersect", right), pop)
        assert out.header == ("a", "b", "c")
        assert out.body == Bag.from_counts([((1, "x", 9), 2), ((2, "x", 9), 2)])

    def test_difference_keeps_the_left_rows_and_header(self, pop):
        left = lit(["a", "b"], (1, "x"), (2, "x"), (2, "x"), (3, "y"))
        right = lit(["b", "c"], ("x", 9), ("z", 7))
        out = evaluate(SetOp(left, "minus", right), pop)
        assert out.header == ("a", "b")
        # the key x: three on the left less one on the right
        assert out.body == Bag.from_counts([((1, "x"), 2), ((2, "x"), 2), ((3, "y"), 1)])

    def test_common_attribute_takes_the_right_rows_value(self, pop):
        left = lit(["a", "b"], (1, "x"))
        right = lit(["a", "c"], (Fraction(1), 9))
        out = evaluate(SetOp(left, "intersect", right), pop)
        assert out.body == Bag([(1, "x", 9)])
        assert [type(u[0]) for u, _ in out.rows()] == [Fraction]
        # equal headers are the same pass with the whole row as key
        for op in ("union", "intersect"):
            out = evaluate(SetOp(lit(["a"], (1,)), op, lit(["a"], (Fraction(1),))), pop)
            assert [(type(u[0]), n) for u, n in out.rows()] == [(Fraction, 2 if op == "union" else 1)]

    def test_set_operation_combines_the_keys_once(self, pop, monkeypatch):
        calls = []
        intersect = Bag.intersect
        monkeypatch.setattr(Bag, "intersect", lambda self, other: calls.append(1) or intersect(self, other))
        left = lit(["a", "b"], (1, "x"), (2, "x"), (3, "y"))
        right = lit(["b", "c"], ("x", 9), ("y", 8))
        assert evaluate(SetOp(left, "intersect", right), pop).body.cardinality() == 3
        assert len(calls) == 1

    def test_header_mismatch(self):
        # refused when the node is built, before anything is evaluated
        with pytest.raises(EvalError, match="incompatible headers"):
            SetOp(lit(["a"]), "union", lit(["b"]))

    def test_unknown_set_operation(self):
        with pytest.raises(EvalError, match="unknown set operation 'xor'"):
            SetOp(lit(["a"]), "xor", lit(["a"]))


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
        # grouping by every attribute keeps each distinct row once
        src = lit(["a"], (1,), (1,), (2,))
        assert evaluate(Group({"a"}, src), pop) == rel(["a"], (1,), (2,))
        assert evaluate(Group({"a"}, Group({"a"}, src)), pop) == evaluate(Group({"a"}, src), pop)


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
        out = evaluate(SetOp(x, "union", SetOp(x, "intersect", x)), pop)
        assert out.header == ("k",)
        assert out.body == Bag.from_counts([(row(k=k), 2) for k in (1, 2, 3)])
        assert len(calls) == 1

    def test_memo_keys_on_the_type_of_a_value(self, pop):
        expr = Aggregate("max", Project({"v": Attr("a")}, UNIT), "v")
        outer = lit(["a", "b"], (1, "x"), (1.0, "y"), (Fraction(1), "z"))
        out = evaluate(Project({"b": Attr("b"), "v": expr}, outer), pop)
        values = [v for _, v in sorted(t for t, _ in out.rows())]
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


# (id, the operand's value of ``a``, a plan over an operand, the message
# its row raises) for each error that compiled code raises when a row
# reaches it
_EQ = Compare(Attr("a"), "=", Const(1))
_UNIT_A = Project({"w": Attr("a")}, UNIT)  # a subquery reading the row's a
PER_ROW_ERRORS = [
    ("unbound attribute", 1, lambda of: Project({"v": Attr("nope")}, of), "unbound attribute 'nope'"),
    (
        "role of an entity instance",
        EntityInstance("P", ("x",)),
        lambda of: Project({"v": AttrRole("a", "p")}, of),
        "attribute 'a' is not a relationship instance",
    ),
    (
        "fact instance without the role",
        FactInstance({"p": 1}),
        lambda of: Project({"v": AttrRole("a", "q")}, of),
        "relationship instance not defined for role 'q'",
    ),
    (
        "arithmetic on a non-number",
        "x",
        lambda of: Project({"v": Apply("+", [Attr("a"), Const(1)])}, of),
        "operator '+' needs numbers, got 'x' and 1",
    ),
    ("division by zero", 1, lambda of: Project({"v": Apply("/", [Attr("a"), Const(0)])}, of), "division by zero"),
    ("unknown function", 1, lambda of: Project({"v": Apply("pow", [Attr("a")])}, of), "unknown function 'pow'"),
    (
        "unorderable comparison",
        "x",
        lambda of: Select(Compare(Attr("a"), "<", Const(1)), of),
        "cannot order 'x' and 1",
    ),
    ("unknown comparison", 1, lambda of: Select(Compare(Attr("a"), "~", Const(1)), of), "unknown comparison '~'"),
    ("unknown connective", 1, lambda of: Select(Connect(_EQ, "nand", _EQ), of), "unknown connective 'nand'"),
    (
        "unknown scalar kind",
        1,
        lambda of: Project({"v": _EQ}, of),
        "unknown scalar expression Compare(left=Attr(attr='a'), op='=', right=Const(value=1))",
    ),
    ("unknown condition kind", 1, lambda of: Select(Attr("a"), of), "unknown condition Attr(attr='a')"),
    (
        "unknown aggregate",
        1,
        lambda of: Project({"v": Aggregate("median", _UNIT_A, "w")}, of),
        "unknown aggregate 'median'",
    ),
    (
        "aggregate of a missing column",
        1,
        lambda of: Project({"v": Aggregate("sum", _UNIT_A, "zz")}, of),
        "unbound attribute 'zz'",
    ),
]


class TestCompiledErrors:
    """A plan is compiled before it runs, and its compiled code raises what
    a row raises when that row reaches it, with the message the engine has
    always given; over an empty operand nothing raises."""

    @pytest.mark.parametrize("value, make, message", [c[1:] for c in PER_ROW_ERRORS], ids=[c[0] for c in PER_ROW_ERRORS])
    def test_a_row_raises_and_an_empty_operand_does_not(self, pop, value, make, message):
        with pytest.raises(EvalError) as raised:
            evaluate(make(lit(["a"], (value,))), pop)
        assert raised.value.message == message
        e = make(lit(["a"]))
        assert evaluate(e, pop) == Relation(e.header, Bag())


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
    """A ``Columns`` composes renaming, extension, attribute removal and
    projection into one map and builds no identity projection, and
    ``JoinRules.join`` merges two maps over one type table joined on its
    instance column and drops a join with a type table whose instances the
    other side's column already fills a role of; a plan they build gives
    the same relation, and raises where, the same plan built with the raw
    ``Project`` and ``Join`` constructors does."""

    def test_rename_extend_drop_chain_composes(self, pop):
        src = lit(["x", "y", "z"], (1, 2, "a"), (1, 2, "b"), (1, 2, "b"), (3, 4, "c"))
        cols = JoinRules(pop.schema).columns(src)
        composed = cols.drop({"z"}).extend({"k": Const(7), "v": Attr("y")}).rename({"w": "x"}).rel
        assert isinstance(composed, Project) and composed.of is src
        extended = Project({"k": Const(7), "v": Attr("y"), "x": Attr("x"), "y": Attr("y")}, Project(def_map("xy"), src))
        raw = Project({"k": Attr("k"), "v": Attr("v"), "w": Attr("x"), "y": Attr("y")}, extended)
        expected = Relation(
            ("k", "v", "w", "y"), Bag.from_counts([((7, 2, 1, 2), 3), ((7, 4, 3, 4), 1)])
        )
        assert evaluate(composed, pop) == evaluate(raw, pop) == expected

    def test_outer_role_over_inner_attribute(self, pop):
        src = lit(["f", "n"], (FactInstance({"p": 1, "q": "a"}), 5), (FactInstance({"p": 2, "q": "b"}), 5))
        outer = {"v": AttrRole("g", "p"), "m": Attr("n")}
        composed = JoinRules(pop.schema).columns(src).rename({"g": "f"}).project(outer).rel
        assert composed == Project({"v": AttrRole("f", "p"), "m": Attr("n")}, src)
        raw = Project(outer, Project({"g": Attr("f"), "n": Attr("n")}, src))
        assert evaluate(composed, pop) == evaluate(raw, pop) == rel(["m", "v"], (5, 1), (5, 2))

    def test_inner_constant(self, pop):
        src = lit(["x"], (1,), (2,), (2,))
        outer = {"a": Attr("k"), "b": Apply("+", [Attr("x"), Attr("k")])}
        composed = JoinRules(pop.schema).columns(src).extend({"k": Const(10)}).project(outer).rel
        assert composed.of is src
        raw = Project(outer, Project({"k": Const(10), "x": Attr("x")}, src))
        assert evaluate(composed, pop) == evaluate(raw, pop) == rel(["a", "b"], (10, 11), (10, 12), (10, 12))

    def test_outer_binding_read_is_not_sent_to_the_operand(self, pop):
        # the outer projection's `a` is the outer binding's; the inner one
        # renames the operand's own `a` to `b`
        inner = JoinRules(pop.schema).columns(lit(["a"], (1,), (2,), (3,))).rename({"b": "a"})
        e = inner.project({"s": Apply("+", [Attr("b"), Attr("a")])}).rel
        assert eval_scalar(Aggregate("sum", e, "s"), pop, {"a": 10}) == 36
        assert eval_scalar(Aggregate("count", Select(Compare(Attr("s"), ">", Const(12)), e)), pop, {"a": 10}) == 1

    def test_dropped_unbound_attribute_still_raises(self, pop):
        inner = Columns({"b": Attr("x"), "c": Attr("nope")}, lit(["x"], (1,)), JoinRules(pop.schema))
        with pytest.raises(EvalError, match="unbound attribute 'nope'"):
            evaluate(inner.project({"a": Attr("b")}).rel, pop)

    def test_computed_column_read_twice_is_built_once(self, pop):
        src = lit(["x"], (1,), (2,))
        summed = JoinRules(pop.schema).columns(src).extend({"s": Apply("+", [Attr("x"), Const(1)])})
        copied = summed.extend({"t": Attr("s")})
        assert copied.of is summed.rel
        assert evaluate(copied.rel, pop) == rel(["s", "t", "x"], (2, 2, 1), (3, 3, 2))
        # read once, it moves into the one map
        assert summed.rename({"t": "s"}).of is src

    def test_identity_projection_is_removed(self, pop, example_p):
        e = Group({"x", "y", "z"}, JoinRules(pop.schema).columns(example_p).project(def_map(["x", "y", "z"])).rel)
        assert e == Group({"x", "y", "z"}, example_p)
        assert evaluate(e, pop) == evaluate(Group({"x", "y", "z"}, Project(def_map(["x", "y", "z"]), example_p)), pop)
        assert evaluate(e, pop) == example_p.relation

    def test_shared_composed_sub_plan_is_evaluated_once(self, counted):
        pop, calls = counted
        # no identity projection is built, so the shared Group is built
        # over the one composed projection
        cols = JoinRules(pop.schema).columns(TypeTable("k", "X"))
        shared = Group({"m"}, cols.project(def_map(["k"])).project({"m": Attr("k")}).rel)
        assert shared.of.of == TypeTable("k", "X")
        e = SetOp(shared, "union", SetOp(shared, "intersect", shared))
        assert e.left is e.right.left is e.right.right
        assert evaluate(e, pop) == Relation(("m",), Bag.from_counts([((m,), 2) for m in (1, 2, 3)]))
        assert len(calls) == 1

    def test_self_join_merge_keeps_multiplicities(self):
        pop = fact_pop()
        rules = JoinRules(pop.schema)
        left = rules.columns(TypeTable("a", "G"), {"h": AttrRole("a", "q1"), "k": Attr("a")})
        right = rules.columns(TypeTable("b", "G"), {"t": AttrRole("b", "q2"), "k": Attr("b")})
        e = rules.join(left, right).project({"h": Attr("h")}).rel
        assert not any(isinstance(x, Join) for x in plan_objects(e))
        expected = Relation(("h",), Bag.from_counts([((1,), 2), ((2,), 1)]))
        assert evaluate(e, pop) == evaluate(Project({"h": Attr("h")}, Join(left.rel, right.rel)), pop) == expected
        for joined in (rules.join(left, right).drop({"k"}).rel, DropAttrs({"k"}, Join(left.rel, right.rel))):
            assert sorted(u[0] for u, _ in evaluate(joined, pop).rows()) == [1, 1, 2]

    def test_merged_self_join_still_raises_on_a_role(self):
        pop = fact_pop()
        rules = JoinRules(pop.schema)
        value_sides = (
            rules.columns(TypeTable("a", "V"), {"h": AttrRole("a", "q1"), "k": Attr("a")}),
            rules.columns(TypeTable("b", "V"), {"k": Attr("b")}),
        )
        no_role_sides = (
            rules.columns(TypeTable("a", "G"), {"h": AttrRole("a", "nope"), "k": Attr("a")}),
            rules.columns(TypeTable("k", "G")),
        )
        for sides, message in ((value_sides, "not a relationship instance"), (no_role_sides, "not defined for role 'nope'")):
            merged = rules.join(*sides)
            assert isinstance(merged.of, TypeTable)
            # the role read raises whether its column is kept or not
            for e in (merged.rel, merged.drop({"h"}).rel, Join(*(side.rel for side in sides))):
                with pytest.raises(EvalError, match=message):
                    evaluate(e, pop)

    def test_self_join_on_a_role_is_kept(self):
        pop = fact_pop()
        rules = JoinRules(pop.schema)
        # facts that share their first filler: a many-to-many join
        e = rules.join(
            rules.columns(TypeTable("a", "G"), {"h": AttrRole("a", "q1"), "x": Attr("a")}),
            rules.columns(TypeTable("b", "G"), {"h": AttrRole("b", "q1"), "y": Attr("b")}),
        )
        assert isinstance(e.rel, Join)
        assert evaluate(e.rel, pop).body.cardinality() == 5

    def test_semi_join_with_a_subtype_table_is_kept(self):
        pop = fact_pop()
        rules = JoinRules(pop.schema)
        fillers = rules.columns(TypeTable("f", "G"), {"p": AttrRole("f", "q1")})
        small = rules.join(fillers, rules.columns(TypeTable("p", "Small")))
        assert isinstance(small.rel, Join)
        assert evaluate(small.rel, pop) == rel(["p"], (1,), (1,))
        # the player's own table filters nothing, so its join goes
        player = rules.join(rules.columns(TypeTable("p", "V")), fillers)
        assert player.of is fillers.of and player.assigns == fillers.assigns
        assert evaluate(player.rel, pop) == evaluate(Join(TypeTable("p", "V"), fillers.rel), pop) == rel(["p"], (1,), (1,), (2,))

    def test_semi_join_on_a_padded_column_is_kept(self):
        pop = fact_pop()
        rules = JoinRules(pop.schema)
        # p is on one operand of the union only; 5 and 6 fill no first
        # role, so their rows are padded with NULL
        facts = Project({"a": AttrRole("f", "q1"), "p": AttrRole("f", "q2")}, TypeTable("f", "G"))
        padded = SetOp(TypeTable("a", "V"), "union", facts)
        assert evaluate(padded, pop) == rel(
            ["a", "p"], *[(1, 5)] * 3, *[(1, 6)] * 3, (2, 5), (2, 5), (5, NULL), (6, NULL)
        )
        e = rules.join(rules.columns(padded), rules.columns(TypeTable("p", "V")))
        assert isinstance(e.rel, Join)
        assert evaluate(e.rel, pop) == rel(["a", "p"], *[(1, 5)] * 3, *[(1, 6)] * 3, (2, 5), (2, 5))

    def test_join_with_an_undeclared_supertype_still_raises(self):
        schema = make_schema({
            "types": {"V": "value", "G": "relationship"},
            "specialises": {"V": "Ghost"},
            "roles_of": {"G": ["q1", "q2"]},
            "player": {"q1": "V", "q2": "V"},
        })
        pop = make_population(schema, {"G": [{"q1": 1, "q2": 2}]})
        rules = JoinRules(schema)
        e = rules.join(rules.columns(TypeTable("f", "G"), {"p": AttrRole("f", "q1")}), rules.columns(TypeTable("p", "Ghost")))
        with pytest.raises(SchemaError, match="unknown type 'Ghost'"):
            evaluate(e.rel, pop)

    def test_merged_shared_sub_plan_is_evaluated_once(self, counted):
        pop, calls = counted
        rules = JoinRules(pop.schema)
        shared = rules.join(rules.columns(TypeTable("k", "X")), rules.columns(TypeTable("j", "X"), {"k": Attr("j"), "m": Attr("j")})).rel
        e = SetOp(shared, "union", SetOp(shared, "intersect", shared))
        assert isinstance(e.left, Project)
        assert e.left is e.right.left is e.right.right
        assert evaluate(e, pop) == Relation(("k", "m"), Bag.from_counts([((v, v), 2) for v in (1, 2, 3)]))
        assert len(calls) == 1


class TestRoleTotality:
    """An unread role read from the table of a fact type that no rule
    derives is dropped, since each of its instances fills every role; read
    from anything else, it still raises."""

    SIDES = {"h": AttrRole("f", "q1"), "t": AttrRole("f", "q2")}

    def test_dropped_over_a_base_fact_types_table(self):
        pop = fact_pop()
        e = JoinRules(pop.schema).columns(TypeTable("f", "G"), dict(self.SIDES)).drop({"t"}).rel
        assert e == Project({"h": AttrRole("f", "q1")}, TypeTable("f", "G"))
        assert evaluate(e, pop) == rel(["h"], (1,), (1,), (2,))

    def test_kept_over_a_derived_types_table(self):
        schema = fact_pop().schema
        schema.revise(derivations=[TypeRule("G", None)])
        # a derived fact type's instances are what its rule gives, so one
        # may lack a role
        pop = Population(schema, {"G": Bag([FactInstance({"q1": 1})])})
        e = JoinRules(schema).columns(TypeTable("f", "G"), dict(self.SIDES)).drop({"t"}).rel
        with pytest.raises(EvalError, match="not defined for role 'q2'"):
            evaluate(e, pop)

    def test_kept_over_a_literal_of_facts(self, pop):
        facts = lit(["f"], (FactInstance({"q1": 1}),))
        e = JoinRules(pop.schema).columns(facts, dict(self.SIDES)).drop({"t"}).rel
        with pytest.raises(EvalError, match="not defined for role 'q2'"):
            evaluate(e, pop)


class TestHeaders:
    """Every relational node carries its header and the slot of each of its
    attributes from the moment it is built."""

    @pytest.mark.parametrize("text", [TWO_FACT_JOIN, CORRELATED])
    def test_every_node_of_a_translated_plan(self, monkeypatch, text):
        pop = demo_session().base_pop
        plan = translated_plan(monkeypatch, text)
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
    # evaluator's isinstance tests still name it
    seen = set()
    for _, schema, _, expr, typing in all_cases():
        seen.update(type(x) for x in plan_objects(translate(schema, expr, typing)))
    assert relalg.RA_KINDS - seen == set()


class TestInterning:
    """``compile_plan`` maps each node of a plan to the one node that the
    schema's table holds for its structure, and each such node keeps its
    compiled code, so a structure is compiled once for all plans."""

    @staticmethod
    def fresh(e):
        """A structural copy of ``e`` that shares no node with it but its
        literals."""
        if isinstance(e, Literal):
            return e
        return dataclasses.replace(walk.map_children(e, TestInterning.fresh, kinds=relalg.RA_KINDS))

    def test_a_second_plan_builds_only_its_new_nodes(self, counted, monkeypatch):
        pop, _ = counted
        built = []
        for builders in relalg._BUILDERS.values():
            for kind, build in builders.items():
                monkeypatch.setitem(builders, kind, lambda c, x, layout, build=build: built.append(type(x)) or build(c, x, layout))
        sub = Select(Compare(Attr("k"), ">", Const(1)), TypeTable("k", "X"))
        first = relalg.compile_plan(sub, pop.schema)
        assert sorted(k.__name__ for k in built) == ["Attr", "Compare", "Const", "Select", "TypeTable"]
        built.clear()
        second = relalg.compile_plan(Project({"v": Apply("+", [Attr("k"), Const(1)])}, self.fresh(sub)), pop.schema)
        # the sub-plan, and the scalars it reads over the same rows, were
        # compiled with the first plan
        assert built == [Project, Apply] and second.root.of is first.root
        built.clear()
        assert relalg.compile_plan(self.fresh(second.root), pop.schema).root is second.root
        assert built == []
        assert evaluate(second, pop) == rel(["v"], (3,), (4,))

    def test_every_node_of_a_plan_is_the_tables_node_of_its_structure(self):
        plans = 0
        for _, schema, _, expr, typing in all_cases():
            plan = relalg.compile_plan(translate(schema, expr, typing), schema)
            held = {id(node) for node in schema.subplans.values()}
            stack = [plan.root]
            while stack:
                node = stack.pop()
                # a literal is its own node and has no entry
                assert isinstance(node, Literal) or id(node) in held
                assert relalg._interned(self.fresh(node), schema.subplans) is node
                stack.extend(walk.children(node, relalg.RA_KINDS))
            plans += 1
        assert plans > 100
