"""Typing inference, head/tail analysis, binding, coercion, normalisation,
macros, derivation rules, constraints and ordering."""

from fractions import Fraction

import pytest

from conquer.bag import Bag
from conquer.errors import EvalError, MacroError, TypingError
from conquer.paths import (
    AttrAtom,
    ByPath,
    CScalarComp,
    Concat,
    Denote,
    Front,
    FrontUnion,
    MixFix,
    OrderKey,
    PathUnion,
    RelCompare,
    Reverse,
    RoleEntry,
    SApply,
    SConst,
    SVar,
    Scalar,
    TypeAtom,
    Where,
    apply_derivations,
    bind,
    bind_attr,
    canonical,
    check_constraint,
    concat,
    expand_macro,
    head_tail_combos,
    hd_coerce,
    infer_typing,
    normalise,
    order_result,
    role_exit,
    tl_coerce,
)
from conquer.population import load_population
from conquer.relalg import TypeTable
from conquer.schema import FactRule, Macro, TypeRule, load_schema
from conquer.values import NULL

from .conftest import run_path
from .util import rel


@pytest.fixture
def work_schema():
    """People, their salaries and companies; Student and Employee subtypes."""
    return load_schema(
        {
            "types": {
                "Person": "entity",
                "Student": "entity",
                "Employee": "entity",
                "Salary": "entity",
                "Company": "entity",
                "Amount": "value",
                "PName": "value",
                "CName": "value",
                "Earns": "relationship",
                "Works": "relationship",
                "PN": "relationship",
                "SA": "relationship",
                "CN": "relationship",
            },
            "specialises": {"Student": "Person", "Employee": "Person"},
            "roles_of": {
                "Earns": ["e1", "e2"],
                "Works": ["w1", "w2"],
                "PN": ["pn1", "pn2"],
                "SA": ["sa1", "sa2"],
                "CN": ["cn1", "cn2"],
            },
            "player": {
                "e1": "Person",
                "e2": "Salary",
                "w1": "Person",
                "w2": "Company",
                "pn1": "Person",
                "pn2": "PName",
                "sa1": "Salary",
                "sa2": "Amount",
                "cn1": "Company",
                "cn2": "CName",
            },
            "idf": {
                "Person": [["pn1", "pn2"]],
                "Salary": [["sa1", "sa2"]],
                "Company": [["cn1", "cn2"]],
                "Earns": ["e1", "e2"],
                "Works": ["w1", "w2"],
                "PN": ["pn1", "pn2"],
                "SA": ["sa1", "sa2"],
                "CN": ["cn1", "cn2"],
            },
            "naming": {
                "tnm": {
                    "Person": "Person",
                    "Student": "Student",
                    "Employee": "Employee",
                    "Salary": "Salary",
                    "Company": "Company",
                    "Amount": "Amount",
                    "PName": "PersonName",
                    "CName": "CompanyName",
                    "Earns": "Earning",
                    "Works": "Employment",
                },
                "pnm": {"e1": "earns", "w1": "works for"},
                "rnm": {"e2": "is earned by", "w2": "employs"},
            },
        }
    )


@pytest.fixture
def work_pop(work_schema):
    return load_population(
        work_schema,
        {
            "Person": ["ann", "bob"],
            "Salary": [1000, 2000],
            "Company": ["acme"],
            "Earns": [
                {"e1": "ann", "e2": 1000},
                {"e1": "bob", "e2": 2000},
            ],
            "Works": [
                {"w1": "ann", "w2": "acme"},
                {"w1": "bob", "w2": "acme"},
            ],
        },
    )


class TestTyping:
    def test_type_then_var(self, work_schema):
        t = infer_typing(work_schema, Concat(TypeAtom("Person"), AttrAtom("a")))
        assert t == frozenset({("a", "Person")})

    def test_var_then_role(self, work_schema):
        t = infer_typing(work_schema, Concat(AttrAtom("a"), RoleEntry("e1")))
        assert t == frozenset({("a", "Person")})

    def test_role_then_var_names_the_fact(self, work_schema):
        t = infer_typing(work_schema, Concat(RoleEntry("e1"), AttrAtom("a")))
        assert t == frozenset({("a", "Earns")})

    def test_exit_then_var(self, work_schema):
        t = infer_typing(work_schema, Concat(role_exit("e1"), AttrAtom("a")))
        assert t == frozenset({("a", "Person")})

    def test_no_attrs_no_pairs(self, work_schema):
        assert infer_typing(work_schema, TypeAtom("Person")) == frozenset()

    def test_incompatible_typing_rejected(self, work_schema):
        p = concat(TypeAtom("Person"), AttrAtom("a"), TypeAtom("Salary"), AttrAtom("a"))
        # 'a' would have to be both a Person and a Salary
        with pytest.raises(TypingError, match="incompatible"):
            infer_typing(work_schema, p)

    def test_related_double_typing_allowed(self, work_schema):
        p = PathUnion(
            Concat(TypeAtom("Student"), AttrAtom("a")),
            Concat(TypeAtom("Employee"), AttrAtom("a")),
        )
        t = infer_typing(work_schema, p)
        assert t == frozenset({("a", "Student"), ("a", "Employee")})

    def test_untypable_variable_rejected(self, work_schema):
        p = Where([(TypeAtom("Person"), CScalarComp(SVar("x"), ">", SConst(3)))])
        with pytest.raises(TypingError, match="untypable"):
            infer_typing(work_schema, p)


class TestHeadTail:
    def test_type_atom_pairs(self, work_schema):
        t = frozenset()
        combos = head_tail_combos(work_schema, TypeAtom("Student"), t)
        related = work_schema.related_to("Student")
        assert combos == {(u, v) for u in related for v in related}
        assert ("Person", "Employee") in combos

    def test_role_entry_pairs(self, work_schema):
        combos = head_tail_combos(work_schema, RoleEntry("e1"), frozenset())
        assert ("Person", "Earns") in combos
        assert ("Student", "Earns") in combos

    def test_reverse_transposes(self, work_schema):
        p = RoleEntry("e1")
        fwd = head_tail_combos(work_schema, p, frozenset())
        rev = head_tail_combos(work_schema, Reverse(p), frozenset())
        assert rev == {(v, u) for (u, v) in fwd}

    def test_disjoint_concat_is_empty(self, work_schema):
        p = Concat(TypeAtom("Person"), TypeAtom("Salary"))
        assert head_tail_combos(work_schema, p, frozenset()) == set()

    def test_empty_combos_means_empty_evaluation(self, work_schema, work_pop):
        p = Concat(TypeAtom("Person"), TypeAtom("Salary"))
        out = run_path(work_schema, work_pop, p)
        assert not out.body

    def test_mixfix_combos(self, work_schema):
        m = MixFix("e1", (), "e2")
        combos = head_tail_combos(work_schema, m, frozenset())
        assert ("Person", "Salary") in combos
        assert ("Person", "Company") not in combos


class TestBind:
    def test_bind_subtype_uses_root(self, work_schema):
        e = bind_attr(work_schema, frozenset({("a", "Student")}), "a")
        assert e == TypeTable("a", "Person")

    def test_bind_two_related_types_shared_root_deduplicates(self, work_schema):
        t = frozenset({("a", "Student"), ("a", "Employee")})
        assert bind_attr(work_schema, t, "a") == TypeTable("a", "Person")

    def test_bind_empty_typing(self, work_schema):
        assert bind(work_schema, frozenset()) == {}


class TestCoercion:
    def test_tail_coercion_descends_to_value(self, work_schema):
        p = concat(TypeAtom("Person"), RoleEntry("e1"), role_exit("e2"))
        coerced = tl_coerce(work_schema, p, frozenset())
        assert coerced == concat(p, RoleEntry("sa1"), role_exit("sa2"))

    def test_value_tail_is_identity(self, work_schema):
        p = TypeAtom("Amount")
        assert tl_coerce(work_schema, p, frozenset()) == p

    def test_ambiguous_tail_is_identity(self, work_schema):
        p = PathUnion(TypeAtom("Person"), TypeAtom("Person"))
        # heads relate to Student and Employee as well: not a singleton
        assert tl_coerce(work_schema, p, frozenset()) == p

    def test_head_coercion(self, work_schema):
        p = TypeAtom("Salary")
        coerced = hd_coerce(work_schema, p, frozenset())
        assert coerced == concat(RoleEntry("sa2"), role_exit("sa1"), p)

    def test_coerced_comparison_evaluates(self, work_schema, work_pop):
        salary_of = concat(TypeAtom("Person"), RoleEntry("e1"), role_exit("e2"))
        coerced = tl_coerce(work_schema, salary_of, frozenset())
        p = RelCompare(coerced, ">", Scalar(SConst(1500)))
        out = run_path(work_schema, work_pop, p)
        heads = Bag.from_counts((t[out.header.index("hd")], n) for t, n in out.rows())
        from conquer.values import EntityInstance

        assert heads == Bag([EntityInstance("Person", ("bob",))])


class TestNormalise:
    def test_entry_fact_exit_becomes_mixfix(self, work_schema):
        p = concat(TypeAtom("Person"), RoleEntry("e1"), TypeAtom("Earns"), role_exit("e2"), TypeAtom("Salary"))
        n = normalise(work_schema, p)
        assert n == concat(TypeAtom("Person"), MixFix("e1", (), "e2"), TypeAtom("Salary"))

    def test_entry_exit_becomes_mixfix(self, work_schema):
        p = concat(RoleEntry("e1"), role_exit("e2"))
        assert normalise(work_schema, p) == MixFix("e1", (), "e2")

    def test_subtype_between_roles_is_kept(self):
        schema = load_schema(
            {
                "types": {"V": "value", "F": "relationship", "FSub": "relationship"},
                "specialises": {"FSub": "F"},
                "roles_of": {"F": ["p", "q"]},
                "player": {"p": "V", "q": "V"},
                "idf": {"F": ["p", "q"]},
                "naming": {"tnm": {"V": "Val", "F": "F", "FSub": "FSub"}},
            }
        )
        p = concat(RoleEntry("p"), TypeAtom("FSub"), role_exit("q"))
        assert normalise(schema, p) == p

    def test_value_type_scalar_becomes_denotation(self, work_schema):
        p = Concat(TypeAtom("Amount"), Scalar(SConst(1000)))
        n = normalise(work_schema, p)
        assert n == Denote("Amount", ByPath(Scalar(SConst(1000))))

    def test_type_variable_form_is_kept(self, work_schema):
        p = Concat(TypeAtom("Amount"), AttrAtom("x"))
        assert normalise(work_schema, p) == p

    def test_front_ops_fuse(self, work_schema):
        p = PathUnion(Front(TypeAtom("Person")), Front(TypeAtom("Student")))
        assert normalise(work_schema, p) == FrontUnion(TypeAtom("Person"), TypeAtom("Student"))

    def test_fixpoint_stable(self, work_schema):
        p = concat(TypeAtom("Person"), MixFix("e1", (), "e2"), TypeAtom("Salary"))
        assert normalise(work_schema, p) == p

    def test_normalise_preserves_evaluation(self, work_schema, work_pop):
        p = concat(TypeAtom("Person"), RoleEntry("e1"), TypeAtom("Earns"), role_exit("e2"))
        n = normalise(work_schema, p)
        assert n != p
        assert run_path(work_schema, work_pop, p) == run_path(work_schema, work_pop, n)


class TestCanonical:
    def test_concat_associativity_is_erased(self):
        a, b, c = TypeAtom("A"), TypeAtom("B"), TypeAtom("C")
        assert canonical(Concat(Concat(a, b), c)) == canonical(Concat(a, Concat(b, c)))


class TestMacros:
    def test_scalar_macro(self, work_schema):
        work_schema.macros["twice"] = Macro("twice", ("a",), SApply("*", [SConst(2), SVar("a")]), "scalar")
        out = expand_macro(work_schema, "twice", [SConst(5)])
        assert out == SApply("*", [SConst(2), SConst(5)])

    def test_zero_argument_macro(self, work_schema):
        body = TypeAtom("Person")
        work_schema.macros["everyone"] = Macro("everyone", (), body, "path")
        assert expand_macro(work_schema, "everyone", []) == body

    def test_path_macro_threads_fresh_attr(self, work_schema):
        body = PathUnion(AttrAtom("a"), AttrAtom("a"))
        work_schema.macros["both"] = Macro("both", ("a",), body, "path")
        arg = TypeAtom("Person")
        out = expand_macro(work_schema, "both", [arg], fresh=lambda: "~b1")
        assert out == PathUnion(Concat(AttrAtom("~b1"), arg), Concat(AttrAtom("~b1"), arg))

    def test_default_fresh_names_restart_per_expansion(self, work_schema):
        work_schema.macros["both"] = Macro("both", ("a",), PathUnion(AttrAtom("a"), AttrAtom("a")), "path")
        first = expand_macro(work_schema, "both", [TypeAtom("Person")])
        assert first == expand_macro(work_schema, "both", [TypeAtom("Person")])

    def test_arity_mismatch(self, work_schema):
        work_schema.macros["m"] = Macro("m", ("a",), AttrAtom("a"), "path")
        with pytest.raises(MacroError, match="expects 1"):
            expand_macro(work_schema, "m", [])

    def test_unknown_macro(self, work_schema):
        with pytest.raises(MacroError, match="unknown macro"):
            expand_macro(work_schema, "nope", [])


class TestDerivations:
    def make_product_schema(self):
        return load_schema(
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
                    "x1": "Product",
                    "x2": "MoneyAmt",
                    "t1": "Product",
                    "t2": "MoneyAmt",
                    "pc1": "Product",
                    "pc2": "PCode",
                },
                "idf": {"Product": [["pc1", "pc2"]], "ExTax": ["x1", "x2"], "Taxed": ["t1", "t2"], "PC": ["pc1", "pc2"]},
                "naming": {"tnm": {"Product": "Product", "MoneyAmt": "MoneyAmt"}},
            }
        )

    def test_fact_rule_taxed_price(self):
        schema = self.make_product_schema()
        # MoneyAmt a = 1.5 * (ex-tax amount of Product p)
        ex_tax_of = concat(RoleEntry("x2"), role_exit("x1"), TypeAtom("Product"), AttrAtom("p"))
        from conquer.paths import FuncApp

        scaled = FuncApp("*", [Scalar(SConst(Fraction(3, 2))), ex_tax_of])
        body = RelCompare(Concat(TypeAtom("MoneyAmt"), AttrAtom("a")), "=", scaled)
        schema.derivations.append(FactRule("Taxed", (("t1", "p"), ("t2", "a")), body))

        prices = {"alpha": 10, "beta": 30, "gamma": 7, "delta": 100, "eps": 1}
        pop = load_population(
            schema,
            {
                "Product": list(prices),
                "MoneyAmt": sorted(set(prices.values()) | {v * Fraction(3, 2) for v in prices.values()}),
                "ExTax": [{"x1": p, "x2": v} for p, v in prices.items()],
            },
        )
        derived = apply_derivations(schema, pop)
        taxed = derived.instances("Taxed")
        from conquer.values import EntityInstance, FactInstance

        expected = Bag(
            [
                FactInstance({"t1": EntityInstance("Product", (p,)), "t2": v * Fraction(3, 2)})
                for p, v in prices.items()
            ]
        )
        assert taxed == expected

    def test_type_rule_small_communities(self):
        schema = load_schema(
            {
                "types": {
                    "Community": "entity",
                    "Town": "entity",
                    "CName": "value",
                    "PopCount": "value",
                    "HasPop": "relationship",
                    "CN": "relationship",
                },
                "specialises": {"Town": "Community"},
                "roles_of": {"HasPop": ["h1", "h2"], "CN": ["cname1", "cname2"]},
                "player": {"h1": "Community", "h2": "PopCount", "cname1": "Community", "cname2": "CName"},
                "idf": {"Community": [["cname1", "cname2"]], "HasPop": ["h1", "h2"], "CN": ["cname1", "cname2"]},
                "naming": {"tnm": {"Community": "Community", "Town": "Town-or-village"}},
            }
        )
        body = Front(
            RelCompare(
                concat(TypeAtom("Community"), RoleEntry("h1"), role_exit("h2")),
                "<=",
                Scalar(SConst(100000)),
            )
        )
        schema.derivations.append(TypeRule("Town", body))
        pop = load_population(
            schema,
            {
                "Community": ["springfield", "smallville"],
                "HasPop": [
                    {"h1": "springfield", "h2": 2000000},
                    {"h1": "smallville", "h2": 4000},
                ],
            },
        )
        derived = apply_derivations(schema, pop)
        from conquer.values import EntityInstance

        assert derived.instances("Town") == Bag([EntityInstance("Community", ("smallville",))])
        # base populations untouched
        assert derived.instances("Community") == pop.instances("Community")

    def test_rule_with_empty_body_result(self):
        doc = {
            "types": {
                "Product": "entity",
                "Expensive": "entity",
                "PCode": "value",
                "MoneyAmt": "value",
                "ExTax": "relationship",
                "PC": "relationship",
            },
            "specialises": {"Expensive": "Product"},
            "roles_of": {"ExTax": ["x1", "x2"], "PC": ["pc1", "pc2"]},
            "player": {"x1": "Product", "x2": "MoneyAmt", "pc1": "Product", "pc2": "PCode"},
            "idf": {"Product": [["pc1", "pc2"]], "ExTax": ["x1", "x2"], "PC": ["pc1", "pc2"]},
            "naming": {"tnm": {"Product": "Product"}},
        }
        schema = load_schema(doc)
        body = Front(
            RelCompare(
                concat(TypeAtom("Product"), RoleEntry("x1"), role_exit("x2")),
                ">",
                Scalar(SConst(10**9)),
            )
        )
        schema.derivations.append(TypeRule("Expensive", body))
        pop = load_population(schema, {"Product": ["a"], "ExTax": [{"x1": "a", "x2": 5}]})
        derived = apply_derivations(schema, pop)
        assert not derived.instances("Expensive")

    def test_cyclic_rules_rejected(self):
        schema = self.make_product_schema()
        schema.derivations.append(TypeRule("Product", Front(TypeAtom("Product"))))
        pop = load_population(schema, {})
        with pytest.raises(EvalError, match="cyclic"):
            apply_derivations(schema, pop)


class TestConstraints:
    def test_nonempty_type_constraint(self, work_schema, work_pop):
        assert check_constraint(work_schema, TypeAtom("Person"), work_pop) is True

    def test_empty_population_fails(self, work_schema):
        empty = load_population(work_schema, {})
        assert check_constraint(work_schema, TypeAtom("Person"), empty) is False

    def test_subset_style_constraint(self, work_schema, work_pop):
        # every worker earns something: Works heads within Earns heads
        from conquer.paths import CondPath, CBagComp

        works = Front(RoleEntry("w1"))
        earns = Front(RoleEntry("e1"))
        constraint = CondPath(CBagComp(works, "subeq", earns))
        assert check_constraint(work_schema, constraint, work_pop) is True


class TestOrdering:
    def test_single_key_sort(self):
        r = rel(["hd"], (3,), (1,), (2,))
        rows = order_result(r, [OrderKey("hd", "asc")])
        assert [t[0] for t in rows] == [1, 2, 3]

    def test_bag_multiplicity_expands(self):
        r = rel(["hd"], (2,), (2,), (1,))
        rows = order_result(r, [OrderKey("hd", "asc")])
        assert [t[0] for t in rows] == [1, 2, 2]

    def test_nulls_last_ascending_first_descending(self):
        r = rel(["hd"], (NULL,), (2,), (1,))
        asc = order_result(r, [OrderKey("hd", "asc")])
        assert [t[0] for t in asc] == [1, 2, NULL]
        desc = order_result(r, [OrderKey("hd", "desc")])
        assert [t[0] for t in desc] == [NULL, 2, 1]

    def test_two_key_sort(self):
        r = rel(["hd", "x"], ("a", 1), ("b", 5), ("a", 3), ("a", 3))
        rows = order_result(r, [OrderKey("hd", "asc"), OrderKey("x", "desc")])
        assert rows == [
            ("a", 3),
            ("a", 3),
            ("a", 1),
            ("b", 5),
        ]

    def test_unknown_attribute(self):
        r = rel(["hd"], (1,))
        with pytest.raises(EvalError, match="unknown order attribute"):
            order_result(r, [OrderKey("nope", "asc")])
