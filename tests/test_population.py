"""Population loading, closure, and instance denotation."""

import dataclasses
from fractions import Fraction

import pytest

from conquer.bag import Bag
from conquer.errors import MacroError, PopulationError
from conquer.frontend import compile_schema_queries, disambiguate, parse
from conquer.population import denote_instance, load_population
from conquer.schema import load_schema
from conquer.values import EntityInstance, FactInstance

from .conftest import run_path


def person_doc():
    return {
        "types": {
            "Person": "entity",
            "Surname": "value",
            "Firstname": "value",
            "SN": "relationship",
            "FN": "relationship",
        },
        "roles_of": {"SN": ["sn1", "sn2"], "FN": ["fn1", "fn2"]},
        "player": {"sn1": "Person", "sn2": "Surname", "fn1": "Person", "fn2": "Firstname"},
        "idf": {
            "Person": [["sn1", "sn2"], ["fn1", "fn2"]],
            "SN": ["sn1", "sn2"],
            "FN": ["fn1", "fn2"],
        },
        "naming": {"tnm": {"Person": "Person", "Surname": "Surname", "Firstname": "Firstname"}},
    }


class TestLoading:
    def test_composite_entities(self):
        schema = load_schema(person_doc())
        pop = load_population(schema, {"Person": [["Halpin", "Terry"], ["Proper", "Erik"]]})
        instances = list(pop.instances("Person").elements())
        assert EntityInstance("Person", ("Halpin", "Terry")) in instances
        # reference facts are synthesised
        sn = pop.instances("SN")
        assert FactInstance({"sn1": EntityInstance("Person", ("Halpin", "Terry")), "sn2": "Halpin"}) in sn
        # and the identifying values land in their own populations
        assert "Terry" in pop.instances("Firstname")

    def test_role_fillers_close_into_player_populations(self):
        schema = load_schema(person_doc())
        pop = load_population(
            schema, {"SN": [{"sn1": ["Smith", "Ann"], "sn2": "Smith"}]}
        )
        assert EntityInstance("Person", ("Smith", "Ann")) in pop.instances("Person")

    def test_entity_instances_named_twice_are_one(self):
        schema = load_schema(person_doc())
        pop = load_population(schema, {
            "Person": [["Smith", "Ann"]],
            "SN": [{"sn1": ["Smith", "Ann"], "sn2": "Smith"}],
            "FN": [{"fn1": ["Smith", "Ann"], "fn2": "Ann"}],
        })
        assert list(pop.instances("Person").items()) == [(EntityInstance("Person", ("Smith", "Ann")), 1)]

    def test_unknown_type_rejected(self):
        schema = load_schema(person_doc())
        with pytest.raises(PopulationError, match="unknown type"):
            load_population(schema, {"Martian": [1]})

    def test_wrong_fact_roles_rejected(self):
        schema = load_schema(person_doc())
        with pytest.raises(PopulationError, match="must fill roles"):
            load_population(schema, {"SN": [{"sn1": ["a", "b"]}]})


class TestDenote:
    def test_atomic_value(self):
        schema = load_schema(person_doc())
        pop = load_population(schema, {})
        assert denote_instance(5, pop) == [5]

    def test_composite_surname_firstname(self):
        schema = load_schema(person_doc())
        pop = load_population(schema, {"Person": [["Halpin", "Terry"]]})
        person = EntityInstance("Person", ("Halpin", "Terry"))
        assert denote_instance(person, pop) == ["Halpin", "Terry"]

    def test_simple_number_identification(self):
        doc = {
            "types": {"Customer": "entity", "Nr": "value", "CN": "relationship"},
            "roles_of": {"CN": ["c1", "c2"]},
            "player": {"c1": "Customer", "c2": "Nr"},
            "idf": {"Customer": [["c1", "c2"]], "CN": ["c1", "c2"]},
            "naming": {"tnm": {"Customer": "Customer"}},
        }
        schema = load_schema(doc)
        pop = load_population(schema, {"Customer": [17]})
        assert denote_instance(EntityInstance("Customer", (17,)), pop) == [17]

    def test_fact_instance_expands_role_wise(self):
        schema = load_schema(person_doc())
        pop = load_population(schema, {"Person": [["Halpin", "Terry"]]})
        fact = next(iter(pop.instances("SN").distinct()))
        assert denote_instance(fact, pop) == ["Halpin", "Terry", "Halpin"]


class TestDenotationQueries:
    def test_value_denotation_filters(self):
        from .test_cli import eval_pop_doc, eval_schema_doc

        schema = load_schema(eval_schema_doc())
        pop = load_population(schema, eval_pop_doc())
        result = disambiguate(schema, parse("the Person: 'ann'", schema))
        out = run_path(schema, pop, result.interpretations[0].path)
        heads = {t[out.header.index("hd")] for t, _ in out.rows()}
        assert heads == {EntityInstance("Person", ("ann",))}


class TestMacroCompilation:
    def test_recursive_macro_rejected(self):
        doc = person_doc()
        doc["macros"] = [{"name": "Loop", "params": [], "body": "Loop()"}]
        schema = load_schema(doc)
        with pytest.raises(MacroError, match="recursive"):
            compile_schema_queries(schema)

    def test_macro_compiles_and_expands(self):
        doc = person_doc()
        doc["macros"] = [{"name": "Everyone", "params": [], "body": "ONLY a Person"}]
        doc["naming"]["pre"] = {"Person": {"undetermined": "a"}}
        schema = load_schema(doc)
        compile_schema_queries(schema)
        assert schema.macros["Everyone"].kind == "path"
        result = parse("Everyone()", schema)
        from conquer.paths import Front, TypeAtom

        assert result.interpretations[0].path == Front(TypeAtom("Person"))


class TestEntityHash:
    def test_equal_instances_hash_equal(self):
        assert hash(EntityInstance("P", ("a", 1))) == hash(EntityInstance("P", ("a", 1)))
        one, fraction_one = EntityInstance("P", (1,)), EntityInstance("P", (Fraction(1),))
        assert one == fraction_one and hash(one) == hash(fraction_one)
        assert len({one, fraction_one, EntityInstance("Q", (1,))}) == 2

    def test_replaced_instance_hashes_like_a_fresh_one(self):
        replaced = dataclasses.replace(EntityInstance("P", ("a",)), key=("b",))
        assert replaced == EntityInstance("P", ("b",))
        assert hash(replaced) == hash(EntityInstance("P", ("b",)))
        assert repr(replaced) == "P('b')"
