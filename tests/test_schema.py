import json
from pathlib import Path

import pytest

from conquer.cli import load_full_schema
from conquer.errors import PopulationError, SchemaError
from conquer.population import load_population
from conquer.schema import MFixEntry, Role, load_schema, validate_schema

DEMO = Path(__file__).resolve().parent.parent / "demo"


def fig_doc():
    """The three-role example: A, B, C playing p, q, r in F, plus a second
    fact type G providing a legal homonym for the role name "has"."""
    return {
        "types": {
            "A": "entity",
            "B": "entity",
            "C": "entity",
            "F": "relationship",
            "G": "relationship",
            "Name": "value",
            "AN": "relationship",
            "BN": "relationship",
            "CN": "relationship",
        },
        "roles_of": {
            "F": ["p", "q", "r"],
            "G": ["g1", "g2"],
            "AN": ["an1", "an2"],
            "BN": ["bn1", "bn2"],
            "CN": ["cn1", "cn2"],
        },
        "player": {
            "p": "A",
            "q": "B",
            "r": "C",
            "g1": "C",
            "g2": "B",
            "an1": "A",
            "an2": "Name",
            "bn1": "B",
            "bn2": "Name",
            "cn1": "C",
            "cn2": "Name",
        },
        "idf": {
            "A": [["an1", "an2"]],
            "B": [["bn1", "bn2"]],
            "C": [["cn1", "cn2"]],
            "F": ["p", "q", "r"],
            "G": ["g1", "g2"],
            "AN": ["an1", "an2"],
            "BN": ["bn1", "bn2"],
            "CN": ["cn1", "cn2"],
        },
        "naming": {
            "tnm": {"A": "President", "B": "Result", "C": "Election", "F": "Election-result", "G": "Outcome"},
            "pnm": {"p": "has", "q": "are in", "g1": "has"},
            "rnm": {"p": "are of", "q": "has as", "r": "is for"},
        },
    }


def student_pa_doc():
    """The demo schema, with Student a subtype of Person, and Person
    identified by its name and by the Student it is paired with in PA."""
    doc = json.loads((DEMO / "schema.json").read_text())
    doc["types"].update({"Student": "entity", "PA": "relationship"})
    doc["specialises"] = {"Student": "Person"}
    doc["roles_of"]["PA"] = ["pa1", "pa2"]
    doc["player"].update({"pa1": "Person", "pa2": "Student"})
    doc["idf"].update({"Person": [["pn1", "pn2"], ["pa1", "pa2"]], "PA": ["pa1", "pa2"]})
    return doc


class TestValidation:
    def test_valid_schema_has_no_diagnostics(self):
        schema = load_schema(fig_doc())
        assert validate_schema(schema) == []

    def test_empty_schema_is_valid(self):
        assert validate_schema(load_schema({"types": {}})) == []

    def test_duplicate_type_names(self):
        doc = fig_doc()
        doc["naming"]["tnm"]["B"] = "President"
        diags = validate_schema(load_schema(doc))
        assert len(diags) == 1
        assert "not unique" in diags[0] and "President" in diags[0]

    def test_duplicate_role_name_within_fact(self):
        doc = fig_doc()
        doc["naming"]["pnm"]["q"] = "has"  # p and q share a fact type
        diags = validate_schema(load_schema(doc))
        assert any("role name 'has' is not unique within 'F'" in d for d in diags)

    def test_mixfix_arity(self):
        doc = fig_doc()
        doc["naming"]["mfix"] = [["F", ["one part only"], ["p", "q", "r"]]]
        with pytest.raises(SchemaError, match="naming.mfix"):
            load_schema(doc)

    def test_mixfix_roles_of_another_fact_type(self):
        doc = json.loads((DEMO / "schema.json").read_text())
        doc["naming"]["mfix"].append(["F", ["earns"], ["q1", "q2"]])
        assert validate_schema(load_schema(doc)) == ["mix-fix entry ('earns',) names 'F' but its roles belong to 'G'"]

    def test_mixfix_of_an_undeclared_fact_type(self):
        doc = json.loads((DEMO / "schema.json").read_text())
        doc["naming"]["mfix"].append(["Z", ["earns"], ["p1", "p2"]])
        assert validate_schema(load_schema(doc)) == ["mix-fix entry ('earns',) names undeclared fact type 'Z'"]

    def test_missing_reference_scheme(self):
        doc = fig_doc()
        del doc["idf"]["A"]
        diags = validate_schema(load_schema(doc))
        assert any("no reference scheme" in d and "'A'" in d for d in diags)

    def test_cyclic_reference_chain(self):
        doc = {
            "types": {"X": "entity", "Y": "entity", "RX": "relationship", "RY": "relationship"},
            "roles_of": {"RX": ["rx1", "rx2"], "RY": ["ry1", "ry2"]},
            "player": {"rx1": "X", "rx2": "Y", "ry1": "Y", "ry2": "X"},
            "idf": {"X": [["rx1", "rx2"]], "Y": [["ry1", "ry2"]], "RX": ["rx1"], "RY": ["ry1"]},
            "naming": {},
        }
        diags = validate_schema(load_schema(doc))
        assert any("cyclic" in d for d in diags)

    def test_cycle_through_a_composite_reference_scheme(self):
        # Person is identified by a name and by another Person: no instance
        # of it can be written down, which loading reports too
        doc = json.loads((DEMO / "schema.json").read_text())
        doc["types"]["PA"] = "relationship"
        doc["roles_of"]["PA"] = ["pa1", "pa2"]
        doc["player"].update({"pa1": "Person", "pa2": "Person"})
        doc["idf"].update({"Person": [["pn1", "pn2"], ["pa1", "pa2"]], "PA": ["pa1", "pa2"]})
        schema = load_schema(doc)
        assert validate_schema(schema) == ["reference scheme chain starting at 'Person' is cyclic"]
        with pytest.raises(PopulationError, match="cyclic"):
            load_population(schema, {"Person": [["ann", "bob"]]})

    def test_cycle_through_a_subtypes_inherited_scheme(self):
        # a Student has no scheme of its own and is identified through
        # Person's, which names a Student
        schema = load_schema(student_pa_doc())
        assert validate_schema(schema) == ["reference scheme chain starting at 'Person' is cyclic"]
        with pytest.raises(PopulationError, match="'Student' is cyclic"):
            load_population(schema, {"Person": [["ann", ["bob", "cy"]]]})

    def test_cycle_through_a_roles_scheme(self):
        # a Company is identified by the Person of its G fact, and a Person
        # by the Company of its own: both lie on the cycle
        doc = json.loads((DEMO / "schema.json").read_text())
        doc["idf"].update({"Company": ["q1"], "Person": [["q1", "q2"]]})
        assert validate_schema(load_schema(doc)) == [
            "reference scheme chain starting at 'Company' is cyclic",
            "reference scheme chain starting at 'Person' is cyclic",
        ]

    def test_asymmetric_relatedness(self):
        schema = load_schema(fig_doc())
        schema.related["A"] = schema.related["A"] | {"B"}
        assert validate_schema(schema) == ["relatedness of 'A' and 'B' is not symmetric"]

    def test_reserved_type_ids(self):
        with pytest.raises(SchemaError, match="reserved"):
            load_schema({"types": {"Bool": "value"}})


class TestDocumentInputs:
    def test_flag_object_type_specs(self):
        doc = fig_doc()
        doc["types"].update({
            "Tag": {"is_value_type": True},
            "Pair": {"is_relationship": True},
            "Nest": {"is_relationship": True, "is_nested": True},
            "Kind": {"kind": "nested"},
        })
        schema = load_schema(doc)
        assert schema.is_value("Tag") and not schema.is_relationship("Tag")
        assert all(schema.is_relationship(t) and not schema.is_value(t) for t in ("Pair", "Nest", "Kind"))

    @pytest.mark.parametrize(
        "flags", [{"is_nested": True}, {"is_nested": True, "is_relationship": True, "is_value_type": True}]
    )
    def test_a_nested_type_must_be_a_non_value_relationship(self, flags):
        doc = fig_doc()
        doc["types"]["Nest"] = flags
        with pytest.raises(SchemaError, match="nested type 'Nest' must be a non-value relationship type"):
            load_schema(doc)

    def test_related_and_unrelated_pairs(self):
        doc = fig_doc()
        doc["types"]["Student"] = "entity"
        doc["specialises"] = {"Student": "A"}
        doc["related"] = [["A", "B"]]
        doc["unrelated"] = [["Student", "A"]]
        schema = load_schema(doc)
        assert schema.type_related("A", "B") and schema.type_related("B", "A")
        assert not schema.type_related("Student", "A") and not schema.type_related("A", "Student")
        assert schema.roots_of("Student") == frozenset({"A"})

    def test_a_declared_role_with_no_player(self):
        doc = fig_doc()
        doc["roles"] = ["p", "x"]
        with pytest.raises(SchemaError, match="role 'x' has no player"):
            load_schema(doc)

    def test_the_object_form_of_a_mixfix_entry(self):
        doc = fig_doc()
        listed = ["F", ["has", "in"], ["p", "q", "r"]]
        doc["naming"]["mfix"] = [listed, {"rel": "G", "parts": ["of"], "roles": ["g1", "g2"]}]
        schema = load_schema(doc)
        assert schema.naming.mfix == [
            MFixEntry("F", ("has", "in"), ("p", "q", "r")), MFixEntry("G", ("of",), ("g1", "g2")),
        ]
        assert validate_schema(schema) == []

    def test_a_role_listed_under_two_fact_types(self):
        # the role declares the fact type that lists it last in the
        # document, and validation reads the fact types in sorted order
        doc = fig_doc()
        roles_of = doc["roles_of"]
        doc["roles_of"] = {"G": roles_of.pop("G") + ["p"], **roles_of}
        assert validate_schema(load_schema(doc)) == ["role 'p' appears in both 'F' and 'G'"]

    def test_a_role_that_declares_another_fact_type(self):
        schema = load_schema(fig_doc())
        schema.roles["p"] = Role("p", "A", "AN")
        assert validate_schema(schema) == ["role 'p' declares relationship 'AN' but is listed under 'F'"]

    def test_a_fact_rule_that_does_not_cover_its_roles(self):
        doc = json.loads((DEMO / "schema.json").read_text())
        doc["types"]["Staff"] = "relationship"
        doc["roles_of"]["Staff"] = ["st1", "st2"]
        doc["player"].update({"st1": "Company", "st2": "Person"})
        doc["idf"]["Staff"] = ["st1", "st2"]
        doc["derivations"] = [{"fact": "Staff", "roles": {"st2": "p"}, "body": "a Person p who works for a Company c"}]
        diags = validate_schema(load_full_schema(doc))
        assert diags == ["derivation rule for 'Staff' does not cover its roles exactly once"]

    @pytest.mark.parametrize("table, what", [("pnm", "role name"), ("rnm", "reverse role name")])
    def test_a_role_name_of_an_unknown_role(self, table, what):
        doc = fig_doc()
        doc["naming"][table]["zz"] = "names"
        assert validate_schema(load_schema(doc)) == [f"{what} given for unknown role 'zz'"]


class TestRelatedness:
    def test_reflexive(self):
        schema = load_schema(fig_doc())
        assert schema.type_related("A", "A")

    def test_subtypes_share_instances(self):
        doc = fig_doc()
        doc["types"]["Student"] = "entity"
        doc["types"]["CoWorker"] = "entity"
        doc["specialises"] = {"Student": "A", "CoWorker": "A"}
        schema = load_schema(doc)
        assert schema.type_related("Student", "CoWorker")
        assert schema.roots_of("Student") == frozenset({"A"})

    def test_unrelated_types(self):
        schema = load_schema(fig_doc())
        assert not schema.type_related("A", "B")

    def test_multi_rooted_hierarchy(self):
        doc = fig_doc()
        doc["types"]["M"] = "entity"
        doc["specialises"] = {"M": ["A", "B"]}
        schema = load_schema(doc)
        assert schema.roots_of("M") == frozenset({"A", "B"})

    def test_roots_are_the_ancestors_that_specialise_nothing(self):
        doc = fig_doc()
        for tid in ("S", "T", "C1", "C2", "R"):
            doc["types"][tid] = "entity"
        # a diamond under A and an undeclared Agent; a cycle; a declared set
        doc["specialises"] = {"S": ["A", "T"], "T": ["A", "Agent"], "C1": "C2", "C2": "C1", "R": "A"}
        doc["roots"] = {"R": ["B"]}
        schema = load_schema(doc)
        assert schema.roots["S"] == frozenset({"A", "Agent"})
        assert schema.roots["A"] == frozenset({"A"})
        assert schema.roots["R"] == frozenset({"B"})
        assert schema.roots["C1"] == frozenset()
        assert "type 'C1' has an empty root set" in validate_schema(schema)

    def test_ancestors_of_every_named_type(self):
        doc = fig_doc()
        doc["types"]["Student"] = "entity"
        doc["specialises"] = {"Student": "A", "A": "Agent"}
        doc["player"]["p"] = "Pupil"
        schema = load_schema(doc)
        assert schema.ancestors["Student"] == frozenset({"Student", "A", "Agent"})
        # an undeclared supertype and an undeclared player are named too
        assert schema.ancestors["Agent"] == frozenset({"Agent"})
        assert schema.ancestors["Pupil"] == frozenset({"Pupil"})
        assert schema.ancestors["B"] == frozenset({"B"})

    def test_unknown_type_raises(self):
        schema = load_schema(fig_doc())
        with pytest.raises(SchemaError, match="unknown type"):
            schema.type_related("A", "Nope")
        with pytest.raises(SchemaError, match="unknown type"):
            schema.related_to("Nope")

    @pytest.mark.parametrize("doc", [fig_doc, lambda: (DEMO / "schema.json").read_text()], ids=["fig", "demo"])
    def test_relatedness_agrees_both_ways(self, doc):
        schema = load_schema(doc())
        types = list(schema.types)
        for x in types:
            for y in types:
                related = schema.type_related(x, y)
                assert (y in schema.related_to(x)) == related
                assert (x in schema.related_to(y)) == related


class TestLookups:
    def test_lookup_type(self):
        schema = load_schema(fig_doc())
        assert schema.lookup_type("President") == "A"
        assert schema.lookup_type("NoSuchType") is None

    def test_lookup_type_roundtrip(self):
        schema = load_schema(fig_doc())
        for tid, name in schema.naming.tnm.items():
            assert schema.lookup_type(name) == tid
