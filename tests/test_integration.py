"""End-to-end runs: query text through parsing, translation and evaluation."""

import pytest

from conquer.cli import Session, load_full_schema, run_query
from conquer.frontend import disambiguate, parse
from conquer.population import load_population

from .conftest import run_path


class TestSubtypeSelector:
    @pytest.fixture
    def schema(self):
        return load_full_schema(
            {
                "types": {
                    "Person": "entity",
                    "Employee": "entity",
                    "Student": "entity",
                    "Sal": "value",
                    "Hobby": "value",
                    "PName": "value",
                    "Earns": "relationship",
                    "Likes": "relationship",
                    "PN": "relationship",
                },
                "specialises": {"Employee": "Person", "Student": "Person"},
                "roles_of": {"Earns": ["e1", "e2"], "Likes": ["l1", "l2"], "PN": ["pn1", "pn2"]},
                "player": {
                    "e1": "Employee",
                    "e2": "Sal",
                    "l1": "Person",
                    "l2": "Hobby",
                    "pn1": "Person",
                    "pn2": "PName",
                },
                "idf": {"Person": [["pn1", "pn2"]], "Earns": ["e1", "e2"], "Likes": ["l1", "l2"], "PN": ["pn1", "pn2"]},
                "naming": {
                    "tnm": {
                        "Person": "Person",
                        "Employee": "Employee",
                        "Student": "Student",
                        "Sal": "Salary",
                        "Hobby": "Hobby",
                    },
                    "pre": {
                        t: {"undetermined": "some", "determined": "the"}
                        for t in ("Person", "Employee", "Student", "Sal", "Hobby")
                    },
                    "post": {"Person": "who", "Employee": "who", "Student": "who"},
                    "mfix": [
                        ["Earns", ["earned by"], ["e2", "e1"]],
                        ["Likes", ["enjoys"], ["l1", "l2"]],
                    ],
                },
            }
        )

    @pytest.fixture
    def pop(self, schema):
        # amy is both an employee and a student; bob is employee only
        return load_population(
            schema,
            {
                "Employee": ["amy", "bob"],
                "Student": ["amy"],
                "Earns": [{"e1": "amy", "e2": 900}, {"e1": "bob", "e2": 800}],
                "Likes": [{"l1": "amy", "l2": "Cycling"}, {"l1": "bob", "l2": "Cycling"}],
            },
        )

    def heads(self, schema, pop, text):
        result = disambiguate(schema, parse(text, schema))
        out = run_path(schema, pop, result.interpretations[0].path)
        return {t[out.header.index("hd")] for t, _ in out.rows()}

    def test_is_restricts_to_the_subtype(self, schema, pop):
        with_is = self.heads(
            schema, pop,
            "some Salary earned by some Employee who IS some Student who enjoys the Hobby: 'Cycling'",
        )
        assert with_is == {900}

    def test_without_is_any_related_player_passes(self, schema, pop):
        without = self.heads(
            schema, pop,
            "some Salary earned by some Employee who enjoys the Hobby: 'Cycling'",
        )
        assert without == {800, 900}


class TestComparisonCoercion:
    def test_entity_tail_coerces_to_its_value(self):
        schema = load_full_schema(
            {
                "types": {
                    "Person": "entity",
                    "Salary": "entity",
                    "Amount": "value",
                    "PName": "value",
                    "Earns": "relationship",
                    "SA": "relationship",
                    "PN": "relationship",
                },
                "roles_of": {"Earns": ["e1", "e2"], "SA": ["sa1", "sa2"], "PN": ["pn1", "pn2"]},
                "player": {
                    "e1": "Person",
                    "e2": "Salary",
                    "sa1": "Salary",
                    "sa2": "Amount",
                    "pn1": "Person",
                    "pn2": "PName",
                },
                "idf": {
                    "Person": [["pn1", "pn2"]],
                    "Salary": [["sa1", "sa2"]],
                    "Earns": ["e1", "e2"],
                    "SA": ["sa1", "sa2"],
                    "PN": ["pn1", "pn2"],
                },
                "naming": {
                    "tnm": {"Person": "Person", "Salary": "Salary", "Amount": "Amount"},
                    "pre": {
                        "Person": {"undetermined": "a"},
                        "Salary": {"undetermined": "a"},
                        "Amount": {"undetermined": "an"},
                    },
                    "post": {"Person": "who"},
                    "mfix": [["Earns", ["earns"], ["e1", "e2"]]],
                },
            }
        )
        pop = load_population(
            schema,
            {
                "Person": ["ann", "bob"],
                "Salary": [1000, 2000],
                "Earns": [{"e1": "ann", "e2": 1000}, {"e1": "bob", "e2": 2000}],
            },
        )
        # the path ends at the Salary entity; the comparison walks its
        # reference scheme down to the amount
        result = disambiguate(schema, parse("a Person who earns a Salary > 1500", schema))
        out = run_path(schema, pop, result.interpretations[0].path)
        from conquer.values import EntityInstance

        heads = {t[out.header.index("hd")] for t, _ in out.rows()}
        assert heads == {EntityInstance("Person", ("bob",))}


class TestConfluenceEvaluation:
    def test_gathered_columns_join_at_the_connection(self):
        schema = load_full_schema(
            {
                "types": {
                    "Budget": "value",
                    "Group": "entity",
                    "Person": "entity",
                    "BG": "relationship",
                    "WG": "relationship",
                    "GN": "relationship",
                    "PN": "relationship",
                    "GNm": "value",
                    "PNm": "value",
                },
                "roles_of": {
                    "BG": ["bg1", "bg2"],
                    "WG": ["wg1", "wg2"],
                    "GN": ["gn1", "gn2"],
                    "PN": ["pn1", "pn2"],
                },
                "player": {
                    "bg1": "Budget",
                    "bg2": "Group",
                    "wg1": "Person",
                    "wg2": "Group",
                    "gn1": "Group",
                    "gn2": "GNm",
                    "pn1": "Person",
                    "pn2": "PNm",
                },
                "idf": {
                    "Group": [["gn1", "gn2"]],
                    "Person": [["pn1", "pn2"]],
                    "BG": ["bg1", "bg2"],
                    "WG": ["wg1", "wg2"],
                    "GN": ["gn1", "gn2"],
                    "PN": ["pn1", "pn2"],
                },
                "naming": {
                    "tnm": {"Budget": "Budget", "Group": "Group", "Person": "Person"},
                    "mfix": [
                        ["BG", ["granted to"], ["bg1", "bg2"]],
                        ["WG", ["working for"], ["wg1", "wg2"]],
                    ],
                },
            }
        )
        pop = load_population(
            schema,
            {
                "Person": ["pat", "quinn"],
                "Group": ["cs", "math"],
                "Budget": [70, 30],
                "BG": [{"bg1": 70, "bg2": "cs"}, {"bg1": 30, "bg2": "math"}],
                "WG": [{"wg1": "pat", "wg2": "cs"}, {"wg1": "quinn", "wg2": "math"}],
            },
        )
        session = Session()
        session.schema = schema
        session.base_pop = pop
        out = run_query(
            session,
            "LIST Budget granted to Group g AS b VIA g EACH Person working for Group g "
            "ORDERED WITH b ASCENDING",
        )
        lines = out.splitlines()
        assert [c.strip() for c in lines[0].split("|")] == ["HEAD", "g", "b", "TAIL"]
        rows = [[c.strip() for c in l.split("|")] for l in lines[2:-1]]
        # the base runs person-to-group, so the tail is the group
        assert rows == [
            ["quinn", "math", "30", "math"],
            ["pat", "cs", "70", "cs"],
        ]
