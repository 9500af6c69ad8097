"""Lexer, parser, record dumps, lowering and disambiguation."""

import pytest

from conquer.cli import load_full_schema
from conquer.errors import AmbiguityError, ConquerError, LexError, ParseError, TranslateError
from conquer.frontend import disambiguate, dump_records, parse, parse_list, tokenize
from conquer.frontend.lower import _interpret
from conquer.frontend.parser import parse_list_records, parse_records
from conquer.frontend.records import Confluence, ListStatement, load_records
from conquer.paths import (
    Abstract,
    AttrAtom,
    ByPath,
    Composite,
    CScalarComp,
    Concat,
    Denote,
    FrontIntersect,
    HdCoerce,
    MixFix,
    OrderKey,
    RoleEntry,
    SAgg,
    SConst,
    SVar,
    Scalar,
    TypeAtom,
    Where,
    canonical,
    concat,
    role_exit,
)
from conquer.schema import load_schema
from conquer.verbalise import VerbCtx, verbalise

from .conftest import SALARY_DUMP, SALARY_QUERY, fig6_doc, salary_doc
from .test_cli import eval_schema_doc, plus_chain
from .test_roundtrip import CASES as RT_CASES, make_case as rt_make_case, rich_doc


class TestLexer:
    def test_multiword_keyword_is_one_token(self):
        toks = tokenize("AND ALSO")
        assert len(toks) == 1 and toks[0].kind == "keyword" and toks[0].text == "AND ALSO"

    def test_denotation_tokens(self):
        toks = tokenize("Person: 'Erik'")
        assert [t.kind for t in toks] == ["word", "punct", "string"]
        assert toks[2].value == "Erik"

    def test_empty_input(self):
        assert tokenize("") == []

    def test_hyphenated_word(self):
        toks = tokenize("Election-result")
        assert len(toks) == 1 and toks[0].text == "Election-result"

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("Person: 'Erik")

    def test_numbers(self):
        toks = tokenize("100000 1.5")
        assert toks[0].value == 100000
        from fractions import Fraction

        assert toks[1].value == Fraction(3, 2)

    def test_positions(self):
        toks = tokenize("a\nb")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 1)


class TestFig6Parsing:
    def test_role_walk_parses_to_the_expected_path(self):
        schema = load_schema(fig6_doc("prepost"))
        text = "some President who has some Election-result that has as some Result"
        result = disambiguate(schema, parse(text, schema))
        assert len(result.interpretations) == 1
        expected = concat(
            TypeAtom("A"), RoleEntry("p"), TypeAtom("F"), role_exit("q"), TypeAtom("B")
        )
        assert canonical(result.interpretations[0].path) == canonical(expected)

    def test_bare_name_stage_parses_too(self):
        schema = load_schema(fig6_doc("bare"))
        result = disambiguate(schema, parse("President has Election-result has as Result", schema))
        expected = concat(
            TypeAtom("A"), RoleEntry("p"), TypeAtom("F"), role_exit("q"), TypeAtom("B")
        )
        assert canonical(result.interpretations[0].path) == canonical(expected)

    def test_president_alone(self):
        schema = load_schema(fig6_doc("bare"))
        result = parse("President", schema)
        assert result.interpretations[0].path == TypeAtom("A")

    def test_mixfix_stage_parses_the_reading(self):
        schema = load_schema(fig6_doc("mixfix"))
        text = "some President who has participated in an election leading in some Result"
        result = disambiguate(schema, parse(text, schema))
        assert len(result.interpretations) == 1
        expected = concat(TypeAtom("A"), MixFix("p", (), "q"), TypeAtom("B"))
        assert canonical(result.interpretations[0].path) == canonical(expected)


class TestSalaryQuery:
    @pytest.fixture
    def schema(self):
        return load_schema(salary_doc())

    def test_single_interpretation(self, schema):
        result = disambiguate(schema, parse(SALARY_QUERY, schema))
        assert len(result.interpretations) == 1
        assert not result.ambiguous

    def test_record_dump_golden(self, schema):
        result = disambiguate(schema, parse(SALARY_QUERY, schema))
        assert dump_records(result.interpretations[0].records) == SALARY_DUMP

    def test_lowered_structure(self, schema):
        result = disambiguate(schema, parse(SALARY_QUERY, schema))
        path = result.interpretations[0].path
        left = concat(
            TypeAtom("x"), MixFix("p1", (), "p2"), TypeAtom("y"), AttrAtom("x")
        )
        right = concat(MixFix("q1", (), "q2"), TypeAtom("z"), AttrAtom("c"))
        inner = concat(
            TypeAtom("y"), MixFix("p2", (), "p1"), TypeAtom("x"), MixFix("q1", (), "q2"), AttrAtom("c")
        )
        cond = CScalarComp(SVar("x"), ">", SAgg("avg", HdCoerce(inner)))
        expected = Where(((FrontIntersect(left, right), cond),), None, True)
        assert canonical(path) == canonical(expected)

    def test_dump_round_trip(self, schema):
        result = disambiguate(schema, parse(SALARY_QUERY, schema))
        records = result.interpretations[0].records
        assert load_records(dump_records(records)) == records


class TestDisambiguation:
    def make_homonym_schema(self):
        # two roles named "owns" with different players; context resolves
        return load_schema(
            {
                "types": {
                    "Person": "entity",
                    "Dog": "entity",
                    "Car": "entity",
                    "PD": "relationship",
                    "DC": "relationship",
                    "PNm": "value",
                    "DNm": "value",
                    "CNm": "value",
                    "PNF": "relationship",
                    "DNF": "relationship",
                    "CNF": "relationship",
                },
                "roles_of": {
                    "PD": ["pd1", "pd2"],
                    "DC": ["dc1", "dc2"],
                    "PNF": ["pn1", "pn2"],
                    "DNF": ["dn1", "dn2"],
                    "CNF": ["cn1", "cn2"],
                },
                "player": {
                    "pd1": "Person",
                    "pd2": "Dog",
                    "dc1": "Dog",
                    "dc2": "Car",
                    "pn1": "Person",
                    "pn2": "PNm",
                    "dn1": "Dog",
                    "dn2": "DNm",
                    "cn1": "Car",
                    "cn2": "CNm",
                },
                "idf": {
                    "Person": [["pn1", "pn2"]],
                    "Dog": [["dn1", "dn2"]],
                    "Car": [["cn1", "cn2"]],
                    "PD": ["pd1", "pd2"],
                    "DC": ["dc1", "dc2"],
                    "PNF": ["pn1", "pn2"],
                    "DNF": ["dn1", "dn2"],
                    "CNF": ["cn1", "cn2"],
                },
                "naming": {
                    "tnm": {"Person": "Person", "Dog": "Dog", "Car": "Car", "PD": "Ownership", "DC": "Use"},
                    "pnm": {"pd1": "owns", "dc1": "owns"},
                    "rnm": {"pd2": "owned by", "dc2": "used by"},
                },
            }
        )

    def test_homonym_resolved_by_player_type(self):
        schema = self.make_homonym_schema()
        result = disambiguate(schema, parse("Person owns", schema))
        assert len(result.interpretations) == 1
        assert result.interpretations[0].path == Concat(TypeAtom("Person"), RoleEntry("pd1"))

    def test_unambiguous_query_unchanged(self):
        schema = self.make_homonym_schema()
        before = parse("Dog", schema)
        after = disambiguate(schema, before)
        assert after.interpretations == before.interpretations

    def test_genuine_ambiguity_keeps_both(self):
        # a second role named "owns" with the same player: both readings type
        doc = {
            "types": {
                "Person": "entity",
                "Dog": "entity",
                "PD": "relationship",
                "PD2": "relationship",
                "PNm": "value",
                "DNm": "value",
                "PNF": "relationship",
                "DNF": "relationship",
            },
            "roles_of": {
                "PD": ["pd1", "pd2"],
                "PD2": ["pe1", "pe2"],
                "PNF": ["pn1", "pn2"],
                "DNF": ["dn1", "dn2"],
            },
            "player": {
                "pd1": "Person",
                "pd2": "Dog",
                "pe1": "Person",
                "pe2": "Dog",
                "pn1": "Person",
                "pn2": "PNm",
                "dn1": "Dog",
                "dn2": "DNm",
            },
            "idf": {
                "Person": [["pn1", "pn2"]],
                "Dog": [["dn1", "dn2"]],
                "PD": ["pd1", "pd2"],
                "PD2": ["pe1", "pe2"],
                "PNF": ["pn1", "pn2"],
                "DNF": ["dn1", "dn2"],
            },
            "naming": {
                "tnm": {"Person": "Person", "Dog": "Dog", "PD": "Keeping", "PD2": "Walking"},
                "pnm": {"pd1": "owns", "pe1": "owns"},
            },
        }
        schema = load_schema(doc)
        result = disambiguate(schema, parse("Person owns", schema))
        assert len(result.interpretations) == 2
        assert result.ambiguous
        assert all(i.verbalisation for i in result.interpretations)

    def test_all_empty_is_an_incorrect_query(self):
        schema = self.make_homonym_schema()
        # neither "owns" role connects a Person to a Car
        with pytest.raises(AmbiguityError, match="incorrect query"):
            disambiguate(schema, parse("Person owns Car", schema))


class TestDenotations:
    @pytest.fixture
    def schema(self):
        return load_schema(salary_doc())

    def test_value_denotation(self, schema):
        result = parse("the Person: 'Erik'", schema)
        assert result.interpretations[0].path == Denote("x", ByPath(Scalar(SConst("Erik"))))

    def test_abstract_denotation(self, schema):
        result = parse("the Person: !p", schema)
        assert result.interpretations[0].path == Denote("x", Abstract("p"))

    def test_composite_denotation(self):
        doc = salary_doc()
        doc["idf"]["x"] = [["pn1", "pn2"], ["q1", "q2"]]
        schema = load_schema(doc)
        result = parse("the Person: ('Erik', the Company: 'Asymetrix')", schema)
        den = result.interpretations[0].path
        assert isinstance(den, Denote)
        assert isinstance(den.den, Composite) and len(den.den.parts) == 2

    def test_composite_arity_mismatch(self, schema):
        from conquer.paths import expand_denote

        with pytest.raises(TranslateError, match="arity"):
            expand_denote(
                schema, Denote("x", Composite((ByPath(Scalar(SConst("a"))), ByPath(Scalar(SConst("b"))))))
            )

    def test_lower_denotation_expands_through_the_reference_scheme(self, schema):
        from conquer.frontend import lower_denotation
        from conquer.frontend.records import Const as ConstR, Denot
        from conquer.paths import RoleEntry, SubExpr, role_exit

        path = lower_denotation(schema, "x", Denot(inf=ConstR("Erik")))
        expected = Concat(
            TypeAtom("x"),
            SubExpr(
                (
                    concat(
                        RoleEntry("pn1"),
                        role_exit("pn2"),
                        Concat(TypeAtom("PName"), Scalar(SConst("Erik"))),
                    ),
                )
            ),
        )
        assert path == expected


class TestListStatements:
    @pytest.fixture
    def schema(self):
        return load_schema(salary_doc())

    def test_plain_list(self, schema):
        result = parse_list("LIST a Person", schema)
        interp = result.interpretations[0]
        assert isinstance(interp.records, ListStatement)
        assert interp.order == ()
        assert interp.projection is None

    def test_ordered_ascending(self, schema):
        result = parse_list("LIST a Person ORDERED ASCENDING", schema)
        assert result.interpretations[0].order == (OrderKey("hd", "asc"),)

    def test_ordered_with_items(self, schema):
        result = parse_list("LIST a Person who earns a Salary s ORDERED WITH s DESCENDING, HEAD ASCENDING", schema)
        interp = result.interpretations[0]
        assert interp.order == (OrderKey("s", "desc"), OrderKey("hd", "asc"))

    def test_projection(self, schema):
        result = parse_list("LIST HEAD, s / 1000 OF a Person who earns a Salary s", schema)
        interp = next(i for i in result.interpretations if i.projection is not None)
        assert interp.projection[0] == SVar("hd")
        from conquer.paths import SApply

        assert interp.projection[1] == SApply("/", [SVar("s"), SConst(1000)])

    def test_confluence_list(self):
        doc = {
            "types": {
                "Budget": "value",
                "Group": "entity",
                "Person": "entity",
                "Dept": "entity",
                "BG": "relationship",
                "WG": "relationship",
                "GD": "relationship",
                "GN": "relationship",
                "PN": "relationship",
                "DN": "relationship",
                "GNm": "value",
                "PNm": "value",
                "DNm": "value",
            },
            "roles_of": {
                "BG": ["bg1", "bg2"],
                "WG": ["wg1", "wg2"],
                "GD": ["gd1", "gd2"],
                "GN": ["gn1", "gn2"],
                "PN": ["pn1", "pn2"],
                "DN": ["dn1", "dn2"],
            },
            "player": {
                "bg1": "Budget",
                "bg2": "Group",
                "wg1": "Person",
                "wg2": "Group",
                "gd1": "Group",
                "gd2": "Dept",
                "gn1": "Group",
                "gn2": "GNm",
                "pn1": "Person",
                "pn2": "PNm",
                "dn1": "Dept",
                "dn2": "DNm",
            },
            "idf": {
                "Group": [["gn1", "gn2"]],
                "Person": [["pn1", "pn2"]],
                "Dept": [["dn1", "dn2"]],
                "BG": ["bg1", "bg2"],
                "WG": ["wg1", "wg2"],
                "GD": ["gd1", "gd2"],
                "GN": ["gn1", "gn2"],
                "PN": ["pn1", "pn2"],
                "DN": ["dn1", "dn2"],
            },
            "naming": {
                "tnm": {
                    "Budget": "Budget",
                    "Group": "Group",
                    "Person": "Person",
                    "Dept": "Department",
                },
                "mfix": [
                    ["BG", ["granted to"], ["bg1", "bg2"]],
                    ["WG", ["working for"], ["wg1", "wg2"]],
                    ["GD", ["part of"], ["gd1", "gd2"]],
                ],
            },
        }
        schema = load_schema(doc)
        text = (
            "LIST Budget granted to Group g AS b VIA g "
            "EACH Person working for Group g part of Department: 'CS'"
        )
        result = disambiguate(schema, parse_list(text, schema))
        interp = result.interpretations[0]
        assert isinstance(interp.records, ListStatement)
        assert isinstance(interp.records.inf, Confluence)


class TestParseErrors:
    def test_unknown_name_suggestion(self):
        schema = load_schema(fig6_doc("prepost"))
        with pytest.raises(ParseError, match="Presidant|did you mean"):
            parse("some Presidant", schema)

    def test_error_carries_position(self):
        schema = load_schema(fig6_doc("prepost"))
        with pytest.raises(ParseError, match="syntax error"):
            parse("some President WHERE", schema)


def homonym_reading_doc() -> dict:
    """The CLI tests' schema with a second fact type, W (Contract), that
    is read "employs" like G (Employment)."""
    doc = eval_schema_doc()
    doc["types"]["W"] = "relationship"
    doc["roles_of"]["W"] = ["w1", "w2"]
    doc["player"].update({"w1": "Person", "w2": "Company"})
    doc["idf"]["W"] = ["w1", "w2"]
    doc["naming"]["tnm"].update({"G": "Employment", "W": "Contract"})
    doc["naming"]["mfix"] += [["G", ["employs"], ["q2", "q1"]], ["W", ["employs"], ["w2", "w1"]]]
    return doc


class TestMixFixHomonym:
    def test_explained_readings_parse_back(self):
        schema = load_full_schema(homonym_reading_doc())
        result = disambiguate(schema, parse_list("Company c employs a Person p", schema))
        readings = sorted(i.verbalisation for i in result.interpretations)
        assert readings == [
            "a Company c employs.Contract a Person p",
            "a Company c employs.Employment a Person p",
        ]
        for interp in result.interpretations:
            (back,) = parse_list(interp.verbalisation, schema).interpretations
            assert canonical(back.path) == canonical(interp.path)

    def test_qualifier_must_name_the_reading_fact_type(self):
        schema = load_full_schema(homonym_reading_doc())
        with pytest.raises(ParseError):
            parse_list("a Company c employs.Person a Person p", schema)


def round_trip_texts(schema) -> list[str]:
    """The texts that the round-trip criterion parses."""
    texts = []
    for i in range(RT_CASES):
        p, typing, vnm = rt_make_case(schema, i)
        texts.append(verbalise(p, VerbCtx(schema, typing, vnm)))
    return texts


CLI_QUERIES = [
    "LIST a Salary ORDERED ASCENDING",
    SALARY_QUERY + " ORDERED WITH x ASCENDING",
    "LIST a Person",
    "LIST a Salary ORDERED DESCENDING",
    "LIST HEAD, x / 1000 OF a Person who earns a Salary x ORDERED WITH x ASCENDING",
    "LIST a Company ORDERED ASCENDING",
    "a Person who earns a Salary",
    "SOME a Person who earns a Salary: 77777",
    "Person who earns a Salary x WHERE " + "NOT " * 20 + "x > 1200",
    plus_chain(20),
]


@pytest.mark.parametrize(
    "doc, texts, records",
    [
        (salary_doc, [SALARY_QUERY], parse_records),
        (rich_doc, round_trip_texts, parse_records),
        (eval_schema_doc, CLI_QUERIES, parse_list_records),
        (homonym_reading_doc, ["Company c employs a Person p"], parse_list_records),
    ],
    ids=["criterion-07", "criterion-09", "cli", "mix-fix-homonym"],
)
def test_no_two_record_trees_lower_to_one_path(doc, texts, records):
    schema = load_full_schema(doc())
    for text in texts(schema) if callable(texts) else texts:
        keys = []
        for rec in records(tokenize(text), schema):
            try:
                interp = _interpret(schema, rec)
            except ConquerError:
                continue
            keys.append((canonical(interp.path), interp.projection, interp.order))
        assert keys, text
        assert len(set(keys)) == len(keys), text
