"""The executable surface: session pipeline, commands, batch mode."""

import json
from pathlib import Path

import pytest

from conquer import cli
from conquer.cli import Session, execute, load_full_schema, main, run_query
from conquer.errors import AmbiguityError, ConquerError, ParseError
from conquer.frontend.parser import MAX_DEPTH, MAX_NESTING
from conquer.population import load_population
from conquer.schema import load_schema

from .conftest import SALARY_DUMP, SALARY_QUERY


def eval_schema_doc() -> dict:
    """Salary modelled as a value type so amounts compare directly."""
    return {
        "types": {
            "Person": "entity",
            "Salary": "value",
            "Company": "entity",
            "F": "relationship",
            "G": "relationship",
            "PName": "value",
            "CName": "value",
            "PN": "relationship",
            "CN": "relationship",
        },
        "roles_of": {
            "F": ["p1", "p2"],
            "G": ["q1", "q2"],
            "PN": ["pn1", "pn2"],
            "CN": ["cn1", "cn2"],
        },
        "player": {
            "p1": "Person",
            "p2": "Salary",
            "q1": "Person",
            "q2": "Company",
            "pn1": "Person",
            "pn2": "PName",
            "cn1": "Company",
            "cn2": "CName",
        },
        "idf": {
            "Person": [["pn1", "pn2"]],
            "Company": [["cn1", "cn2"]],
            "F": ["p1", "p2"],
            "G": ["q1", "q2"],
            "PN": ["pn1", "pn2"],
            "CN": ["cn1", "cn2"],
        },
        "naming": {
            "tnm": {"Person": "Person", "Salary": "Salary", "Company": "Company"},
            "pre": {
                "Person": {"undetermined": "a", "determined": "the"},
                "Salary": {"undetermined": "a", "determined": "the"},
                "Company": {"undetermined": "a", "determined": "the"},
            },
            "post": {"Person": "who"},
            "mfix": [
                ["F", ["earns"], ["p1", "p2"]],
                ["F", ["of"], ["p2", "p1"]],
                ["G", ["works for"], ["q1", "q2"]],
            ],
        },
    }


SALARIES = {"ann": 1000, "bob": 2000, "cy": 3000, "dee": 500, "eli": 1500, "fay": 1000}
EMPLOYERS = {"ann": "acme", "bob": "acme", "cy": "acme", "dee": "beta", "eli": "beta", "fay": "beta"}


def eval_pop_doc() -> dict:
    return {
        "Person": sorted(SALARIES),
        "Company": sorted(set(EMPLOYERS.values())),
        "F": [{"p1": p, "p2": s} for p, s in sorted(SALARIES.items())],
        "G": [{"q1": p, "q2": c} for p, c in sorted(EMPLOYERS.items())],
    }


@pytest.fixture
def session():
    s = Session()
    s.schema = load_full_schema(eval_schema_doc())
    s.base_pop = load_population(s.schema, eval_pop_doc())
    return s


def expected_above_average() -> list[tuple[str, int, str]]:
    # brute force: per-company mean salary, then strictly-above filter
    by_company: dict[str, list[int]] = {}
    for p, c in EMPLOYERS.items():
        by_company.setdefault(c, []).append(SALARIES[p])
    out = []
    for p in SALARIES:
        c = EMPLOYERS[p]
        mean = sum(by_company[c]) / len(by_company[c])
        if SALARIES[p] > mean:
            out.append((p, SALARIES[p], c))
    out.sort(key=lambda row: row[1])
    return out


class TestRunQuery:
    def test_identity_list(self, session):
        out = run_query(session, "LIST a Salary ORDERED ASCENDING")
        lines = out.splitlines()
        assert lines[0].split() == ["HEAD", "|", "TAIL"]
        values = [l.split("|")[0].strip() for l in lines[2:-1]]
        assert values == ["500", "1000", "1500", "2000", "3000"]

    def test_salary_above_company_average(self, session):
        out = run_query(
            session,
            SALARY_QUERY + " ORDERED WITH x ASCENDING",
        )
        lines = out.splitlines()
        assert [c.strip() for c in lines[0].split("|")] == ["HEAD", "x", "c", "TAIL"]
        rows = [[c.strip() for c in l.split("|")] for l in lines[2:-1]]
        expected = [[p, str(s), c, p] for p, s, c in expected_above_average()]
        assert rows == expected

    def test_empty_population_prints_header(self, session):
        session.base_pop = load_population(session.schema, {})
        out = run_query(session, "LIST a Person")
        lines = out.splitlines()
        assert lines[0].split() == ["HEAD", "|", "TAIL"]
        assert lines[-1] == "(0 rows)"

    def test_deep_nesting_is_a_parse_error(self, session):
        with pytest.raises(ParseError) as info:
            run_query(session, "(" * 80 + "a Person" + ")" * 80)
        assert (info.value.line, info.value.column) == (1, MAX_NESTING + 1)
        out = run_query(session, "(" * 50 + "a Person" + ")" * 50)
        assert out.splitlines()[-1] == "(6 rows)"

    def test_needs_a_schema(self):
        with pytest.raises(ConquerError, match="load a schema first"):
            run_query(Session(), "a Person")

    def test_csv_format(self, session):
        session.out_format = "csv"
        out = run_query(session, "LIST a Salary ORDERED DESCENDING")
        lines = out.splitlines()
        assert lines[0] == "HEAD,TAIL"
        assert lines[1] == "3000,3000"

    def test_projection(self, session):
        out = run_query(
            session,
            "LIST HEAD, x / 1000 OF a Person who earns a Salary x ORDERED WITH x ASCENDING",
        )
        lines = out.splitlines()
        assert lines[0].split(" | ") == ["HEAD", "x / 1000"]
        first = [c.strip() for c in lines[2].split("|")]
        assert first == ["dee", "0.5"]

    def test_entities_are_denoted(self, session):
        out = run_query(session, "LIST a Company ORDERED ASCENDING")
        body = [l.split("|")[0].strip() for l in out.splitlines()[2:-1]]
        assert body == ["acme", "beta"]

    def test_output_is_stable(self, session):
        q = SALARY_QUERY
        assert run_query(session, q) == run_query(session, q)


class TestCommands:
    def test_dump_records(self, session):
        out = execute(session, "\\dump-records " + SALARY_QUERY)
        expected = SALARY_DUMP
        for short, long in (("Person", "x"), ("Salary", "y"), ("Company", "z")):
            expected = expected.replace(f'"{short}", {long},', f'"{short}", {short},')
        assert out == expected

    def test_dump_path(self, session):
        out = execute(session, "\\dump-path a Person who earns a Salary")
        assert "<p1, p2>" in out

    def test_explain_lists_interpretations(self, session):
        out = execute(session, "\\explain a Person who earns a Salary")
        assert out.startswith("1 interpretation(s):")

    def test_constraints_empty(self, session):
        assert execute(session, "\\constraints") == "0 constraints checked"

    def test_constraints_pass_and_fail(self, session):
        schema = session.schema
        schema.raw_constraints = ["SOME a Person", "SOME a Person who earns a Salary: 77777"]
        from conquer.frontend import compile_schema_queries

        compile_schema_queries(schema)
        schema.raw_constraints = []
        out = execute(session, "\\constraints")
        assert "pass: SOME a Person" in out
        assert "FAIL: SOME a Person who earns a Salary: 77777" in out
        assert out.endswith("2 constraints checked, 1 failed")

    def test_macro_definition_and_use(self, session):
        execute(session, "\\macro Doubled(n) ::= n * 2")
        out = run_query(session, "LIST Doubled(3)")
        assert "6" in out

    def test_derive(self):
        doc = eval_schema_doc()
        doc["types"]["BigCo"] = "entity"
        doc["specialises"] = {"BigCo": "Company"}
        doc["naming"]["tnm"]["BigCo"] = "BigCompany"
        doc["derivations"] = [{"type": "BigCo", "body": "ONLY a Company"}]
        session = Session()
        session.schema = load_full_schema(doc)
        session.base_pop = load_population(session.schema, eval_pop_doc())
        out = execute(session, "\\derive")
        assert out == "derived BigCo: 2 instances"

    def test_unknown_command(self, session):
        with pytest.raises(ConquerError, match="unknown command"):
            execute(session, "\\nope")


class TestAmbiguityPolicies:
    def make_ambiguous_session(self):
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
                "pd1": "Person", "pd2": "Dog", "pe1": "Person", "pe2": "Dog",
                "pn1": "Person", "pn2": "PNm", "dn1": "Dog", "dn2": "DNm",
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
        s = Session()
        s.schema = load_full_schema(doc)
        s.base_pop = load_population(s.schema, {})
        return s

    def test_fail_policy(self):
        s = self.make_ambiguous_session()
        s.ambiguity = "fail"
        with pytest.raises(AmbiguityError):
            run_query(s, "Person owns")

    def test_list_policy(self):
        s = self.make_ambiguous_session()
        s.ambiguity = "list"
        out = run_query(s, "Person owns")
        assert out.startswith("ambiguous query")
        assert out.count("\n") >= 2

    def test_pick_first_policy(self):
        s = self.make_ambiguous_session()
        s.ambiguity = "pick-first"
        out = run_query(s, "Person owns")
        assert "HEAD" in out


class TestBatchMode:
    def write_files(self, tmp_path):
        schema_file = tmp_path / "schema.json"
        pop_file = tmp_path / "pop.json"
        schema_file.write_text(json.dumps(eval_schema_doc()))
        pop_file.write_text(json.dumps(eval_pop_doc()))
        return str(schema_file), str(pop_file)

    def test_success_exit_code(self, tmp_path, capsys):
        schema_file, pop_file = self.write_files(tmp_path)
        code = main(["--schema", schema_file, "--pop", pop_file, "--query", "LIST a Salary"])
        assert code == 0
        assert "HEAD" in capsys.readouterr().out

    def test_csv_flag(self, tmp_path, capsys):
        schema_file, pop_file = self.write_files(tmp_path)
        code = main(
            ["--schema", schema_file, "--pop", pop_file, "--format", "csv",
             "--query", "LIST a Salary ORDERED ASCENDING"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "HEAD,TAIL"

    def test_diagnostics_exit_code(self, tmp_path, capsys):
        schema_file, pop_file = self.write_files(tmp_path)
        code = main(["--schema", schema_file, "--pop", pop_file, "--query", "LIST a Nonsense"])
        assert code == 1
        assert "syntax error" in capsys.readouterr().err

    def test_ambiguity_exit_code(self, tmp_path, capsys):
        schema_file = tmp_path / "schema.json"
        doc = TestAmbiguityPolicies().make_ambiguous_session().schema
        # rebuild the document rather than serialising the schema object
        schema_file.write_text(json.dumps({
            "types": {
                "Person": "entity", "Dog": "entity", "PD": "relationship", "PD2": "relationship",
                "PNm": "value", "DNm": "value", "PNF": "relationship", "DNF": "relationship",
            },
            "roles_of": {
                "PD": ["pd1", "pd2"], "PD2": ["pe1", "pe2"],
                "PNF": ["pn1", "pn2"], "DNF": ["dn1", "dn2"],
            },
            "player": {
                "pd1": "Person", "pd2": "Dog", "pe1": "Person", "pe2": "Dog",
                "pn1": "Person", "pn2": "PNm", "dn1": "Dog", "dn2": "DNm",
            },
            "idf": {
                "Person": [["pn1", "pn2"]], "Dog": [["dn1", "dn2"]],
                "PD": ["pd1", "pd2"], "PD2": ["pe1", "pe2"],
                "PNF": ["pn1", "pn2"], "DNF": ["dn1", "dn2"],
            },
            "naming": {
                "tnm": {"Person": "Person", "Dog": "Dog", "PD": "Keeping", "PD2": "Walking"},
                "pnm": {"pd1": "owns", "pe1": "owns"},
            },
        }))
        code = main(["--schema", str(schema_file), "--ambiguity", "fail", "--query", "Person owns"])
        assert code == 2
        assert "ambiguous" in capsys.readouterr().err


DEMO = Path(__file__).resolve().parent.parent / "demo"
DEMO_FILES = ["--schema", str(DEMO / "schema.json"), "--pop", str(DEMO / "population.json")]
CHAIN_PREFIX = "Person who earns a Salary x WHERE (x"


def plus_chain(terms: int) -> str:
    return CHAIN_PREFIX + " + x" * terms + ") > 5"


class TestDeepInput:
    """Operator chains and negation runs too deep for the Python stack are
    parse errors with a position; shallower ones answer."""

    @pytest.fixture
    def demo(self):
        s = Session()
        s.load_schema_file(str(DEMO / "schema.json"))
        s.load_population_file(str(DEMO / "population.json"))
        return s

    def test_long_operator_chain_answers(self, demo):
        assert run_query(demo, plus_chain(200)).splitlines()[-1] == "(6 rows)"
        # the longest chain the limit lets through: its bracket and the
        # comparison outside it take the other two levels
        assert run_query(demo, plus_chain(MAX_DEPTH - 2)).splitlines()[-1] == "(6 rows)"

    def test_too_long_operator_chain_is_a_parse_error(self, demo):
        with pytest.raises(ParseError, match="nested more than") as info:
            run_query(demo, plus_chain(250))
        # the operator that first makes the tree too deep
        column = len(CHAIN_PREFIX) + 4 * (MAX_DEPTH - 1) + 2
        assert (info.value.line, info.value.column) == (1, column)

    def test_too_many_negations_are_a_parse_error(self, demo):
        with pytest.raises(ParseError, match="nested more than") as info:
            run_query(demo, "NOT " * 400 + "a Person")
        assert (info.value.line, info.value.column) == (1, 4 * MAX_DEPTH + 1)
        out = run_query(demo, "Person who earns a Salary x WHERE " + "NOT " * 200 + "x > 1200")
        assert out.splitlines()[-1] == "(3 rows)"

    def test_batch_mode_reports_deep_input(self, capsys):
        assert main(DEMO_FILES + ["--query", plus_chain(250)]) == 1
        assert capsys.readouterr().err.startswith("[parse] operators nested more than")
        assert main(DEMO_FILES + ["--query", "NOT " * 400 + "a Person"]) == 1
        assert capsys.readouterr().err.startswith("[parse] operators nested more than")
        assert main(DEMO_FILES + ["--query", plus_chain(200)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "(6 rows)"


class TestInternalErrors:
    """An error that is not a ConquerError is reported as internal: batch
    mode exits 1 and the REPL goes on."""

    def test_batch_mode_exits_1(self, monkeypatch, capsys):
        def broken(session, text):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "run_query", broken)
        assert main(DEMO_FILES + ["--query", "a Person"]) == 1
        assert capsys.readouterr().err.strip() == "[internal] RuntimeError: broken"

    def test_repl_survives(self, monkeypatch, capsys):
        lines = iter(["first", "a Person", "\\quit"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
        execute = cli.execute

        def flaky(session, line):
            if line == "first":
                raise RecursionError("maximum recursion depth exceeded")
            return execute(session, line)

        monkeypatch.setattr(cli, "execute", flaky)
        assert main(DEMO_FILES) == 0
        out = capsys.readouterr().out.splitlines()
        assert "[internal] RecursionError: maximum recursion depth exceeded" in out
        assert out[-1] == "(6 rows)"
