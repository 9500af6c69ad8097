"""The executable surface: session pipeline, commands, batch mode."""

import json
from pathlib import Path

import pytest

from conquer import cli
from conquer.cli import Session, execute, load_full_schema, main, run_query
from conquer.errors import AmbiguityError, ConquerError, ParseError, TranslateError
from conquer.frontend import disambiguate, parse_list
from conquer.frontend.parser import MAX_DEPTH, MAX_NESTING
from conquer.population import load_population
from conquer.schema import load_schema

from .conftest import SALARY_DUMP, SALARY_QUERY, salary_doc

DEMO = Path(__file__).resolve().parent.parent / "demo"


def demo_with_first_mfix(parts=None, roles=None) -> str:
    """The demo schema document with its first mix-fix entry's parts or
    roles replaced."""
    doc = json.loads((DEMO / "schema.json").read_text())
    rel, old_parts, old_roles = doc["naming"]["mfix"][0]
    doc["naming"]["mfix"][0] = [rel, old_parts if parts is None else parts, old_roles if roles is None else roles]
    return json.dumps(doc)


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


def derive_session() -> Session:
    """The CLI schema with one derivation rule, BigCo as ONLY a Company, and
    one constraint."""
    doc = eval_schema_doc()
    doc["types"]["BigCo"] = "entity"
    doc["specialises"] = {"BigCo": "Company"}
    doc["naming"]["tnm"]["BigCo"] = "BigCompany"
    doc["derivations"] = [{"type": "BigCo", "body": "ONLY a Company"}]
    doc["constraints"] = ["SOME a Person"]
    session = Session()
    session.schema = load_full_schema(doc)
    session.base_pop = load_population(session.schema, eval_pop_doc())
    return session


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

    def test_constraint_that_fails_to_translate(self, tmp_path, monkeypatch, capsys):
        doc = eval_schema_doc()
        doc["constraints"] = ["SOME a Person", "SOME THE COUNT OF a Person GROUPED BY x"]
        session = Session(schema=load_full_schema(doc))
        # a failed build keeps no plan, so the second run fails the same way
        for _ in range(2):
            with pytest.raises(TranslateError, match="grouping attributes not in header"):
                execute(session, "\\constraints")
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        lines = iter(["\\constraints", "\\quit"])
        monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
        assert main(["--schema", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "[translate] grouping attributes not in header: ['x']"

    def test_macro_definition_and_use(self, session):
        execute(session, "\\macro Doubled(n) ::= n * 2")
        out = run_query(session, "LIST Doubled(3)")
        assert "6" in out

    def test_derive(self):
        session = derive_session()
        out = execute(session, "\\derive")
        assert out == "derived BigCo: 2 instances"

    def test_macro_compiles_only_itself(self):
        session = derive_session()
        before = execute(session, "\\derive"), execute(session, "\\constraints")
        execute(session, "\\macro Doubled(n) ::= n * 2")
        assert (execute(session, "\\derive"), execute(session, "\\constraints")) == before
        with pytest.raises(ConquerError):
            execute(session, "\\macro Broken(n) ::= a Nonexistent")
        # the failed definition leaves no trace: the name is an unknown
        # function, not a macro that calls itself
        with pytest.raises(ConquerError, match="unknown function 'Broken'"):
            run_query(session, "LIST Broken(3)")

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

    def test_non_finite_number_is_a_population_error(self, tmp_path, capsys):
        schema_file, _ = self.write_files(tmp_path)
        pop_file = tmp_path / "nan.json"
        pop_file.write_text('{"Salary": [NaN]}')
        assert main(["--schema", schema_file, "--pop", str(pop_file), "--query", "a Salary"]) == 1
        assert capsys.readouterr().err.strip() == "[population] cannot decode the non-finite number nan"

    @pytest.mark.parametrize(
        "doc",
        [
            '{"types": []}', '{"types": {"A": 1}}', '{"constraints": [1]}', '{"macros": [{"name": "m"}]}',
            '{"roles_of": {"F": 5}}', '{"types": {"A": {"kind": []}}}', '{"idf": {"A": 5}}', '{"naming": []}',
            '{"naming": {"mfix": [{"rel": "F"}]}}', '{"related": [["A"]]}', '{"specialises": []}',
            # a mix-fix entry with no parts, or with fewer roles than parts + 1
            pytest.param(demo_with_first_mfix(parts=[]), id="mfix-with-no-parts"),
            pytest.param(demo_with_first_mfix(roles=["p1"]), id="mfix-with-too-few-roles"),
        ],
    )
    def test_a_section_of_the_wrong_shape_is_a_schema_error(self, tmp_path, capsys, doc):
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(doc)
        assert main(["--schema", str(schema_file), "--query", "a Person"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[schema] ") and "[internal]" not in err
        assert ("'naming.mfix'" in err) == ("mfix" in doc)

    @pytest.mark.parametrize("which", ["schema", "population"])
    def test_a_file_that_is_not_json_is_a_staged_error(self, tmp_path, capsys, which):
        schema_file, pop_file = self.write_files(tmp_path)
        broken = tmp_path / "broken.json"
        broken.write_text('{"Salary": [1, 2')
        files = [str(broken), pop_file] if which == "schema" else [schema_file, str(broken)]
        assert main(["--schema", files[0], "--pop", files[1], "--query", "a Salary"]) == 1
        assert capsys.readouterr().err.startswith(f"[{which}] not a JSON document: Expecting")
        session = Session()
        with pytest.raises(ConquerError, match="not a JSON document"):
            if which == "schema":
                session.load_schema_file(str(broken))
            else:
                session.load_schema_file(schema_file)
                session.load_population_file(str(broken))

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

    @pytest.mark.parametrize(
        "chain", ["ONLY " * 400, "DISTINCT " * 400, "THE REVERSE OF " * 300, "THE COUNT OF " * 200, "NOT SOME " * 150]
    )
    def test_too_many_unary_operators_are_a_parse_error(self, demo, capsys, chain):
        with pytest.raises(ParseError, match="nested more than"):
            run_query(demo, chain + "a Person")
        assert main(DEMO_FILES + ["--query", chain + "a Person"]) == 1
        assert capsys.readouterr().err.startswith("[parse] operators nested more than")

    def test_unary_chains_within_the_limit_answer(self, demo):
        assert run_query(demo, "ONLY " * MAX_DEPTH + "a Person").splitlines()[-1] == "(6 rows)"
        assert run_query(demo, "THE REVERSE OF " * MAX_DEPTH + "a Person").splitlines()[-1] == "(6 rows)"
        # an aggregate, a grouping or SOME opens a subquery, and counts for
        # five levels
        assert run_query(demo, "THE COUNT OF " * (MAX_DEPTH // 5) + "a Person").splitlines()[-1] == "(1 row)"
        with pytest.raises(ParseError, match="nested more than"):
            run_query(demo, "THE COUNT OF " * (MAX_DEPTH // 5 + 1) + "a Person")

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


@pytest.mark.parametrize(
    "word, plain",
    [("OR OTHERWISE", "UNITED WITH"), ("AND ALSO", "INTERSECTED WITH"), ("BUT NOT", "MINUS")],
)
def test_front_word_is_the_set_operation_over_only_operands(session, word, plain):
    left, right = "(a Person who works for the Company: 'acme')", "(a Person who earns a Salary: 1000)"
    fronts, only = f"{left} {word} {right}", f"ONLY {left} {plain} ONLY {right}"
    schema = session.schema
    (a,), (b,) = (disambiguate(schema, parse_list(q, schema)).interpretations for q in (fronts, only))
    assert a.path == b.path
    assert run_query(session, fronts) == run_query(session, only)
    assert execute(session, "\\explain " + fronts) == execute(session, "\\explain " + only)


@pytest.mark.parametrize(
    "macro, text, out",
    [
        (
            "Twice(v) ::= v * 2",
            "a Salary x WHERE x > Twice(500)",
            "HEAD,x,TAIL\n2000,2000,2000\n3000,3000,3000\n1500,1500,1500",
        ),
        ("Twice(v) ::= v * 2", "LIST Twice(x) OF a Salary x", "x * 2\n2000\n4000\n6000\n1000\n3000"),
        ("Big ::= SOME a Person", "a Person WHERE Big()", "HEAD,TAIL\nann,ann\nbob,bob\ncy,cy\ndee,dee\neli,eli\nfay,fay"),
    ],
    ids=["scalar-macro-in-a-condition", "scalar-macro-in-a-projection", "condition-macro"],
)
def test_a_macro_call_answers_on_the_demo(macro, text, out):
    """A scalar macro is called where a scalar is read, and a condition
    macro where a condition is."""
    session = Session(out_format="csv")
    session.load_schema_file(str(DEMO / "schema.json"))
    session.load_population_file(str(DEMO / "population.json"))
    execute(session, "\\macro " + macro)
    assert run_query(session, text) == out


@pytest.mark.parametrize(
    "macro, text, inlined, rows",
    [
        ("Pos(v) ::= v > 0 AND v < 100000", "a Salary x WHERE Pos(x)", "a Salary x WHERE x > 0 AND x < 100000", 5),
        ("Has(p) ::= SOME p", "a Person WHERE Has(a Salary)", "a Person WHERE SOME a Salary", 6),
    ],
    ids=["scalar-parameter", "path-parameter"],
)
def test_a_condition_macro_takes_each_argument_as_its_body_reads_it(macro, text, inlined, rows):
    """An argument whose parameter the body reads as a scalar is lowered as
    a scalar, and one it reads as a path as a path, so the call answers as
    the inlined body does."""
    session = Session(out_format="csv")
    session.load_schema_file(str(DEMO / "schema.json"))
    session.load_population_file(str(DEMO / "population.json"))
    execute(session, "\\macro " + macro)
    out = run_query(session, text)
    assert out == run_query(session, inlined) and len(out.splitlines()) == rows + 1


ACME, EARNS = "(a Person who works for the Company: 'acme')", "(a Person who earns a Salary: 1000)"


@pytest.mark.parametrize(
    "text",
    [f"{ACME} {word} {EARNS}" for word in ("OR OTHERWISE", "AND ALSO", "BUT NOT", "UNITED WITH", "MINUS")]
    + [f"{EARNS} BUT NOT {ACME}", "a Person who works for the Company: 'acme' AND ALSO earns a Salary x"],
)
def test_explained_set_operation_reads_back_as_itself(session, text):
    """Each operand chain is bracketed, so that its last element does not
    take the operator after it."""
    schema = session.schema
    (reading,) = disambiguate(schema, parse_list(text, schema)).interpretations
    explained = execute(session, "\\explain " + text).splitlines()[1].split(". ", 1)[1]
    (back,) = disambiguate(schema, parse_list(explained, schema)).interpretations
    assert back.path == reading.path


@pytest.mark.parametrize("text", ["Earning: ('ann', 1000)", "Earning: 'ann', 1000", "Earning: (Person: 'ann', 1000)"])
def test_a_fact_type_is_denoted_by_its_roles(text):
    """A bare value denotes its role's player, as the player's own
    denotation ``Person: 'ann'`` does."""
    doc = json.loads((DEMO / "schema.json").read_text())
    doc["naming"]["tnm"]["F"] = "Earning"
    session = Session(schema=load_full_schema(doc), out_format="csv")
    session.load_population_file(str(DEMO / "population.json"))
    assert run_query(session, text) == 'HEAD,TAIL\n"ann,1000","ann,1000"'


@pytest.mark.parametrize("text", ["the Person: ('Erik', the Company: 'Asymetrix')", "the Person: ('Erik', 'Asymetrix')"])
def test_a_pairs_scheme_part_is_read_as_written(text):
    """A descriptor part of a pairs denotation is read as written, and a
    value part denotes its role's player, as in a roles scheme."""
    doc = salary_doc()
    doc["idf"]["x"] = [["pn1", "pn2"], ["q1", "q2"]]
    session = Session(schema=load_full_schema(doc), out_format="csv")
    session.base_pop = load_population(session.schema, {"x": [["Erik", "Asymetrix"]], "z": ["Asymetrix"]})
    assert run_query(session, text) == 'HEAD,TAIL\n"Erik,Asymetrix","Erik,Asymetrix"'


MACROS = [
    "\\macro Pos(v) ::= v > 0",
    "\\macro Pos2(v) ::= v > 0 AND v < 100000",
    "\\macro Rich ::= a Person who earns a Salary",
]


def test_a_single_comparison_is_a_condition_macro():
    """``v > 0`` parses as a path comparison too; the macro is a condition
    macro, so a call where a condition is read answers as the inlined body."""
    session = Session(out_format="csv")
    session.load_schema_file(str(DEMO / "schema.json"))
    session.load_population_file(str(DEMO / "population.json"))
    assert execute(session, MACROS[0]) == "macro 'Pos' defined"
    assert session.schema.macros["Pos"].kind == "condition"
    out = run_query(session, "a Salary x WHERE Pos(x)")
    assert out == run_query(session, "a Salary x WHERE x > 0") and len(out.splitlines()) == 6


@pytest.mark.parametrize(
    "text, kind, name",
    [
        ("LIST Pos(x) OF a Salary x", "condition", "Pos"),
        ("LIST Pos2(x) OF a Salary x", "condition", "Pos2"),
        ("LIST Rich() OF a Salary x", "path", "Rich"),
        ("a Salary x WHERE Rich() > 3", "path", "Rich"),
    ],
)
def test_a_path_or_condition_macro_where_a_scalar_is_read_is_a_translate_error(monkeypatch, capsys, text, kind, name):
    commands = iter(MACROS + [text, "\\quit"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(commands))
    assert main(DEMO_FILES) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"[parse] [translate] {kind} macro '{name}' is not a scalar expression"


@pytest.mark.parametrize("pop", ["empty", "demo"])
@pytest.mark.parametrize(
    "text",
    [
        "a Person who earns a Salary x WHERE foo(x) > 1",
        "LIST foo(x) OF a Person who earns a Salary x",
        "a Person who earns a Salary x WHERE foo(x, a Person) > 1",
    ],
)
def test_an_unknown_function_is_refused_at_translation(tmp_path, capsys, text, pop):
    """A call of a function that is neither a macro nor computed by the
    algebra is refused before evaluation, so also where no row reaches it."""
    pop_file = tmp_path / "pop.json"
    pop_file.write_text("{}")
    pop_path = str(DEMO / "population.json") if pop == "demo" else str(pop_file)
    assert main(["--schema", str(DEMO / "schema.json"), "--pop", pop_path, "--query", text]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "[translate] unknown function 'foo'"
