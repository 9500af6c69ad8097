"""Verbalisation rules: the naming-stage goldens, uniqueness guards, the
scalar/condition renderers, and the normal form that verbalisation reads."""

import random

import pytest

from conquer import paths as P
from conquer.cli import Session, load_full_schema, run_query
from conquer.errors import ConquerError, VerbaliseError
from conquer.frontend import disambiguate, parse_list
from conquer.paths import (
    PATH_KINDS,
    AttrAtom,
    CBagComp,
    CLogic,
    CNot,
    CSome,
    CScalarComp,
    Concat,
    Denote,
    DistinctPath,
    Front,
    ByPath,
    GroupFn,
    HdCoerce,
    MixFix,
    PathMemo,
    RelCompare,
    Reverse,
    RoleEntry,
    SAgg,
    SApply,
    SConst,
    SVar,
    Scalar,
    SetOp,
    Shuffle,
    SubExpr,
    TypeAtom,
    Where,
    concat,
    flatten_concat,
    infer_typing,
    normalise,
    role_exit,
)
from conquer.schema import load_schema
from conquer.verbalise import (
    VerbCtx,
    mfix_unique,
    role_name_unique,
    verbalise,
    verbalise_cond,
    verbalise_scalar,
)
from conquer.walk import children, map_children

from .conftest import fig6_doc, salary_doc
from .test_parse_golden import grammar_doc
from .test_reading_golden import _golden, _schema
from .test_roundtrip import CASES, Gen, rich_doc
from .test_text_differential import grammar_populations

PATH = concat(TypeAtom("A"), RoleEntry("p"), TypeAtom("F"), role_exit("q"), TypeAtom("B"))


def ctx_for(schema, p, vnm=None):
    typing = infer_typing(schema, p)
    return VerbCtx(schema, typing, vnm or {})


class TestNamingStages:
    def test_bare_names(self):
        schema = load_schema(fig6_doc("bare"))
        text = verbalise(PATH, ctx_for(schema, PATH))
        assert text == "President has Election-result has as Result"

    def test_prefix_postfix_form(self):
        schema = load_schema(fig6_doc("prepost"))
        text = verbalise(PATH, ctx_for(schema, PATH))
        assert text == "some President who has some Election-result that has as some Result"

    def test_mixfix_form_after_normalisation(self):
        schema = load_schema(fig6_doc("mixfix"))
        norm = normalise(schema, PATH)
        assert norm == concat(TypeAtom("A"), MixFix("p", (), "q"), TypeAtom("B"))
        text = verbalise(norm, ctx_for(schema, norm))
        assert text == "some President who has participated in an election leading in some Result"


class TestGuards:
    def make_schema(self, same_player: bool):
        second_player = "A" if same_player else "C"
        doc = fig6_doc("bare")
        doc["types"]["G"] = "relationship"
        doc["roles_of"]["G"] = ["g1", "g2"]
        doc["player"]["g1"] = second_player
        doc["player"]["g2"] = "B"
        doc["idf"]["G"] = ["g1", "g2"]
        doc["naming"]["tnm"]["G"] = "Involvement"
        doc["naming"]["pnm"]["g1"] = "has"
        return load_schema(doc)

    def test_disjoint_players_keep_bare_name(self):
        schema = self.make_schema(same_player=False)
        left = frozenset(schema.related_to("A"))
        right = frozenset(schema.types)
        assert role_name_unique(schema, "p", left, right)
        p = Concat(TypeAtom("A"), RoleEntry("p"))
        assert verbalise(p, ctx_for(schema, p)) == "President has"

    def test_overlapping_players_force_suffix(self):
        schema = self.make_schema(same_player=True)
        left = frozenset(schema.related_to("A"))
        assert not role_name_unique(schema, "p", left, frozenset(schema.types))
        p = Concat(TypeAtom("A"), RoleEntry("p"))
        assert verbalise(p, ctx_for(schema, p)) == "President has.Election-result"

    def test_singleton_schema_always_unique(self):
        schema = load_schema(fig6_doc("bare"))
        assert role_name_unique(schema, "p", frozenset(schema.types), frozenset(schema.types))

    def test_mfix_guard(self):
        doc = fig6_doc("mixfix")
        schema = load_schema(doc)
        entry = schema.naming.mfix[0]
        all_types = frozenset(schema.types)
        assert mfix_unique(schema, entry, [all_types, all_types])

    def test_mfix_suffix_on_collision(self):
        doc = fig6_doc("mixfix")
        doc["types"]["G"] = "relationship"
        doc["roles_of"]["G"] = ["g1", "g2"]
        doc["player"]["g1"] = "A"
        doc["player"]["g2"] = "B"
        doc["idf"]["G"] = ["g1", "g2"]
        doc["naming"]["tnm"]["G"] = "Rerun"
        doc["naming"]["mfix"].append(["G", ["has participated in an election leading in"], ["g1", "g2"]])
        schema = load_schema(doc)
        p = concat(TypeAtom("A"), MixFix("p", (), "q"), TypeAtom("B"))
        text = verbalise(p, ctx_for(schema, p))
        assert ".Election-result" in text


class TestOperators:
    @pytest.fixture
    def schema(self):
        return load_schema(salary_doc())

    def test_front_ops(self, schema):
        p = SetOp(Front(TypeAtom("x")), "intersect", Front(TypeAtom("x")))
        assert verbalise(p, ctx_for(schema, p)) == "a Person AND ALSO a Person"

    def test_set_ops_and_unaries(self, schema):
        p = SetOp(DistinctPath(TypeAtom("x")), "union", Front(TypeAtom("x")))
        assert verbalise(p, ctx_for(schema, p)) == "DISTINCT a Person UNITED WITH ONLY a Person"

    def test_reverse(self, schema):
        p = Reverse(TypeAtom("x"))
        assert verbalise(p, ctx_for(schema, p)) == "THE REVERSE OF a Person"

    def test_coercions_render_empty(self, schema):
        p = RelCompare(HdCoerce(TypeAtom("y")), ">", Scalar(SConst(1000)))
        assert verbalise(p, ctx_for(schema, p)) == "a Salary > 1000"

    def test_where(self, schema):
        p = Where(((Concat(TypeAtom("y"), AttrAtom("s")), CScalarComp(SVar("s"), ">", SConst(10))),))
        text = verbalise(p, ctx_for(schema, p, {"s": "s"}))
        assert text == "a Salary s WHERE s > 10"

    def test_if_then_else(self, schema):
        p = Where(
            ((Scalar(SConst("P")), CSome(TypeAtom("x"))),),
            Scalar(SConst("T")),
            simple=True,
        )
        text = verbalise(p, ctx_for(schema, p))
        assert text == "IF SOME a Person THEN 'P' ELSE 'T'"

    def test_alternatives(self, schema):
        p = Where(
            (
                (Scalar(SConst("P")), CSome(TypeAtom("x"))),
                (Scalar(SConst("T")), CSome(TypeAtom("z"))),
            ),
            Scalar(SConst("S")),
            simple=False,
        )
        text = verbalise(p, ctx_for(schema, p))
        assert text == "'P' IF SOME a Person; 'T' IF SOME a Company; 'S' OTHERWISE"

    def test_shuffle(self, schema):
        base = concat(
            TypeAtom("x"), AttrAtom("pp"), MixFix("p1", (), "p2"), TypeAtom("y"), AttrAtom("s")
        )
        p = Shuffle(base, ("s", "pp"))
        text = verbalise(p, ctx_for(schema, p, {"pp": "p", "s": "s"}))
        assert text == "THE PATH FROM s TO p OF a Person p who earns a Salary s"

    def test_grouping(self, schema):
        base = concat(TypeAtom("x"), AttrAtom("g"))
        p = GroupFn("count", base, ("g",))
        assert verbalise(p, ctx_for(schema, p, {"g": "g"})) == "THE COUNT OF a Person g GROUPED BY g"
        chain = concat(TypeAtom("x"), AttrAtom("g"), MixFix("p1", (), "p2"), TypeAtom("y"), AttrAtom("v"))
        p2 = GroupFn("sum", chain, ("g",), "v")
        text2 = verbalise(p2, ctx_for(schema, p2, {"g": "g", "v": "v"}))
        assert text2 == "THE SUM OF v IN a Person g who earns a Salary v GROUPED BY g"

    def test_sub_expression(self, schema):
        p = Concat(TypeAtom("x"), SubExpr((MixFix("p1", (), "p2"),)))
        text = verbalise(p, ctx_for(schema, p))
        assert text == "a Person [earns]"

    def test_denotation_uses_determined_prefix(self, schema):
        p = Denote("x", ByPath(Scalar(SConst("Erik"))))
        assert verbalise(p, ctx_for(schema, p)) == "the Person: 'Erik'"


class TestScalarsAndConditions:
    @pytest.fixture
    def schema(self):
        return load_schema(salary_doc())

    def test_count(self, schema):
        e = SAgg("count", TypeAtom("x"))
        assert verbalise_scalar(e, VerbCtx(schema)) == "THE COUNT OF a Person"

    def test_constants(self, schema):
        assert verbalise_scalar(SConst(100000), VerbCtx(schema)) == "100000"
        assert verbalise_scalar(SConst("Erik"), VerbCtx(schema)) == "'Erik'"

    def test_infix(self, schema):
        e = SApply("+", [SConst(1), SApply("*", [SConst(2), SConst(3)])])
        assert verbalise_scalar(e, VerbCtx(schema)) == "1 + (2 * 3)"

    def test_average_condition_shape(self, schema):
        inner = concat(TypeAtom("y"), MixFix("p2", (), "p1"), TypeAtom("x"), MixFix("q1", (), "q2"), AttrAtom("c"))
        cond = CScalarComp(SVar("x"), ">", SAgg("avg", HdCoerce(inner)))
        # x is typed by the enclosing query body, not by the condition itself
        typing = frozenset({("x", "y"), ("c", "z")})
        ctx = VerbCtx(schema, typing, {"x": "x", "c": "c"})
        text = verbalise_cond(cond, ctx)
        assert text == "x > THE AVERAGE OF a Salary of a Person who works for c"

    def test_bag_comparison(self, schema):
        c = CBagComp(TypeAtom("x"), "subeq", TypeAtom("x"))
        assert verbalise_cond(c, VerbCtx(schema)) == "a Person IS A SUBSET OF OR EQUAL TO a Person"

    def test_logic_and_not(self, schema):
        c = CLogic(CNot(CSome(TypeAtom("x"))), "and", CSome(TypeAtom("z")))
        text = verbalise_cond(c, VerbCtx(schema))
        assert text == "NOT SOME a Person AND SOME a Company"

    def test_internal_attribute_rejected(self, schema):
        with pytest.raises(VerbaliseError):
            verbalise(AttrAtom("~1"), VerbCtx(schema))


# readings that verbalise through a confluence, a shuffle through a middle
# variable, a function application, role access, composite denotations and
# a mix-fix middle
ROUND_TRIP_TEXTS = [
    "Salary of a Person p AS s VIA p, a Company AS k VIA c EACH a Person p who works for a Company c",
    "THE PATH FROM p VIA x TO c OF a Person p who earns a Salary x AND ALSO works for a Company c",
    "Salary of a Person who works for a Company: 'beta' + 1",
    "Employment e WHERE e.at-company = Company: 'acme'",
    "Earning: 'ann', 1000",
    "Earning: (Person: 'ann', 1000)",
    "Earning: (!p, !x)",
    "Company c offers a Salary x to a Person p",
]


@pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
def test_a_reading_verbalises_to_a_text_with_its_answer(text):
    schema = load_full_schema(grammar_doc())
    session = Session(schema=schema, base_pop=grammar_populations(schema)[0], out_format="csv")
    (reading, *_) = disambiguate(schema, parse_list(text, schema)).interpretations
    back = verbalise(reading.path, VerbCtx(schema, reading.typing, reading.vnm))
    answer = run_query(session, text)
    assert run_query(session, back) == answer
    assert len(answer.splitlines()) > 1


def test_a_confluence_answers_each_persons_salary_and_company():
    """The oracle has no confluence, so its answer is written out: each
    person of the demo population with their salary and company."""
    schema = load_full_schema(grammar_doc())
    session = Session(schema=schema, base_pop=grammar_populations(schema)[0], out_format="csv")
    assert run_query(session, ROUND_TRIP_TEXTS[0]) == "\n".join([
        "HEAD,p,c,s,k,TAIL",
        "ann,ann,acme,1000,acme,acme",
        "bob,bob,acme,2000,acme,acme",
        "cy,cy,acme,3000,acme,acme",
        "dee,dee,beta,500,beta,beta",
        "eli,eli,beta,1500,beta,beta",
        "fay,fay,beta,1000,beta,beta",
    ])


# ---------------------------------------------------------------------------
# the normal form: one memoised pass through a parse's memo


def fixpoint_normal_form(schema, p):
    """The normal form as the fixpoint of plain bottom-up passes, each of
    which rewrites a chain again at every level of its nesting."""

    def once(q):
        q = map_children(q, once, kinds=PATH_KINDS)
        if isinstance(q, Concat):
            q = concat(*P._rewrite_windows(schema, flatten_concat(q), lambda kind, *fields: kind(*fields)))
        return q

    while (q := once(p)) != p:
        p = q
    return q


def unfolded(p, schema):
    """``p`` with each binary mix-fix connection spelled as the window that
    normalisation folds into it: role entry, fact type, role exit."""
    if isinstance(p, MixFix) and not p.middles:
        return concat(RoleEntry(p.first), TypeAtom(schema.rel(p.first)), role_exit(p.last))
    return map_children(p, unfolded, schema, kinds=PATH_KINDS)


def normal_form_cases() -> list:
    """(schema, memo, paths): each expression of the round-trip generator
    and its unfolded form, interned in a memo of their own, and the
    readings of each golden text with their parse's memo."""
    schema = load_schema(rich_doc())
    cases = []
    for i in range(CASES):
        memo = PathMemo()
        p = Gen(random.Random(i)).expr(3)
        cases.append((schema, memo, [P.canonical(q, memo) for q in (p, unfolded(p, schema))]))
    for entry in _golden():
        schema = _schema(entry["schema"])
        try:
            result = parse_list(entry["query"], schema)
        except ConquerError:
            continue
        cases.append((schema, result.memo, [i.path for i in result.interpretations]))
    return cases


def chain_heads(paths: list) -> set:
    """The ids of the distinct concatenation chains of ``paths``: each
    ``Concat`` that is a path itself or a child of another kind of node."""
    heads, seen = set(), set()
    stack = [(p, False) for p in paths]
    while stack:
        node, in_chain = stack.pop()
        if (id(node), in_chain) in seen:
            continue
        seen.add((id(node), in_chain))
        is_chain = isinstance(node, Concat)
        if is_chain and not in_chain:
            heads.add(id(node))
        stack.extend((c, is_chain) for c in children(node, PATH_KINDS))
    return heads


def test_normalise_reaches_the_fixpoint_and_gives_a_normal_path_back_itself():
    """Through the memo that holds a path, ``normalise`` gives the path
    itself when it is normal already, and its own result when given that."""
    counts = {True: 0, False: 0}
    for schema, memo, paths in normal_form_cases():
        for p in paths:
            norm = normalise(schema, p, memo)
            assert norm == fixpoint_normal_form(schema, p)
            assert normalise(schema, norm, memo) is norm
            assert (norm is p) == (norm == p)
            counts[norm is p] += 1
    assert min(counts.values()) > 100, counts


def test_rewrite_windows_runs_once_per_distinct_chain(monkeypatch):
    calls = []
    rewrite = P._rewrite_windows
    monkeypatch.setattr(P, "_rewrite_windows", lambda *args: calls.append(1) or rewrite(*args))
    shared = 0
    for schema, memo, paths in normal_form_cases():
        calls.clear()
        for p in paths:
            normalise(schema, p, memo)
        heads = chain_heads(paths)
        assert len(calls) == len(heads)
        normalise(schema, paths[0], memo)
        assert len(calls) == len(heads)
        shared += sum(len(chain_heads([p])) for p in paths) - len(heads)
    # readings of one parse share chains, which are rewritten once
    assert shared > 0
