"""Verbalise-then-parse round trips over generated normalised expressions."""

from __future__ import annotations

import random

import pytest

from conquer.frontend import parse
from conquer.paths import (
    AttrAtom,
    CBagComp,
    CLogic,
    CNot,
    CSome,
    CScalarComp,
    Concat,
    DistinctPath,
    Front,
    GroupFn,
    HdCoerce,
    MixFix,
    Reverse,
    RoleEntry,
    SAgg,
    SConst,
    SetOp,
    Shuffle,
    SubExpr,
    TypeAtom,
    Where,
    canonical,
    concat,
    infer_typing,
    normalise,
    role_exit,
)
from conquer.schema import load_schema
from conquer.verbalise import VerbCtx, verbalise

CASES = 200


def rich_doc() -> dict:
    """Fully named schema for generation: every fact type has mix-fix
    readings in both directions plus role and reverse-role names."""
    return {
        "types": {
            "x": "entity",
            "y": "entity",
            "z": "entity",
            "F": "relationship",
            "G": "relationship",
            "PName": "value",
            "SAmt": "value",
            "CName": "value",
            "PN": "relationship",
            "SN": "relationship",
            "CNF": "relationship",
        },
        "roles_of": {
            "F": ["p1", "p2"],
            "G": ["q1", "q2"],
            "PN": ["pn1", "pn2"],
            "SN": ["sn1", "sn2"],
            "CNF": ["cn1", "cn2"],
        },
        "player": {
            "p1": "x",
            "p2": "y",
            "q1": "x",
            "q2": "z",
            "pn1": "x",
            "pn2": "PName",
            "sn1": "y",
            "sn2": "SAmt",
            "cn1": "z",
            "cn2": "CName",
        },
        "idf": {
            "x": [["pn1", "pn2"]],
            "y": [["sn1", "sn2"]],
            "z": [["cn1", "cn2"]],
            "F": ["p1", "p2"],
            "G": ["q1", "q2"],
            "PN": ["pn1", "pn2"],
            "SN": ["sn1", "sn2"],
            "CNF": ["cn1", "cn2"],
        },
        "naming": {
            "tnm": {"x": "Person", "y": "Salary", "z": "Company", "F": "Earning", "G": "Employment"},
            "pre": {
                "x": {"undetermined": "a", "determined": "the"},
                "y": {"undetermined": "a", "determined": "the"},
                "z": {"undetermined": "a", "determined": "the"},
            },
            "post": {"x": "who", "y": "that", "z": "which"},
            "pnm": {"p1": "earning", "p2": "paid-in", "q1": "working", "q2": "staffed-by"},
            "rnm": {"p1": "by-earner", "p2": "as-amount", "q1": "of-worker", "q2": "at-company"},
            "mfix": [
                ["F", ["earns"], ["p1", "p2"]],
                ["F", ["of"], ["p2", "p1"]],
                ["G", ["works for"], ["q1", "q2"]],
                ["G", ["employing"], ["q2", "q1"]],
            ],
        },
    }


# connectors between entity types: (mixfix node, from type, to type)
CONNECTORS = [
    (lambda: MixFix("p1", (), "p2"), "x", "y"),
    (lambda: MixFix("p2", (), "p1"), "y", "x"),
    (lambda: MixFix("q1", (), "q2"), "x", "z"),
    (lambda: MixFix("q2", (), "q1"), "z", "x"),
]


class Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vars = 0
        self.bound: list[str] = []

    def fresh_var(self) -> str:
        self.vars += 1
        name = f"v{self.vars}"
        self.bound.append(name)
        return name

    def chain(self, start: str | None = None, steps: int | None = None):
        rng = self.rng
        tid = start or rng.choice(["x", "y", "z"])
        parts: list = [TypeAtom(tid)]
        if rng.random() < 0.35:
            parts.append(AttrAtom(self.fresh_var()))
        steps = rng.randrange(0, 3) if steps is None else steps
        cur = tid
        for _ in range(steps):
            options = [c for c in CONNECTORS if c[1] == cur]
            if not options:
                break
            make, _, to = rng.choice(options)
            parts.append(make())
            parts.append(TypeAtom(to))
            cur = to
            if rng.random() < 0.3:
                parts.append(AttrAtom(self.fresh_var()))
        return concat(*parts), tid, cur

    def cond(self, body_end: str):
        rng = self.rng
        kind = rng.choice(["some", "some", "count", "bag", "not", "logic"])
        if kind == "some":
            return CSome(self.chain()[0])
        if kind == "count":
            op = rng.choice(["<", "<=", "=", "<>", ">=", ">"])
            return CScalarComp(
                SAgg("count", HdCoerce(self.chain()[0])), op, SConst(rng.randrange(0, 5))
            )
        if kind == "bag":
            op = rng.choice(["sub", "subeq", "=", "<>", "supeq", "sup"])
            a, s1, _ = self.chain()
            b, _, _ = self.chain(start=s1)
            return CBagComp(a, op, b)
        if kind == "not":
            return CNot(self.cond(body_end))
        return CLogic(self.cond(body_end), self.rng.choice(["and", "or", "implies"]), self.cond(body_end))

    def expr(self, depth: int):
        rng = self.rng
        if depth <= 0:
            return self.chain()[0]
        kind = rng.choice(
            ["chain", "chain", "front", "distinct", "setop", "frontop", "where",
             "setcmp", "group", "subexpr", "reverse", "entry"]
        )
        if kind == "chain":
            return self.chain()[0]
        if kind == "front":
            return Front(self.expr(depth - 1))
        if kind == "distinct":
            return DistinctPath(self.expr(depth - 1))
        if kind == "reverse":
            return Reverse(self.chain()[0])
        if kind == "entry":
            rid = rng.choice(["p1", "p2", "q1", "q2"])
            return RoleEntry(rid) if rng.random() < 0.5 else role_exit(rid)
        if kind == "setop":
            op = rng.choice(["union", "intersect", "minus"])
            a, s, e = self.chain()
            b, _, _ = self.chain(start=s)
            return SetOp(a, op, b)
        if kind == "frontop":
            op = rng.choice(["union", "intersect", "minus"])
            a, s, _ = self.chain()
            b, _, _ = self.chain(start=s)
            return SetOp(Front(a), op, Front(b))
        if kind == "where":
            body, _, end = self.chain()
            return Where(((body, self.cond(end)),), None, True)
        if kind == "setcmp":
            from conquer.paths import SetCompare

            op = rng.choice(["all_in", "includes_all", "match_all"])
            a, s, e = self.chain()
            b, _, _ = self.chain(start=e)
            return SetCompare(a, op, b)
        if kind == "subexpr":
            t = rng.choice(["x", "y", "z"])
            inner, _, _ = self.chain(start=t, steps=1)
            return Concat(TypeAtom(t), SubExpr((inner,)))
        if kind == "group":
            before = len(self.bound)
            body, _, _ = self.chain(steps=2)
            new_vars = self.bound[before:]
            if not new_vars:
                body = Concat(body, AttrAtom(self.fresh_var()))
                new_vars = self.bound[before:]
            return GroupFn("count", body, (new_vars[0],))
        return self.chain()[0]


@pytest.fixture(scope="module")
def schema():
    return load_schema(rich_doc())


def make_case(schema, index: int):
    rng = random.Random(424_243 + index * 7919)
    for _ in range(30):
        gen = Gen(rng)
        raw = gen.expr(rng.choice([1, 2, 2, 3]))
        try:
            p = normalise(schema, raw)
            typing = infer_typing(schema, p)
        except Exception:
            continue
        vnm = {a: a for a, _ in typing}
        for name in gen.bound:
            vnm[name] = name
        return p, typing, vnm
    raise AssertionError(f"case {index}: generation failed")


def test_round_trip_bulk(schema):
    failures = []
    for i in range(CASES):
        p, typing, vnm = make_case(schema, i)
        ctx = VerbCtx(schema, typing, vnm)
        text = verbalise(p, ctx)
        try:
            result = parse(text, schema)
        except Exception as e:
            failures.append((i, text, f"parse failed: {e}"))
            continue
        lowered = {canonical(interp.path) for interp in result.interpretations}
        if canonical(p) not in lowered:
            failures.append((i, text, "not among interpretations"))
    assert not failures, f"{len(failures)} round-trip failures; first: {failures[:3]}"


def test_round_trip_shuffle(schema):
    body = concat(
        TypeAtom("x"),
        AttrAtom("pa"),
        MixFix("p1", (), "p2"),
        TypeAtom("y"),
        AttrAtom("sb"),
    )
    p = Shuffle(body, ("sb", "pa"))
    typing = infer_typing(schema, p)
    text = verbalise(p, VerbCtx(schema, typing, {"pa": "pa", "sb": "sb"}))
    result = parse(text, schema)
    assert canonical(p) in {canonical(i.path) for i in result.interpretations}
