"""Path nodes build their own tuples and keep their own variables and end
atoms; translation expands and coerces through one ``PathMemo``.

* A node whose tuple fields are given as lists, or as any other iterable,
  equals and hashes like the one built with tuples, and ``GroupFn`` still
  refuses its three malformed shapes.
* ``uses`` and ``ends`` equal a plain recursive reference on every node of
  every reading of ``reading_golden.json``, of the round-trip generator's
  paths and of each kind built once, and they enter neither ``==`` nor
  ``hash``.
* Translating the README's correlated query runs the head/tail analysis at
  most once per distinct sub-path, through the one memo the translator
  makes.
"""

from __future__ import annotations

import dataclasses

import pytest

from conquer import paths as P
from conquer.errors import ConquerError
from conquer.frontend import disambiguate, parse_list
from conquer.paths import PATH_KINDS
from conquer.schema import load_schema
from conquer.walk import children

from .test_reading_golden import README_QUERIES, _golden, _schema
from .test_roundtrip import CASES, make_case, rich_doc
from .test_tree_walk import PATH_BUILDERS, build_with_markers

TUPLE_KINDS = {
    P.Shuffle, P.MixFix, P.FuncApp, P.Where, P.Confluence, P.GroupFn, P.SubExpr, P.SApply, P.Composite,
}


def tuple_fields(kind) -> list[str]:
    return [f.name for f in dataclasses.fields(kind) if f.type == "tuple"]


def test_the_kinds_with_tuple_fields():
    assert {kind for kind in PATH_KINDS if tuple_fields(kind)} == TUPLE_KINDS


@pytest.mark.parametrize("kind", sorted(TUPLE_KINDS, key=lambda k: k.__name__), ids=lambda k: k.__name__)
def test_a_list_field_builds_the_tuple_node(kind):
    node, _, _ = build_with_markers(PATH_BUILDERS[kind], lambda name: P.AttrAtom(name))
    values = {f.name: getattr(node, f.name) for f in dataclasses.fields(kind)}
    as_tuples = kind(**values)
    for make in (list, iter):
        built = kind(**{name: make(v) if name in tuple_fields(kind) else v for name, v in values.items()})
        assert built == as_tuples and hash(built) == hash(as_tuples)
        assert all(type(getattr(built, name)) is tuple for name in tuple_fields(kind))
    # ``dataclasses.replace``, and so ``walk.map_children``, builds through
    # the same hook
    replaced = dataclasses.replace(as_tuples, **{name: list(values[name]) for name in tuple_fields(kind)})
    assert replaced == as_tuples and type(getattr(replaced, tuple_fields(kind)[0])) is tuple


@pytest.mark.parametrize(
    "args, message",
    [
        (("median", P.TypeAtom("t"), ["a"], "b"), "unknown group function 'median'"),
        (("count", P.TypeAtom("t"), ["a"], "b"), "counting group functions take no target attribute"),
        (("sum", P.TypeAtom("t"), ["a"]), "group function 'sum' needs a target attribute"),
    ],
)
def test_a_malformed_group_function_is_refused(args, message):
    with pytest.raises(ValueError, match=message):
        P.GroupFn(*args)


# -- uses and ends against a plain recursive reference -----------------------


def uses_of(p) -> set:
    if isinstance(p, (P.AttrAtom, P.SVar, P.SVarRole)):
        out = {p.attr}
    elif isinstance(p, P.Denote) and isinstance(p.den, P.Abstract):
        out = {p.den.attr}
    else:
        out = set()
    for c in children(p, PATH_KINDS):
        out |= uses_of(c)
    return out - {P.HD, P.TL}


def ends_of(p) -> tuple[set, set]:
    flip = {"entry": "exit", "exit": "entry"}
    if isinstance(p, (P.TypeAtom, P.Denote)):
        return {("type", p.tid)}, {("type", p.tid)}
    if isinstance(p, P.RoleEntry):
        return {("entry", p.rid)}, {("entry", p.rid)}
    if isinstance(p, P.AttrAtom):
        return {("attr", p.attr)}, {("attr", p.attr)}
    if isinstance(p, P.Shuffle):
        return {("attr", p.attrs[0])}, {("attr", p.attrs[-1])}
    if isinstance(p, P.MixFix):
        return {("entry", p.first)}, {("exit", p.last)}
    if isinstance(p, P.Reverse):
        first, last = ends_of(p.of)
        return {(flip.get(k, k), x) for k, x in last}, {(flip.get(k, k), x) for k, x in first}
    if isinstance(p, P.Product):
        return ends_of(p.left)[0], ends_of(p.right)[0]
    if isinstance(p, (P.Concat, P.MissingPath, P.RelCompare)):
        return ends_of(p.left)[0], ends_of(p.right)[1]
    if isinstance(p, P.SetCompare):
        return ends_of(p.left)
    if isinstance(p, (P.DistinctPath, P.HdCoerce, P.TlCoerce, P.Confluence)):
        return ends_of(p.of)
    if isinstance(p, P.Front):
        first = ends_of(p.of)[0]
        return first, first
    if isinstance(p, (P.SetOp, P.Where, P.SubExpr)):
        if isinstance(p, P.SetOp):
            parts = [p.left] if p.op == "minus" else [p.left, p.right]
        elif isinstance(p, P.Where):
            parts = [body for body, _ in p.branches] + ([] if p.default is None else [p.default])
        else:
            parts = list(p.items)
        first, last = set(), set()
        for q in parts:
            f, l = ends_of(q)
            first |= f
            last |= l
        return (first, first) if isinstance(p, P.SubExpr) else (first, last)
    return set(), set()


def every_node(roots) -> list:
    seen, out, stack = set(), [], list(roots)
    while stack:
        p = stack.pop()
        if id(p) not in seen:
            seen.add(id(p))
            out.append(p)
            stack.extend(children(p, PATH_KINDS))
    return out


def golden_readings() -> list:
    out = []
    for entry in _golden():
        schema = _schema(entry["schema"])
        try:
            out.extend(i.path for i in parse_list(entry["query"], schema).interpretations)
        except ConquerError:
            continue
    return out


def round_trip_paths() -> list:
    schema = load_schema(rich_doc())
    return [make_case(schema, i)[0] for i in range(CASES)]


def every_kind() -> list:
    """Each kind once, around children that start and end differently, and
    the denotations that bind a variable."""

    def marker(name):
        return P.Concat(P.RoleEntry(name), P.AttrAtom(name))

    out = [build_with_markers(build, marker)[0] for build in PATH_BUILDERS.values()]
    return out + [
        P.Denote("t", P.Abstract("v")),
        P.Denote("t", P.Composite([P.Abstract("v"), P.ByPath(P.AttrAtom("w"))])),
    ]


@pytest.mark.parametrize("source", [golden_readings, round_trip_paths, every_kind])
def test_uses_and_ends_equal_the_reference(source):
    nodes = every_node(source())
    assert len(nodes) > 60
    for p in nodes:
        assert p.uses == uses_of(p), P.path_text(p)
        assert p.ends == ends_of(p), P.path_text(p)


def test_kept_facts_are_not_part_of_the_node():
    p = P.Concat(P.TypeAtom("Person"), P.Where([(P.AttrAtom("x"), P.CSome(P.AttrAtom("y")))]))
    fresh = P.Concat(P.TypeAtom("Person"), P.Where([(P.AttrAtom("x"), P.CSome(P.AttrAtom("y")))]))
    assert p.uses == {"x", "y"} and p.ends[0] == {("type", "Person")}
    assert "uses" in vars(p) and "uses" not in vars(fresh)
    assert p == fresh and hash(p) == hash(fresh)
    assert dataclasses.replace(p) == p and "uses" not in vars(dataclasses.replace(p))


# -- one head/tail analysis per distinct sub-path in translation ---------------

THREE_COMPARISONS = (
    README_QUERIES[0]
    + " AND x < THE MAXIMUM Salary of a Person who works for c"
    + " AND x >= THE MINIMUM Salary of a Person who works for c"
)


@pytest.mark.parametrize("query", [README_QUERIES[0], THREE_COMPARISONS], ids=["readme", "three"])
def test_translation_analyses_each_sub_path_once(monkeypatch, query):
    schema = _schema("demo")
    reading = disambiguate(schema, parse_list(query, schema)).interpretations[0]
    analysed, memos = [], []
    combos_of = P._combos_of

    def recording(schema, typing, memo, table, p):
        analysed.append(p)
        return combos_of(schema, typing, memo, table, p)

    class CountedMemo(P.PathMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(P, "_combos_of", recording)
    monkeypatch.setattr(P, "PathMemo", CountedMemo)
    P.translate(schema, reading.path, reading.typing)
    assert analysed
    assert len({id(p) for p in analysed}) == len(analysed)
    # structurally equal sub-paths are one node of the translator's memo
    assert len(set(analysed)) == len(analysed)
    assert len(memos) == 1
