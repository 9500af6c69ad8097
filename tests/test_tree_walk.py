"""The field-driven tree walkers ``walk.children`` and ``walk.map_children``
see every child of every path kind, every record kind and every plan node
kind.

Each kind is built with distinct marker nodes in its child positions, in
field order.  A kind whose children sit in a field shape the walkers do not
look into fails here, and so does a kind that has no builder below.  A plan
node rebuilt around new children has the header that building it around
them gives.
"""

import itertools

import pytest

from conquer import paths as P
from conquer import relalg as RA
from conquer.bag import Bag
from conquer.frontend import records as R
from conquer.frontend.records import RECORD_KINDS
from conquer.paths import PATH_KINDS
from conquer.relalg import RA_KINDS
from conquer.walk import children, map_children


def unary(kind):
    return lambda m: kind(m())


def binary(kind, op=None):
    if op is None:
        return lambda m: kind(m(), m())
    return lambda m: kind(m(), op, m())


PATH_BUILDERS = {
    P.Empty: lambda m: P.Empty(),
    P.TypeAtom: lambda m: P.TypeAtom("t"),
    P.RoleEntry: lambda m: P.RoleEntry("r"),
    P.AttrAtom: lambda m: P.AttrAtom("a"),
    P.SetCompare: binary(P.SetCompare, "all_in"),
    P.RelCompare: binary(P.RelCompare, "<"),
    P.Shuffle: lambda m: P.Shuffle(m(), ["a", "b"]),
    P.MixFix: lambda m: P.MixFix("r1", [("r2", m()), ("r3", m())], "r4"),
    P.FuncApp: lambda m: P.FuncApp("f", [m(), m()]),
    P.Where: lambda m: P.Where([(m(), m()), (m(), m())], m(), False),
    P.Confluence: lambda m: P.Confluence([("a", m(), "x"), ("b", m(), "y")], m()),
    P.GroupFn: lambda m: P.GroupFn("sum", m(), ["a"], "b"),
    P.SubExpr: lambda m: P.SubExpr([m(), m()]),
    P.Denote: lambda m: P.Denote("t", m()),
    P.SConst: lambda m: P.SConst(1),
    P.SAgg: lambda m: P.SAgg("sum", m()),
    P.SVar: lambda m: P.SVar("a"),
    P.SVarRole: lambda m: P.SVarRole("a", "r"),
    P.SApply: lambda m: P.SApply("+", [m(), m()]),
    P.CBagComp: binary(P.CBagComp, "sub"),
    P.CLogic: binary(P.CLogic, "and"),
    P.CScalarComp: binary(P.CScalarComp, "<"),
    P.Abstract: lambda m: P.Abstract("a"),
    P.Composite: lambda m: P.Composite([m(), m()]),
}
for kind in (P.Reverse, P.Front, P.DistinctPath, P.HdCoerce, P.TlCoerce,
             P.Scalar, P.CondPath, P.CSome, P.CNot, P.ByPath):
    PATH_BUILDERS[kind] = unary(kind)
for kind in (P.Concat, P.Product, P.MissingPath, P.PathUnion, P.PathIntersect,
             P.PathDiff, P.FrontUnion, P.FrontIntersect, P.FrontDiff, P.CExclusion):
    PATH_BUILDERS[kind] = binary(kind)

RECORD_BUILDERS = {
    R.TypeSpec: lambda m: R.TypeSpec("a", "Person", "x", "v", m()),
    R.Denot: lambda m: R.Denot(m(), "v", (m(), m())),
    R.RoleRef: lambda m: R.RoleRef(None, "entry", "earns", "p1"),
    R.Const: lambda m: R.Const(1),
    R.MFix: lambda m: R.MFix("who", "p1", (("earns", "p2", m()), ("of", "p3", m()))),
    R.UnaryOp: lambda m: R.UnaryOp("ONLY", m()),
    R.BinaryOp: binary(R.BinaryOp, "AND ALSO"),
    R.Shuffler: lambda m: R.Shuffler(("x",), m()),
    R.Function: lambda m: R.Function("f", (m(), m())),
    R.Selection: lambda m: R.Selection(((m(), m()), (m(), m())), m(), "alts_default"),
    R.Confluence: lambda m: R.Confluence(m(), ((m(), "a", None), (m(), None, "v"))),
    R.GroupAcct: lambda m: R.GroupAcct("COUNT", "x", m(), ("y",)),
    R.SubExpr: lambda m: R.SubExpr((m(), m())),
    R.ScConst: lambda m: R.ScConst(1),
    R.CoerceFunction: lambda m: R.CoerceFunction("THE AVERAGE", m()),
    R.VarName: lambda m: R.VarName("x", "earns", "p1"),
    R.ScFunction: lambda m: R.ScFunction("f", (m(), m())),
    R.ScBinaryOp: binary(R.ScBinaryOp, "+"),
    R.Conditioner: unary(R.Conditioner),
    R.InfDescrComp: lambda m: R.InfDescrComp(m(), m(), "="),
    R.ScaleExprComp: lambda m: R.ScaleExprComp(m(), m(), ">"),
    R.BinCondComp: lambda m: R.BinCondComp(m(), m(), "AND"),
    R.CondFunction: lambda m: R.CondFunction("f", (m(), m())),
    R.Negation: lambda m: R.Negation(m(), True),
    R.ListStatement: lambda m: R.ListStatement(
        (m(), m()), m(), R.OrderClause("items", (("x", "asc"),))
    ),
}

# a plan builder asks for a marker of the family its position holds
RA_BUILDERS = {
    RA.Const: lambda m: RA.Const(1),
    RA.Attr: lambda m: RA.Attr("a"),
    RA.AttrRole: lambda m: RA.AttrRole("a", "r"),
    RA.Aggregate: lambda m: RA.Aggregate("sum", m("rel"), "m"),
    RA.Apply: lambda m: RA.Apply("+", [m("scalar"), m("scalar")]),
    RA.Compare: lambda m: RA.Compare(m("scalar"), "<", m("scalar")),
    RA.BagCompare: lambda m: RA.BagCompare(m("rel"), "sub", m("rel")),
    RA.Not: lambda m: RA.Not(m("cond")),
    RA.Connect: lambda m: RA.Connect(m("cond"), "and", m("cond")),
    RA.Project: lambda m: RA.Project({"a": m("scalar"), "b": m("scalar")}, m("rel")),
    RA.Select: lambda m: RA.Select(m("cond"), m("rel")),
    RA.TypeTable: lambda m: RA.TypeTable("a", "T"),
    RA.Distinct: lambda m: RA.Distinct(m("rel")),
    RA.Group: lambda m: RA.Group((), m("rel")),
    RA.ScalarTable: lambda m: RA.ScalarTable("a", m("scalar")),
    RA.Literal: lambda m: RA.Literal(RA.Relation(("a",), Bag())),
}
for kind in (RA.Join, RA.LeftJoin, RA.Union, RA.Intersect, RA.Diff):
    RA_BUILDERS[kind] = lambda m, kind=kind: kind(m("rel"), m("rel"))


def ra_marker(name, family):
    """A plan node of one family.  A relation marker's column is its name
    without the digits: markers made together share it, as set operations
    need, and the swapped-in ones ("new…") have another column than the
    first ones ("m…"), so that a header left over from before a swap shows."""
    if family == "rel":
        return RA.TypeTable(name.rstrip("0123456789"), name)
    if family == "scalar":
        return RA.Attr(name)
    return RA.Compare(RA.Attr(name), "=", RA.Const(0))


CASES = [(kind, build, PATH_KINDS, P.AttrAtom) for kind, build in PATH_BUILDERS.items()]
CASES += [(kind, build, RECORD_KINDS, R.VarName) for kind, build in RECORD_BUILDERS.items()]
CASES += [(kind, build, RA_KINDS, ra_marker) for kind, build in RA_BUILDERS.items()]


def test_every_kind_has_a_builder():
    assert set(PATH_BUILDERS) == PATH_KINDS
    assert set(RECORD_BUILDERS) == RECORD_KINDS
    assert set(RA_BUILDERS) == RA_KINDS


def build_with_markers(build, marker):
    """An instance of one kind, the markers in its child positions in the
    order they were made (field order), and the family of each."""
    made, families = [], []
    names = itertools.count()

    def m(*family):
        made.append(marker(f"m{next(names)}", *family))
        families.append(family)
        return made[-1]

    return build(m), made, families


def ids(nodes):
    return [id(n) for n in nodes]


def case_id(kind) -> str:
    return f"{kind.__module__.rsplit('.', 1)[1]}.{kind.__qualname__}"


@pytest.mark.parametrize("kind, build, kinds, marker", CASES, ids=[case_id(c[0]) for c in CASES])
class TestWalkers:
    def test_children_are_the_markers_in_field_order(self, kind, build, kinds, marker):
        p, made, _ = build_with_markers(build, marker)
        assert type(p) is kind
        assert ids(children(p, kinds)) == ids(made)

    def test_map_children_replaces_each_marker(self, kind, build, kinds, marker):
        p, made, families = build_with_markers(build, marker)
        new = [marker(f"new{i}", *family) for i, family in enumerate(families)]
        swap = {id(c): n for c, n in zip(made, new)}
        q = map_children(p, lambda c: swap[id(c)], kinds=kinds)
        assert type(q) is kind
        assert ids(children(q, kinds)) == ids(new)
        if kind in RA.RelExpr.__args__:
            rest = iter(new)
            fresh = build(lambda *family: next(rest))
            assert (q.header, q.slots) == (fresh.header, fresh.slots)
        # nothing but the children changed
        back = {id(n): c for c, n in zip(made, new)}
        assert map_children(q, lambda c: back[id(c)], kinds=kinds) == p

    def test_identity_map_returns_the_node_itself(self, kind, build, kinds, marker):
        p, _, _ = build_with_markers(build, marker)
        assert map_children(p, lambda c: c, kinds=kinds) is p
