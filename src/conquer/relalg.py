"""Bag relational algebra.

Expressions form a small AST of ``RA_KINDS``: five scalar kinds (one
``Aggregate`` for count, sum, min, max and average), four condition kinds
and nine relational kinds (one ``SetOp`` for union, intersection and
difference).  A node's children are its fields, as
``walk.children`` finds them.  Each relational node works out its header
(``sch``) when it is built, from its own fields and its operands'
headers, so an ill-formed set operation or grouping is refused there;
``evaluate`` materialises a node's bag of rows against a population.
Scalar expressions and three-valued conditions are evaluated by
``eval_scalar`` and ``eval_cond`` against an outer binding (the
correlated-subquery environment).

A row is a plain tuple holding one value per attribute of its relation,
in the order of the attribute names sorted, so relations with the same
header share one layout.  An outer binding is a dict from attribute
names to values.

``evaluate`` runs a ``Plan``: an expression rewritten (``rewrite``) for
one schema, with the set of its nodes that one evaluation can reach more
than once.  ``compile_plan`` builds one; a plan built once runs against
every population of its schema, and ``evaluate`` turns a plain expression
into a plan for the population's schema on the spot.  The rewrite fuses
stacked projections into one, drops identity projections, makes two
projections of one type table joined on its instance column one, and drops
a join with a type table that a column's role filler already belongs to.
The plans that ``paths.translate`` builds are left as they are.

The last rule rests on the closure invariant that ``load_population``
establishes: every filler of a role is in the population of the role's
player and of each of the player's supertypes.  The types a derivation rule
defines do not keep that invariant, so the rule never drops a join with
the table of a derived type or through a role of a derived fact type.  A
population built by hand must keep the invariant too.  Rewriting may
change the order in which an unordered result lists its rows, never the
bag of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Any, Iterable, Iterator, Union as TUnion

from .bag import Bag, bag_avg, bag_max, bag_min, bag_sum
from .errors import EvalError
from .population import Population
from .schema import Schema
from .tri import UNKNOWN, Tri, is_true, t_and, t_implies, t_not, t_or, t_xor
from .values import NULL, FactInstance, GroupedBag, is_number
from .walk import children, map_children

AttrName = str


@dataclass(frozen=True)
class Relation:
    header: tuple  # attribute names, sorted
    body: Bag  # of tuples, one value per header name in header order

    def rows(self):
        return self.body.items()


class _Node:
    """Base of every scalar, condition and relational node."""

    @cached_property
    def free(self) -> frozenset:
        """The outer attributes this node reads: those its parts read, less
        the operand's attributes for the parts evaluated per row of it.
        Worked out on first use and kept on the node."""
        if isinstance(self, (Attr, AttrRole)):
            return frozenset({self.attr})
        direct, per_row_parts = _parts(self)
        out = frozenset()
        for p in direct:
            out |= p.free
        for p in per_row_parts:
            out |= p.free.difference(self.of.slots)
        return out


class _Rel(_Node):
    """Base of the relational nodes.  A node works out its header, the
    sorted tuple of its attribute names, and ``slots``, the position of each
    attribute in its rows, once when it is built, from its own fields and
    its operands' headers."""

    header: tuple
    slots: dict

    def __post_init__(self):
        slots = None
        if isinstance(self, Project):
            header = tuple(a for a, _ in self.assigns)
        elif isinstance(self, (Select, Distinct, Group)):
            header, slots = self.of.header, self.of.slots
            if isinstance(self, Group) and not self.by.issubset(slots):
                raise EvalError(f"grouping attributes not in header: {sorted(self.by.difference(slots))}")
        elif isinstance(self, TypeTable):
            header = (self.attr,)
        elif isinstance(self, (Join, LeftJoin)):
            header = tuple(sorted(self.left.slots.keys() | self.right.slots.keys()))
        elif isinstance(self, SetOp):
            if self.op not in _SET_OPS:
                raise EvalError(f"unknown set operation {self.op!r}")
            header, slots = self.left.header, self.left.slots
            if header != self.right.header:
                missing = sorted(set(header).symmetric_difference(self.right.header))
                raise EvalError(f"incompatible headers: {missing}")
        else:  # Literal
            header = self.relation.header
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "slots", {a: i for i, a in enumerate(header)} if slots is None else slots)


# ---------------------------------------------------------------------------
# scalar expressions


@dataclass(frozen=True)
class Const(_Node):
    value: Any


@dataclass(frozen=True)
class Attr(_Node):
    attr: AttrName


@dataclass(frozen=True)
class AttrRole(_Node):
    attr: AttrName
    role: str


@dataclass(frozen=True)
class Aggregate(_Node):
    """The aggregate ``fn`` (count, sum, min, max or avg) of column ``attr``
    of the rows of ``of``.  A count counts the rows and reads no column;
    the others skip NULLs, SQL-92 style, so an average is the sum over the
    count of the non-NULL values."""

    fn: str
    of: "RelExpr"
    attr: AttrName | None = None


@dataclass(frozen=True)
class Apply(_Node):
    func: str
    args: tuple

    def __init__(self, func: str, args: Iterable[Any]):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))


RaScalar = TUnion[Const, Attr, AttrRole, Aggregate, Apply]


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Compare(_Node):
    left: RaScalar
    op: str  # < <= = <> >= >
    right: RaScalar


@dataclass(frozen=True)
class BagCompare(_Node):
    left: "RelExpr"
    op: str  # sub subeq = <> supeq sup
    right: "RelExpr"


@dataclass(frozen=True)
class Not(_Node):
    of: "RaCond"


@dataclass(frozen=True)
class Connect(_Node):
    left: "RaCond"
    op: str  # and or xor implies
    right: "RaCond"


RaCond = TUnion[Compare, BagCompare, Not, Connect]


# ---------------------------------------------------------------------------
# relational expressions


@dataclass(frozen=True)
class Project(_Rel):
    assigns: tuple  # (attr, RaScalar) pairs, sorted by attr: the output row's layout
    of: "RelExpr"

    def __init__(self, assigns, of):
        object.__setattr__(self, "assigns", tuple(sorted(dict(assigns).items())))
        object.__setattr__(self, "of", of)
        self.__post_init__()


@dataclass(frozen=True)
class Select(_Rel):
    cond: RaCond
    of: "RelExpr"


@dataclass(frozen=True)
class TypeTable(_Rel):
    attr: AttrName
    tid: str


@dataclass(frozen=True)
class Distinct(_Rel):
    of: "RelExpr"


@dataclass(frozen=True)
class Group(_Rel):
    by: frozenset
    of: "RelExpr"

    def __init__(self, by, of):
        object.__setattr__(self, "by", frozenset(by))
        object.__setattr__(self, "of", of)
        self.__post_init__()


@dataclass(frozen=True)
class Join(_Rel):
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class LeftJoin(_Rel):
    left: "RelExpr"
    right: "RelExpr"


# each set operation's ``Bag`` method: multiplicities summed, the least of
# the two, or the left's less the right's
_SET_OPS = {"union": "union", "intersect": "intersect", "minus": "difference"}


@dataclass(frozen=True)
class SetOp(_Rel):
    """Bag union, intersection or difference of two relations with one
    header."""

    left: "RelExpr"
    op: str  # union | intersect | minus
    right: "RelExpr"


@dataclass(frozen=True)
class Literal(_Rel):
    """Leaf for a pre-materialised relation."""

    relation: Relation


RelExpr = TUnion[Project, Select, TypeTable, Distinct, Group, Join, LeftJoin, SetOp, Literal]

# the relation with no attributes and one row: a scalar's one-row table is
# a projection of it
UNIT = Literal(Relation((), Bag([()])))

# every kind of node in a plan; a node's children are the field values of
# these kinds, as ``walk.children`` finds them
RA_KINDS = frozenset(RaScalar.__args__ + RaCond.__args__ + RelExpr.__args__)


def def_map(attrs: Iterable[AttrName]) -> dict[AttrName, RaScalar]:
    return {a: Attr(a) for a in attrs}


# Extension, renaming and attribute removal are projections whose
# assignments follow from the operand's header.


def Extend(assigns, of: RelExpr) -> Project:
    """Keep every attribute of ``of`` and add ``assigns``; later
    assignments win."""
    return Project({**def_map(of.header), **dict(assigns)}, of)


def Rename(mapping, of: RelExpr) -> Project:
    """Rename by (new, old) pairs; the other attributes are kept."""
    renames = dict(mapping)
    keep = def_map(a for a in of.header if a not in renames.values())
    return Project({**keep, **{new: Attr(old) for new, old in renames.items()}}, of)


def DropAttrs(attrs, of: RelExpr) -> Project:
    drop = frozenset(attrs)
    return Project(def_map(a for a in of.header if a not in drop), of)


def sch(e: RelExpr) -> frozenset:
    """The header of ``e`` as a set of attribute names."""
    return frozenset(e.slots)


# ---------------------------------------------------------------------------
# Rewrite
#
# Before evaluation a plan is rewritten by bag-algebra laws.  Stacked
# projections fuse, pi_A(pi_B(x)) = pi_(A.B)(x), and a projection that keeps
# every attribute of its operand unchanged is dropped.  ``paths.translate``
# glues each path step on with a rename or an extension, so most of its
# projections sit directly on another projection.
#
# Each step also joins a type table of its fact type or its player type,
# and two join rules take most of those joins out again.  A type table
# holds each instance once, so two projections of one type table joined on
# its instance column are one projection of it (``_merge_self_join``).  And
# a join with a projection that only copies a type table's column, on a
# column whose values fill a role that type plays, keeps every row once
# (``_Rewriter._drop_semi_join``), by the closure invariant that the module
# docstring states.
#
# Only projections and joins have rules; every other node is rebuilt
# around its rewritten children by ``walk.map_children``.  The pass
# memoises by node identity, so a sub-plan shared by two parents stays one
# object, and it rewrites the subquery plans inside scalars and conditions
# too.


_LEAVES = (Attr, AttrRole, Const, TypeTable, Literal)


def rewrite(x, schema: Schema):
    """The relational expression, scalar or condition ``x`` with its
    stacked projections fused, its identity projections removed, its
    self-joins of a type table merged and its joins that only repeat a
    role's player table removed.  ``schema`` is the schema of the
    population that ``x`` is evaluated against."""
    return _Rewriter(schema).node(x)


class _Rewriter:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.derived = schema.derived_types()
        # id -> (node, its rewrite); holding the node keeps its id unique
        self.done: dict[int, tuple] = {}
        # (id, attribute) -> (node, the types its column ranges over)
        self.domains: dict[tuple[int, AttrName], tuple] = {}

    def node(self, x):
        if isinstance(x, _LEAVES):
            return x
        k = id(x)
        hit = self.done.get(k)
        if hit is not None:
            return hit[1]
        if isinstance(x, Project):
            out = self._projection({a: self.node(s) for a, s in x.assigns}, self.node(x.of), x)
        elif isinstance(x, Join):
            left, right = self.node(x.left), self.node(x.right)
            merged = self._join(left, right)
            if merged is not None:
                out = self._projection(*merged)
            else:
                out = x if left is x.left and right is x.right else Join(left, right)
        else:
            out = map_children(x, self.node, kinds=RA_KINDS)
        self.done[k] = (x, out)
        return out

    def _projection(self, assigns: dict, of: RelExpr, e: Project | None = None) -> RelExpr:
        """Project(assigns, of) fused with ``of`` when that is a projection,
        or ``of`` itself when it is the identity; ``e`` when it is the
        same projection."""
        if _keeps_every_attribute(assigns, of):
            return of
        if isinstance(of, Project):
            fused = _fuse(assigns, of)
            if fused is not None:
                assigns, of = fused, of.of
                if _keeps_every_attribute(assigns, of):
                    return of
        if e is not None and of is e.of and all(s is t for (_, s), t in zip(e.assigns, assigns.values())):
            return e
        return Project(assigns, of)

    def _join(self, left: RelExpr, right: RelExpr) -> tuple | None:
        """The assignments and operand of one projection equal to
        Join(left, right), or None when no join rule applies."""
        return _merge_self_join(left, right) or self._drop_semi_join(left, right) or self._drop_semi_join(right, left)

    def _drop_semi_join(self, x: RelExpr, table: RelExpr) -> tuple | None:
        """Join(x, table) as a projection of x, when ``table`` is a type
        table T(b, t) whose columns all copy b, the two share one attribute
        s, and x's column s ranges over t: each row of x then matches the
        one row of its instance and gains the table's columns as copies of
        s."""
        split = _table_projection(table)
        if split is None:
            return None
        assigns, tt = split
        if any(s != Attr(tt.attr) for s in assigns.values()):
            return None
        shared = x.slots.keys() & assigns.keys()
        if len(shared) != 1:
            return None
        (s,) = shared
        # a supertype the schema names but does not declare stays, so that
        # its table still raises
        if tt.tid not in self._domain(x, s) or tt.tid not in self.schema.types:
            return None
        return {**def_map(x.header), **{k: Attr(s) for k in assigns}}, x

    def _domain(self, e: RelExpr, a: AttrName) -> frozenset:
        """Types whose population holds every value of column ``a`` of
        ``e``, by the population invariant; derived types are never
        included.  Memoised on the node and the attribute."""
        k = (id(e), a)
        hit = self.domains.get(k)
        if hit is not None:
            return hit[1]
        out = frozenset()
        if isinstance(e, TypeTable):
            if e.tid not in self.derived:
                out = self.schema.ancestors.get(e.tid, frozenset()) - self.derived
        elif isinstance(e, Project):
            s = dict(e.assigns).get(a)
            if isinstance(s, Attr) and s.attr in e.of.slots:
                out = self._domain(e.of, s.attr)
            elif isinstance(s, AttrRole) and s.attr in e.of.slots:
                role = self.schema.roles.get(s.role)
                if role is not None and role.rel in self._domain(e.of, s.attr):
                    out = self.schema.ancestors[role.player] - self.derived
        elif isinstance(e, (Select, Distinct)):
            out = self._domain(e.of, a)
        elif isinstance(e, Group) and a in e.by:
            out = self._domain(e.of, a)
        elif isinstance(e, Join):
            for side in (e.left, e.right):
                if a in side.slots:
                    out |= self._domain(side, a)
        elif isinstance(e, LeftJoin) and a in e.left.slots:
            out = self._domain(e.left, a)
        elif isinstance(e, SetOp):
            out = self._domain(e.left, a)
            if e.op == "union":
                out &= self._domain(e.right, a)
            elif e.op == "intersect":
                out |= self._domain(e.right, a)
        self.domains[k] = (e, out)
        return out


def _keeps_every_attribute(assigns: dict, of: RelExpr) -> bool:
    return assigns.keys() == of.slots.keys() and all(isinstance(s, Attr) and s.attr == a for a, s in assigns.items())


def _table_projection(e: RelExpr) -> tuple[dict, TypeTable] | None:
    """The assignments and type table of a projection of a type table, a
    bare type table being its identity projection; None for anything else."""
    if isinstance(e, TypeTable):
        return {e.attr: Attr(e.attr)}, e
    if isinstance(e, Project) and isinstance(e.of, TypeTable):
        return dict(e.assigns), e.of
    return None


def _merge_self_join(left: RelExpr, right: RelExpr) -> tuple | None:
    """Join(Project(A, T(a)), Project(B, T(b))) over one type table T as
    Project(A and B with b read as a, T(a)), when both sides are built from
    their table's column, its roles and constants, one shared attribute is
    the column on both sides and every other shared attribute is assigned
    the same on both sides.  T holds each instance once, so each row
    matches itself alone.  None when the join is not of that form."""
    lsplit, rsplit = _table_projection(left), _table_projection(right)
    if lsplit is None or rsplit is None or lsplit[1].tid != rsplit[1].tid:
        return None
    (lassigns, table), (rassigns, other) = lsplit, rsplit
    col = table.attr
    ours = {k: _on_column(s, col, col) for k, s in lassigns.items()}
    theirs = {k: _on_column(s, other.attr, col) for k, s in rassigns.items()}
    if None in ours.values() or None in theirs.values():
        return None
    shared = ours.keys() & theirs.keys()
    if not any(ours[k] == Attr(col) for k in shared) or any(ours[k] != theirs[k] for k in shared):
        return None
    return {**ours, **theirs}, table


def _on_column(s: RaScalar, col: AttrName, new: AttrName) -> RaScalar | None:
    """``s`` read from column ``new`` instead of ``col``, when it is a
    constant or reads ``col`` or a role of it; None otherwise."""
    if isinstance(s, Const):
        return s
    if isinstance(s, Attr) and s.attr == col:
        return Attr(new)
    if isinstance(s, AttrRole) and s.attr == col:
        return AttrRole(new, s.role)
    return None


def _fuse(outer: dict, inner: Project) -> dict | None:
    """The assignments of Project(outer, inner) written over inner's
    operand, or None when the fused projection could read or raise
    differently: ``outer`` must read only inner's attributes, through
    attributes, roles of an attribute, constants and arithmetic, inner must
    assign only attributes, roles and constants, and what ``outer`` leaves
    unread must be a constant or an attribute of the operand."""
    sub = dict(inner.assigns)
    if not all(isinstance(s, (Attr, AttrRole, Const)) for s in sub.values()):
        return None
    used: set = set()
    fused = {}
    for a, s in outer.items():
        s = _substitute(s, sub, used)
        if s is None:
            return None
        fused[a] = s
    for a, s in sub.items():
        if a not in used and not isinstance(s, Const) and not (isinstance(s, Attr) and s.attr in inner.of.slots):
            return None
    return fused


def _substitute(s: RaScalar, sub: dict, used: set) -> RaScalar | None:
    """``s`` with each attribute it reads replaced by its assignment in
    ``sub``, adding the attributes read to ``used``; None when s reads an
    attribute outside sub, takes a role of anything but an attribute, or
    is not built from attributes, roles, constants and ``Apply``."""
    if isinstance(s, Const):
        return s
    if isinstance(s, Attr):
        t = sub.get(s.attr)
        if t is not None:
            used.add(s.attr)
        return t
    if isinstance(s, AttrRole):
        t = sub.get(s.attr)
        if not isinstance(t, Attr):
            return None
        used.add(s.attr)
        return AttrRole(t.attr, s.role)
    if isinstance(s, Apply):
        args = []
        for a in s.args:
            a = _substitute(a, sub, used)
            if a is None:
                return None
            args.append(a)
        return Apply(s.func, args)
    return None


# ---------------------------------------------------------------------------
# Val
#
# Every top-level call evaluates in one private context.  The context
# memoises the results of the nodes that can be reached more than once
# (``_repeatable``): nodes with more than one parent and nodes under a
# per-row scalar or condition.  A result depends on the outer binding only
# through the node's free attributes (``free``), so it is computed once per
# distinct binding of them.  The context, memo included, is dropped when the
# call returns; the caller keeps the plan's nodes alive meanwhile, so no id
# in the memo is reused.
#
# Scalars and conditions read a row through its operand's slots and fall
# back to the outer binding; a subquery under a row sees the row's
# attributes over the outer binding as its own outer binding.


@dataclass(frozen=True, eq=False)
class Plan:
    """A relational expression ready to run against any population of
    ``schema``: ``root`` is its rewrite for that schema, ``repeatable`` the
    ids of the nodes of ``root`` that one evaluation can reach more than
    once, and ``derived`` the schema's derived types when it was rewritten.
    The plan holds ``root``, so those ids stay its nodes'."""

    root: RelExpr
    repeatable: frozenset
    schema: Schema
    derived: frozenset


def compile_plan(e: RelExpr, schema: Schema) -> Plan:
    """The plan of ``e`` for populations of ``schema``."""
    rewriter = _Rewriter(schema)
    root = rewriter.node(e)
    return Plan(root, frozenset(_repeatable([root], per_row=False)), schema, rewriter.derived)


def evaluate(e: RelExpr | Plan, pop: Population) -> Relation:
    """The relation of a plan, or of an expression compiled for the
    population's schema, on ``pop``.  A plan built for another schema
    object raises ``EvalError``."""
    plan = e if isinstance(e, Plan) else compile_plan(e, pop.schema)
    if plan.schema is not pop.schema:
        raise EvalError("the plan was built for another schema than the population's")
    root = plan.root
    return Relation(root.header, _Context(pop, plan.repeatable).body(root, {}))


def eval_scalar(expr: RaScalar, pop: Population, env: dict) -> Any:
    expr = rewrite(expr, pop.schema)
    return _Context(pop, _repeatable([expr], per_row=False)).scalar(expr, (), {}, env)


def eval_cond(cond: RaCond, pop: Population, env: dict) -> Tri:
    cond = rewrite(cond, pop.schema)
    return _Context(pop, _repeatable([cond], per_row=False)).cond(cond, (), {}, env)


def eval_scalars(exprs: list[RaScalar], pop: Population, header: tuple, rows: Iterable[tuple]) -> Iterator[list[Any]]:
    """``eval_scalar`` of every expression on each row of a relation with
    this header in turn, all in one context, so that a subquery is not
    evaluated again for every row."""
    rewriter = _Rewriter(pop.schema)
    exprs = [rewriter.node(e) for e in exprs]
    ctx = _Context(pop, _repeatable(exprs, per_row=True))
    pos = {a: i for i, a in enumerate(header)}
    for row in rows:
        yield [ctx.scalar(e, row, pos, {}) for e in exprs]


# the nodes whose results are memoised: relational expressions, and the
# scalars and conditions that evaluate one
_SUBQUERY = RelExpr.__args__ + (Aggregate, BagCompare)
_MISSING = object()


def _parts(x) -> tuple:
    """The expressions directly inside ``x``: those evaluated against x's
    own outer binding, and those evaluated once per row of x's operand
    (a projection's assignments and a selection's condition)."""
    if isinstance(x, Project):
        return (x.of,), tuple(s for _, s in x.assigns)
    if isinstance(x, Select):
        return (x.of,), (x.cond,)
    return children(x, RA_KINDS), ()


def _repeatable(roots: list, per_row: bool) -> set[int]:
    """Ids of the subquery nodes under ``roots`` that one context can reach
    more than once: those with more than one parent and those under a
    per-row scalar or condition.  Each distinct node is expanded at most
    twice, once outside and once under a per-row expression."""
    parents: dict[int, int] = {}
    out: set[int] = set()
    expanded: set[tuple[int, bool]] = set()
    stack = [(r, per_row) for r in roots]
    while stack:
        x, under = stack.pop()
        k = id(x)
        if isinstance(x, _SUBQUERY):
            parents[k] = parents.get(k, 0) + 1
            if under or parents[k] > 1:
                out.add(k)
        if (k, under) in expanded:
            continue
        expanded.add((k, under))
        direct, per_row_parts = _parts(x)
        stack.extend((c, under) for c in direct)
        stack.extend((c, True) for c in per_row_parts)
    return out


def _read(a: AttrName, row: tuple, pos: dict, outer: dict) -> Any:
    """The value of ``a``: the row's own, else the outer binding's."""
    i = pos.get(a)
    if i is not None:
        return row[i]
    try:
        return outer[a]
    except KeyError:
        raise EvalError(f"unbound attribute {a!r}") from None


def _binding(row: tuple, pos: dict, outer: dict) -> dict:
    """The outer binding of a subquery evaluated under ``row``: the row's
    attributes over the outer binding's."""
    if not pos:
        return outer
    env = dict(outer)
    env.update(zip(pos, row))
    return env


class _Context:
    def __init__(self, pop: Population, repeatable: set | frozenset):
        self.pop = pop
        self.memo: dict[tuple, Any] = {}
        self.repeatable = repeatable

    def _cached(self, compute, x, outer: dict) -> Any:
        """``compute(x, outer)``, memoised on x and the values of outer on
        x's free attributes when x is repeatable.  A value is keyed with its
        type, so that 1, 1.0 and Fraction(1) get entries of their own."""
        if id(x) not in self.repeatable:
            return compute(x, outer)
        key = (id(x), tuple((type(v), v) for v in (outer.get(a, _MISSING) for a in x.free)))
        out = self.memo.get(key, _MISSING)
        if out is _MISSING:
            out = self.memo[key] = compute(x, outer)
        return out

    # -- relational expressions ------------------------------------------

    def body(self, e: RelExpr, outer: dict) -> Bag:
        return self._cached(self._body, e, outer)

    def _body(self, e: RelExpr, outer: dict) -> Bag:
        if isinstance(e, Project):
            rows = self.body(e.of, outer).items()
            pos, scalar = e.of.slots, self.scalar
            exprs = [s for _, s in e.assigns]
            if exprs and all(isinstance(s, Attr) and s.attr in pos for s in exprs):
                # every column is moved from a slot of the operand's rows
                get = itemgetter(*[pos[s.attr] for s in exprs])
                if len(exprs) == 1:
                    return Bag.from_counts(((get(u),), n) for u, n in rows)
                return Bag.from_counts((get(u), n) for u, n in rows)
            return Bag.from_counts((tuple([scalar(s, u, pos, outer) for s in exprs]), n) for u, n in rows)
        if isinstance(e, Select):
            rows = self.body(e.of, outer).items()
            pos, cond = e.of.slots, self.cond
            return Bag.from_counts((u, n) for u, n in rows if is_true(cond(e.cond, u, pos, outer)))
        if isinstance(e, TypeTable):
            self.pop.schema.check_type(e.tid)
            return Bag.from_counts(((i,), 1) for i in self.pop.instances(e.tid).distinct())
        if isinstance(e, Distinct):
            return self.body(e.of, outer).to_set()
        if isinstance(e, Group):
            return self._group(e, outer)
        if isinstance(e, (Join, LeftJoin)):
            return self._join(e, outer)
        if isinstance(e, SetOp):
            # the method is looked up on each call, so that one replaced on
            # ``Bag`` is the one used
            combine = getattr(self.body(e.left, outer), _SET_OPS[e.op])
            return combine(self.body(e.right, outer))
        if isinstance(e, Literal):
            return e.relation.body
        raise EvalError(f"unknown relational expression {e!r}")

    def _group(self, e: Group, outer: dict) -> Bag:
        body = self.body(e.of, outer)
        pos = e.of.slots
        keys = [i for a, i in pos.items() if a in e.by]
        rest = [i for a, i in pos.items() if a not in e.by]
        groups: dict[tuple, list[tuple[tuple, int]]] = {}
        for u, n in body.items():
            groups.setdefault(tuple([u[i] for i in keys]), []).append((u, n))
        out = []
        for rows in groups.values():
            row = list(rows[0][0])  # holds the group's values on the keys
            for i in rest:
                row[i] = GroupedBag(Bag.from_counts((u[i], n) for u, n in rows))
            out.append(tuple(row))
        return Bag(out)

    def _join(self, e: Join | LeftJoin, outer: dict) -> Bag:
        """Hash join on the shared attributes: the right operand is indexed
        by its values on them and probed with each left row, so the rows
        come out in nested-loop order.  NULL matches NULL; with nothing
        shared, every row matches every row.  Each output value is picked
        from the left row followed by the right row, a shared attribute's
        from the right, or from the left row followed by NULLs for a left
        row that matches nothing."""
        lb = self.body(e.left, outer)
        rb = self.body(e.right, outer)
        lpos, rpos = e.left.slots, e.right.slots
        lkey = [i for a, i in lpos.items() if a in rpos]
        rkey = [rpos[a] for a in lpos if a in rpos]
        pick = [len(lpos) + rpos[a] if a in rpos else lpos[a] for a in e.header]
        pad_pick = [lpos[a] if a in lpos else len(lpos) + rpos[a] for a in e.header]
        index: dict[tuple, list[tuple[tuple, int]]] = {}
        for v, m in rb.items():
            index.setdefault(tuple([v[i] for i in rkey]), []).append((v, m))
        pad = (NULL,) * len(rpos) if isinstance(e, LeftJoin) else None
        rows = []
        for u, n in lb.items():
            matches = index.get(tuple([u[i] for i in lkey])) if index else None
            if matches:
                for v, m in matches:
                    w = u + v
                    rows.append((tuple([w[i] for i in pick]), n * m))
            elif pad is not None:
                w = u + pad
                rows.append((tuple([w[i] for i in pad_pick]), n))
        return Bag.from_counts(rows)

    # -- scalars and conditions ----------------------------------------------

    def scalar(self, expr: RaScalar, row: tuple, pos: dict, outer: dict) -> Any:
        if isinstance(expr, Attr):
            return _read(expr.attr, row, pos, outer)
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, AttrRole):
            v = _read(expr.attr, row, pos, outer)
            if not isinstance(v, FactInstance):
                raise EvalError(f"attribute {expr.attr!r} is not a relationship instance")
            if expr.role not in v:
                raise EvalError(f"relationship instance not defined for role {expr.role!r}")
            return v[expr.role]
        if isinstance(expr, Aggregate):
            return self._cached(self._aggregate, expr, _binding(row, pos, outer))
        if isinstance(expr, Apply):
            return _apply(expr.func, [self.scalar(a, row, pos, outer) for a in expr.args])
        raise EvalError(f"unknown scalar expression {expr!r}")

    def _aggregate(self, expr: Aggregate, outer: dict) -> Any:
        body = self.body(expr.of, outer)
        if expr.fn != "count":
            i = expr.of.slots.get(expr.attr)
            if i is None:
                raise EvalError(f"unbound attribute {expr.attr!r}")
            body = Bag.from_counts((u[i], n) for u, n in body.items())
        return _reduce(expr.fn, body)

    def cond(self, cond: RaCond, row: tuple, pos: dict, outer: dict) -> Tri:
        if isinstance(cond, Compare):
            return _compare(self.scalar(cond.left, row, pos, outer), cond.op, self.scalar(cond.right, row, pos, outer))
        if isinstance(cond, BagCompare):
            return self._cached(self._bag_compare, cond, _binding(row, pos, outer))
        if isinstance(cond, Not):
            return t_not(self.cond(cond.of, row, pos, outer))
        if isinstance(cond, Connect):
            a = self.cond(cond.left, row, pos, outer)
            b = self.cond(cond.right, row, pos, outer)
            op = _CONNECTIVES.get(cond.op)
            if op is None:
                raise EvalError(f"unknown connective {cond.op!r}")
            return op(a, b)
        raise EvalError(f"unknown condition {cond!r}")

    def _bag_compare(self, cond: BagCompare, outer: dict) -> Tri:
        return _bag_compare(self.body(cond.left, outer), cond.op, self.body(cond.right, outer))


# ---------------------------------------------------------------------------
# Expr
#
# A subquery's ``Aggregate`` and the ``bag_count``, ``bag_sum``, ``bag_min``,
# ``bag_max`` and ``bag_avg`` functions of a grouped bag reduce through the
# one ``_reduce``.

_ARITH = {"+", "-", "*", "/"}
_CONNECTIVES = {"and": t_and, "or": t_or, "xor": t_xor, "implies": t_implies}


def _reduce(fn: str, bag: Bag) -> Any:
    """The aggregate ``fn`` of a bag: the count of its elements, NULLs
    included, or the sum, minimum, maximum or average of its non-NULL
    values.  The reductions are read from this module's globals at each
    call, so that one replaced here (as the benchmark's self-test does) is
    the one used."""
    if fn == "count":
        return bag.cardinality()
    reduction = {"sum": bag_sum, "min": bag_min, "max": bag_max, "avg": bag_avg}.get(fn)
    if reduction is None:
        raise EvalError(f"unknown aggregate {fn!r}")
    return reduction(bag)


def _apply(func: str, args: list[Any]) -> Any:
    if func in _ARITH:
        if len(args) != 2:
            raise EvalError(f"operator {func!r} expects 2 arguments, got {len(args)}")
        a, b = args
        if a is NULL or b is NULL:
            return NULL
        if not (is_number(a) and is_number(b)):
            raise EvalError(f"operator {func!r} needs numbers, got {a!r} and {b!r}")
        if func == "+":
            return a + b
        if func == "-":
            return a - b
        if func == "*":
            return a * b
        if b == 0:
            raise EvalError("division by zero")
        return Fraction(a) / Fraction(b)
    if func.startswith("bag_"):
        if len(args) != 1:
            raise EvalError(f"{func} expects 1 argument")
        (v,) = args
        if not isinstance(v, GroupedBag):
            raise EvalError(f"{func} needs a grouped bag, got {v!r}")
        if func == "bag_distinct":
            return GroupedBag(v.bag.to_set())
        return _reduce(func[4:], v.bag)
    raise EvalError(f"unknown function {func!r}")


# ---------------------------------------------------------------------------
# Cond


def _compare(a: Any, op: str, b: Any) -> Tri:
    if a is NULL or b is NULL:
        return UNKNOWN
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    ordered = (is_number(a) and is_number(b)) or (isinstance(a, str) and isinstance(b, str))
    if not ordered:
        raise EvalError(f"cannot order {a!r} and {b!r}")
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvalError(f"unknown comparison {op!r}")


def _bag_compare(lb: Bag, op: str, rb: Bag) -> bool:
    if op == "sub":
        return lb.proper_subbag(rb)
    if op == "subeq":
        return lb.subbag(rb)
    if op == "=":
        return lb == rb
    if op == "<>":
        return lb != rb
    if op == "supeq":
        return rb.subbag(lb)
    if op == "sup":
        return rb.proper_subbag(lb)
    raise EvalError(f"unknown bag comparison {op!r}")
