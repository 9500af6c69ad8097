"""Bag relational algebra.

Expressions form a small AST of ``RA_KINDS``: five scalar kinds (one
``Aggregate`` for count, sum, min, max and average), four condition kinds
and seven relational kinds (one ``SetOp`` for union, intersection and
difference, and one ``Group`` for grouping and for duplicate removal, a
grouping by every attribute).  A node's children are its fields, as
``walk.children`` finds them.  Each relational node works out its
``header`` when it is built, from its own fields and its operands'
headers, so an ill-formed set operation or grouping is refused there;
``evaluate`` materialises a node's bag of rows against a population.
Scalar expressions and three-valued conditions are evaluated by
``eval_scalar`` and ``eval_cond`` against an outer binding (the
correlated-subquery environment).

A row is a plain tuple holding one value per attribute of its relation,
in the order of the attribute names sorted, so relations with the same
header share one layout.  An outer binding is a dict from attribute
names to values.

``evaluate`` runs a ``Plan``: an expression compiled once into closures,
which run without looking at a node's kind again.  ``compile_plan`` builds
one; it runs against every population of its schema, and ``evaluate``,
``eval_scalar`` and ``eval_cond`` compile a plain expression on the spot.
Each structure of node is one node per schema, compiled once for all its
plans, and the result of each uncorrelated sub-plan is kept on the
population it ran on; every other sub-plan, aggregate and bag comparison
is computed once per distinct binding of the outer attributes it reads
within one evaluation.

Five bag-algebra rules apply as plans are built, in the builders that
``paths.Translator`` builds its plans with.  A ``Columns`` is a projection
not built yet: renaming, extension and attribute removal edit its column
map, so stacked projections compose into one, an identity projection is
never built, and a role read that nothing reads is dropped from the table
of a fact type that no rule derives.  ``JoinRules.join`` makes two maps
over one type table joined on its instance column one, and drops a join
with a type table that a column's role filler already belongs to.  The
``Project`` and ``Join`` constructors, and ``Extend``, ``Rename`` and
``DropAttrs``, which build one ``Project``, apply no rule, so a plan built
with them runs as built.

Dropping a role read and dropping a join rest on invariants that
``load_population`` establishes: each instance of a fact type fills every
role of it, and every filler of a role is in the population of the role's
player and of each of the player's supertypes.  The types a derivation
rule defines do not keep them, so the rules never drop a role read from
the table of a derived type, a join with it or a join through a role of a
derived fact type.  A population built by hand must keep the invariants
too.  The rules may change the order in which an unordered result lists
its rows, never the bag of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Iterable, Union as TUnion
from weakref import WeakValueDictionary, ref

from .bag import Bag, bag_avg, bag_max, bag_min, bag_sum
from .errors import EvalError
from .population import Population
from .schema import Schema
from .tri import UNKNOWN, Tri, is_true, t_and, t_implies, t_not, t_or, t_xor
from .values import NULL, FactInstance, GroupedBag, is_number
from .walk import children, field_names, intern_key, map_children

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
        the operand's attributes for the parts evaluated per row of it (a
        projection's assignments and a selection's condition).  Worked out
        on first use and kept on the node."""
        if isinstance(self, (Attr, AttrRole)):
            return frozenset({self.attr})
        if isinstance(self, (Project, Select)):
            out = self.of.free
            for p in [s for _, s in self.assigns] if isinstance(self, Project) else [self.cond]:
                out |= p.free.difference(self.of.slots)
            return out
        out = frozenset()
        for p in children(self, RA_KINDS):
            out |= p.free
        return out

    @cached_property
    def code(self) -> dict:
        """The node's code by the kind it is compiled as and its layout."""
        return {}


class _Rel(_Node):
    """Base of the relational nodes.  A node works out its header, the
    sorted tuple of its attribute names, and ``slots``, the position of each
    attribute in its rows, once when it is built, from its own fields and
    its operands' headers."""

    header: tuple
    slots: dict

    def __post_init__(self):
        slots = None
        if isinstance(self, SetOp):
            if self.op not in _SET_OPS:
                raise EvalError(f"unknown set operation {self.op!r}")
            if not self.left.slots.keys() & self.right.slots.keys():
                raise EvalError(f"incompatible headers: {sorted(set(self.left.header) ^ set(self.right.header))}")
        if isinstance(self, Project):
            header = tuple(a for a, _ in self.assigns)
        elif isinstance(self, (Select, Group)):
            header, slots = self.of.header, self.of.slots
            if isinstance(self, Group) and not self.by.issubset(slots):
                raise EvalError(f"grouping attributes not in header: {sorted(self.by.difference(slots))}")
        elif isinstance(self, TypeTable):
            header = (self.attr,)
        elif isinstance(self, SetOp) and self.op == "minus":
            header, slots = self.left.header, self.left.slots
        elif isinstance(self, (Join, SetOp)):
            header = tuple(sorted(self.left.slots.keys() | self.right.slots.keys()))
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


# each set operation's ``Bag`` method: multiplicities summed, the least of
# the two, or the left's less the right's
_SET_OPS = {"union": "union", "intersect": "intersect", "minus": "difference"}


@dataclass(frozen=True)
class SetOp(_Rel):
    """Bag union, intersection or difference of two relations on the
    attributes they share: a key (a row's values on those) has the
    operation on its multiplicities in the operands, and each of its
    distinct left rows with each of its distinct right rows, a shared
    attribute from the right, occurs that often; a union pads a key of
    one operand only with NULLs, a difference keeps the left rows."""

    left: "RelExpr"
    op: str  # union | intersect | minus
    right: "RelExpr"


@dataclass(frozen=True)
class Literal(_Rel):
    """Leaf for a pre-materialised relation."""

    relation: Relation


RelExpr = TUnion[Project, Select, TypeTable, Group, Join, SetOp, Literal]

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


def Extend(assigns, of: RelExpr) -> RelExpr:
    """Keep every attribute of ``of`` and add ``assigns``; later
    assignments win."""
    return Project({**def_map(of.header), **dict(assigns)}, of)


def Rename(mapping, of: RelExpr) -> RelExpr:
    """Rename by (new, old) pairs; the other attributes are kept."""
    renames = dict(mapping)
    keep = def_map(a for a in of.header if a not in renames.values())
    return Project({**keep, **{new: Attr(old) for new, old in renames.items()}}, of)


def DropAttrs(attrs, of: RelExpr) -> RelExpr:
    drop = frozenset(attrs)
    return Project(def_map(a for a in of.header if a not in drop), of)


# ---------------------------------------------------------------------------
# Rules applied as plans are built
#
# ``paths.Translator`` carries each path step as a ``Columns`` and edits
# its map by substitution, pi_A(pi_B(x)) = pi_(A.B)(x).  A ``Project`` is
# built only where an operator needs a header: a join that no rule
# removes, a set operation, a grouping, a selection, a subquery's operand
# and the root.  A composition reads a computed assignment (anything but
# an attribute, a role of one or a constant) at most once, so no row
# computes it twice, and leaves out an assignment that nothing reads only
# where reading it cannot raise; otherwise the old map is built and the
# new one reads its header.  Each step also joins a type table of its fact
# type or its player type, and the two join rules (``_merge_self_join``
# and ``JoinRules._drop_semi_join``) take most of those joins out again
# before either side is built.  A map used by two parents builds one
# projection, since ``Columns.rel`` is kept.


class Columns:
    """A projection not built yet: ``assigns`` maps each attribute to a
    scalar over the relation ``of``; ``rules`` are the join rules of the
    translation, whose schema says which reads cannot raise."""

    def __init__(self, assigns: dict, of: RelExpr, rules: JoinRules):
        self.assigns, self.of, self.rules = assigns, of, rules

    @cached_property
    def rel(self) -> RelExpr:
        """The projection, built on first use: ``of`` itself when the map
        keeps every attribute of it unchanged."""
        if self.assigns.keys() == self.of.slots.keys() and all(
            isinstance(s, Attr) and s.attr == a for a, s in self.assigns.items()
        ):
            return self.of
        return Project(self.assigns, self.of)

    def project(self, assigns: dict) -> Columns:
        """The projection of this map on ``assigns`` (attribute to scalar
        over this map's attributes), as one map over ``of`` when the
        composition can read and raise as the two projections do, else as
        a map over ``rel``."""
        reads: list = []
        out = {a: _substitute(s, self.assigns, reads) for a, s in assigns.items()}
        read = set(reads)
        computed = [a for a in reads if not isinstance(self.assigns.get(a), _SIMPLE)]
        if (
            any(s is None for s in out.values())
            or len(computed) > len(set(computed))
            or not all(a in read or self.rules.cannot_raise(s, self.of) for a, s in self.assigns.items())
        ):
            return Columns(assigns, self.rel, self.rules)
        return Columns(out, self.of, self.rules)

    def extend(self, assigns: dict) -> Columns:
        """Keep every attribute and add ``assigns``; later assignments win."""
        return self.project({**def_map(self.assigns), **assigns})

    def rename(self, mapping: dict) -> Columns:
        """Rename by (new, old) pairs; the other attributes are kept."""
        keep = def_map(a for a in self.assigns if a not in mapping.values())
        return self.project({**keep, **{new: Attr(old) for new, old in mapping.items()}})

    def drop(self, attrs) -> Columns:
        return self.project(def_map(a for a in self.assigns if a not in attrs))


class JoinRules:
    """The rules of one translation for populations of ``schema``: which
    reads cannot raise and which joins go need the schema's types, roles
    and derived types, and the rules keep the column domains they work
    out."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.derived = schema.derived_types()
        # (id, attribute) -> (node, the types its column ranges over)
        self.domains: dict[tuple[int, AttrName], tuple] = {}

    def columns(self, e: RelExpr, assigns: dict | None = None) -> Columns:
        """The map ``assigns`` over ``e``, by default every attribute of
        ``e`` unchanged."""
        return Columns(def_map(e.header) if assigns is None else assigns, e, self)

    def join(self, left: Columns, right: Columns) -> Columns:
        """The join of ``left`` and ``right``: one map when a join rule
        applies, else a map over the join of the two built."""
        merged = _merge_self_join(left, right) or self._drop_semi_join(left, right) or self._drop_semi_join(right, left)
        return merged or self.columns(Join(left.rel, right.rel))

    def cannot_raise(self, s: RaScalar, of: RelExpr) -> bool:
        """Whether reading ``s`` from a row of ``of`` never raises: a
        constant, a column of ``of``, or a role of the column of the table
        of a fact type that no rule derives."""
        if isinstance(s, Const):
            return True
        if not isinstance(s, (Attr, AttrRole)) or s.attr not in of.slots:
            return False
        if isinstance(s, Attr):
            return True
        role = self.schema.roles.get(s.role)
        return isinstance(of, TypeTable) and role is not None and role.rel == of.tid and of.tid not in self.derived

    def _drop_semi_join(self, x: Columns, table: Columns) -> Columns | None:
        """Join(x, table) as a map over x's relation, when ``table`` is a
        map over a type table T(b, t) whose columns all copy b, the two
        share one attribute s, and x's column s ranges over t: each row of
        x then matches the one row of its instance and gains the table's
        columns as copies of s."""
        tt = table.of
        if not isinstance(tt, TypeTable) or any(s != Attr(tt.attr) for s in table.assigns.values()):
            return None
        shared = x.assigns.keys() & table.assigns.keys()
        if len(shared) != 1:
            return None
        (s,) = shared
        # a supertype the schema names but does not declare stays, so that
        # its table still raises
        if tt.tid not in self._domain(x, s) or tt.tid not in self.schema.types:
            return None
        return x.extend({k: Attr(s) for k in table.assigns})

    def _domain(self, e: RelExpr | Columns, a: AttrName) -> frozenset:
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
        elif isinstance(e, (Project, Columns)):
            s = dict(e.assigns).get(a)
            if isinstance(s, Attr) and s.attr in e.of.slots:
                out = self._domain(e.of, s.attr)
            elif isinstance(s, AttrRole) and s.attr in e.of.slots:
                role = self.schema.roles.get(s.role)
                if role is not None and role.rel in self._domain(e.of, s.attr):
                    out = self.schema.ancestors[role.player] - self.derived
        elif isinstance(e, Select):
            out = self._domain(e.of, a)
        elif isinstance(e, Group) and a in e.by:
            out = self._domain(e.of, a)
        elif isinstance(e, Join) or (isinstance(e, SetOp) and e.op == "intersect"):
            for side in (e.left, e.right):
                if a in side.slots:
                    out |= self._domain(side, a)
        elif isinstance(e, SetOp) and e.op == "minus":
            out = self._domain(e.left, a)
        elif isinstance(e, SetOp) and a in e.left.slots and a in e.right.slots:
            # a union pads an attribute of one operand only with NULLs
            out = self._domain(e.left, a) & self._domain(e.right, a)
        self.domains[k] = (e, out)
        return out


# the scalars a composition may copy: reading one is no computation
_SIMPLE = (Attr, AttrRole, Const)


def _merge_self_join(left: Columns, right: Columns) -> Columns | None:
    """Join(A over T(a), B over T(b)) of two maps over one type table T as
    the map A and B with b read as a over T(a), when both maps are built
    from their table's column, its roles and constants, one shared
    attribute is the column on both sides and every other shared attribute
    is assigned the same on both sides.  T holds each instance once, so
    each row matches itself alone.  None when the join is not of that
    form."""
    table, other = left.of, right.of
    if not isinstance(table, TypeTable) or not isinstance(other, TypeTable) or table.tid != other.tid:
        return None
    col = table.attr
    ours = {k: _on_column(s, col, col) for k, s in left.assigns.items()}
    theirs = {k: _on_column(s, other.attr, col) for k, s in right.assigns.items()}
    if None in ours.values() or None in theirs.values():
        return None
    shared = ours.keys() & theirs.keys()
    if not any(ours[k] == Attr(col) for k in shared) or any(ours[k] != theirs[k] for k in shared):
        return None
    return Columns({**ours, **theirs}, table, left.rules)


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


def _substitute(s: RaScalar, sub: dict, reads: list) -> RaScalar | None:
    """``s`` with each attribute it reads replaced by its assignment in
    ``sub``, adding each attribute read to ``reads``; None when s reads an
    attribute outside sub (the outer binding's), takes a role of anything
    but an attribute, or is not built from attributes, roles, constants
    and ``Apply``."""
    if isinstance(s, Const):
        return s
    if isinstance(s, Attr):
        reads.append(s.attr)
        return sub.get(s.attr)
    if isinstance(s, AttrRole):
        t = sub.get(s.attr)
        reads.append(s.attr)
        return AttrRole(t.attr, s.role) if isinstance(t, Attr) else None
    if isinstance(s, Apply):
        args = [_substitute(a, sub, reads) for a in s.args]
        return None if any(a is None for a in args) else Apply(s.func, args)
    return None


# ---------------------------------------------------------------------------
# Evaluation
#
# A plan is compiled once into closures, and the closures are what run
# (after Neumann, "Efficiently Compiling Efficient Query Plans for Modern
# Hardware", VLDB 2011).  Compilation works out everything that depends on
# the plan alone: an attribute becomes a slot of the operand's rows or a
# read of the outer binding, a join's keys and a group's key become picks of
# slots, and each operator's loop builds its bag's frequency dict directly.
# A relational node compiles to ``run(ctx, outer) -> Bag``; a scalar or
# condition compiles, for the layout of the rows it reads, to ``run(ctx,
# row, outer)``.  ``ctx`` is the one evaluation's ``_Context``; no closure
# keeps it.
#
# The nodes of a schema's plans are hash-consed (after Filliâtre and
# Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006): compiling
# maps each node, children first, to the one node that the schema's table,
# ``Schema.subplans``, holds for its structure, adding one over the table's
# children where it has none.  A structure's key is the node's kind and
# fields: a child or a value without a hash by its identity, any other value
# with its type, so that 1, 1.0 and Fraction(1) stay apart.  A table node
# holds only table nodes, so no identity in its key is reused while it
# lives; a literal is its own node, with no entry.  Each node keeps its
# code per kind and layout (``_Node.code``).  The table holds nodes weakly:
# an entry goes once no plan and no kept result holds it.
#
# A relational node that reads no outer attribute (its ``free`` is empty)
# has one result on a population, and every query on the population keeps
# it for the next (after Sellis, "Multiple-Query Optimization", TODS 1988,
# and Ivanova et al., "An Architecture for Recycling Intermediates in a
# Column-store", SIGMOD 2009).  Its code looks in the population's
# ``results``, a ``schema.Kept`` table capped at ``population.RESULTS_CAP``,
# under its own code, and computes only on a miss; the entry holds the node
# too, so a later plan of that structure finds both.  A kept result depends
# on the structure and the population alone, so a change of the schema's
# macros or derivation rules leaves it standing: the rules' types are
# populated in a new derived population, which starts with nothing kept.
# Bags are immutable, so a kept result is the bag a fresh run builds, rows
# in the same order.
#
# Every other relational node, and every aggregate and bag comparison, is
# memoised within one evaluation.  Its result depends on the outer binding
# only through the node's free attributes, so it is computed once per
# distinct binding of them: the key is the node's id and each free value
# together with its type.  The memo is dropped with the context when the
# call returns; the caller keeps the plan's nodes alive meanwhile, so no id
# in the memo is reused.
#
# A result whose computation raises is neither kept nor memoised.  A scalar
# or condition reads a row through its operand's slots and falls back to the
# outer binding; a subquery under a row sees the row's attributes over the
# outer binding as its own outer binding.  A compiled node raises what it
# raises only when it runs, so an operator over an empty operand raises
# nothing.


@dataclass(frozen=True, eq=False)
class Plan:
    """A relational expression ready to run against any population of
    ``schema``: ``root`` is the expression's node in the schema's table
    and ``run`` its code.  The plan holds ``root``, so its nodes stay in the
    table, and the ids its code keys the memo on stay theirs."""

    root: RelExpr
    run: Callable
    schema: Schema


def compile_plan(e: RelExpr, schema: Schema) -> Plan:
    """The plan of ``e`` for populations of ``schema``."""
    root = _interned(e, schema.subplans)
    return Plan(root, _Compiler().rel(root), schema)


def evaluate(e: RelExpr | Plan, pop: Population) -> Relation:
    """The relation of a plan, or of an expression compiled for the
    population's schema, on ``pop``.  A plan built for another schema
    object raises ``EvalError``."""
    plan = e if isinstance(e, Plan) else compile_plan(e, pop.schema)
    if plan.schema is not pop.schema:
        raise EvalError("the plan was built for another schema than the population's")
    return Relation(plan.root.header, plan.run(_Context(pop), {}))


def eval_scalar(expr: RaScalar, pop: Population, env: dict) -> Any:
    return _eval("scalar expression", expr, pop, env)


def eval_cond(cond: RaCond, pop: Population, env: dict) -> Tri:
    return _eval("condition", cond, pop, env)


def _eval(kind: str, x, pop: Population, env: dict):
    """Scalar or condition ``x``, compiled as ``kind``, on ``pop`` under
    the outer binding ``env``."""
    x = _interned(x, pop.schema.subplans)
    return _Compiler()._compiled(kind, x, ())(_Context(pop), (), env)


def _interned(x, table: WeakValueDictionary):
    """The node that ``table`` holds for the structure of ``x``, else ``x``
    over the table's nodes for its children, added.  Children are mapped
    before parents, without recursion, since a chain of operators can nest
    deeper than the Python stack."""
    done: dict[int, Any] = {}  # id of a node under x -> the table's node

    def ident(c):
        return id(done[id(c)])

    stack = [x]
    while stack:
        y = stack[-1]
        if id(y) in done:
            stack.pop()
            continue
        pending = [c for c in children(y, RA_KINDS) if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        # a literal is its own node, with no entry
        if type(y) is Literal:
            z = y
        else:
            key = intern_key(type(y), [getattr(y, name) for name in field_names(type(y))], RA_KINDS, ident)
            z = table.get(key)
            if z is None:
                z = table[key] = map_children(y, lambda c: done[id(c)], kinds=RA_KINDS)
        done[id(y)] = z
    return done[id(x)]


class _Context:
    """What one evaluation's compiled code shares: the population and the
    memo."""

    __slots__ = ("pop", "memo")

    def __init__(self, pop: Population):
        self.pop = pop
        self.memo: dict[tuple, Any] = {}


def _picker(slots: list[int]):
    """The function from a row to the tuple of its values at ``slots``."""
    if len(slots) == 1:
        (i,) = slots
        return lambda u: (u[i],)
    if not slots:
        return lambda u: ()
    return itemgetter(*slots)


def _join_key(slots: list[int]):
    """The function from a row to its join key on ``slots``: for one slot
    the value itself, since two values are equal exactly when their
    1-tuples are."""
    if len(slots) == 1:
        return itemgetter(slots[0])
    return _picker(slots)


def _column(rows: Iterable[tuple[tuple, int]], i: int) -> Bag:
    """The bag of the values at slot ``i`` of rows with multiplicities."""
    freq: dict = {}
    for u, n in rows:
        v = u[i]
        freq[v] = freq.get(v, 0) + n
    return Bag.from_freq(freq)


def _grouped(bag: Bag, key) -> tuple[dict, dict]:
    """The distinct rows of ``bag`` by their ``key``, and each key's count."""
    rows: dict = {}
    counts: dict = {}
    for u, n in bag.items():
        k = key(u)
        if k in counts:
            rows[k].append(u)
            counts[k] += n
        else:
            rows[k] = [u]
            counts[k] = n
    return rows, counts


def _raiser(message: str):
    """Compiled code for a node that cannot run: it raises when it does."""

    def run(*_):
        raise EvalError(message)

    return run


class _Compiler:
    """Compiles the nodes of a schema's table, each once for each kind and
    layout of the rows it reads, and keeps the code on the node."""

    def rel(self, e: RelExpr):
        """``run(ctx, outer) -> Bag`` for relational expression ``e``."""
        return self._compiled("relational expression", e, None)

    def scalar(self, x: RaScalar, layout: tuple):
        """``run(ctx, row, outer)`` for scalar ``x`` over rows laid out as
        ``layout``."""
        return self._compiled("scalar expression", x, layout)

    def cond(self, x: RaCond, layout: tuple):
        """``run(ctx, row, outer) -> Tri`` for condition ``x`` over rows
        laid out as ``layout``."""
        return self._compiled("condition", x, layout)

    def _compiled(self, kind: str, x, layout: tuple | None):
        code = getattr(x, "code", {})
        run = code.get((kind, layout))
        if run is None:
            build = _BUILDERS[kind].get(type(x))
            if build is None:
                run = _raiser(f"unknown {kind} {x!r}")
            else:
                run = build(self, x, layout)
                # a literal's code gives the bag it holds, with nothing to keep
                if layout is None and type(x) is not Literal:
                    run = _memoised(x, None, run) if x.free else _kept(x, run)
            code[(kind, layout)] = run
        return run

    # -- relational expressions ------------------------------------------

    def project(self, e: Project, _):
        of, pos = self.rel(e.of), e.of.slots
        exprs = [s for _, s in e.assigns]
        if exprs and all(isinstance(s, Attr) and s.attr in pos for s in exprs):
            # every column is moved from a slot of the operand's rows
            pick = _picker([pos[s.attr] for s in exprs])

            def run(ctx, outer):
                freq: dict = {}
                for u, n in of(ctx, outer).items():
                    w = pick(u)
                    freq[w] = freq.get(w, 0) + n
                return Bag.from_freq(freq)

            return run
        columns = [self.scalar(s, e.of.header) for s in exprs]

        def run(ctx, outer):
            freq: dict = {}
            for u, n in of(ctx, outer).items():
                w = tuple([f(ctx, u, outer) for f in columns])
                freq[w] = freq.get(w, 0) + n
            return Bag.from_freq(freq)

        return run

    def select(self, e: Select, _):
        of, cond = self.rel(e.of), self.cond(e.cond, e.of.header)

        def run(ctx, outer):
            return Bag.from_freq({u: n for u, n in of(ctx, outer).items() if is_true(cond(ctx, u, outer))})

        return run

    def type_table(self, e: TypeTable, _):
        tid = e.tid

        def run(ctx, outer):
            ctx.pop.schema.check_type(tid)
            return Bag.from_freq({(i,): 1 for i in ctx.pop.instances(tid).distinct()})

        return run

    def group(self, e: Group, _):
        """Each group's row, holding the bag of each column other than the
        keys; grouped by every column, the operand's distinct rows."""
        of, pos = self.rel(e.of), e.of.slots
        key = _picker([i for a, i in pos.items() if a in e.by])
        rest = [i for a, i in pos.items() if a not in e.by]
        if not rest:
            return lambda ctx, outer: of(ctx, outer).to_set()

        def run(ctx, outer):
            groups: dict[tuple, list[tuple[tuple, int]]] = {}
            for u, n in of(ctx, outer).items():
                groups.setdefault(key(u), []).append((u, n))
            out = []
            for rows in groups.values():
                row = list(rows[0][0])  # holds the group's values on the keys
                for i in rest:
                    row[i] = GroupedBag(_column(rows, i))
                out.append(tuple(row))
            return Bag(out)

        return run

    def join(self, e: Join, _):
        """Hash join on the shared attributes: the right operand is indexed
        by its values on them and probed with each left row, so the rows
        come out in nested-loop order.  NULL matches NULL; with nothing
        shared, every row matches every row.  Each output value is picked
        from the left row followed by the right row, a shared attribute's
        from the right.  An output row keeps every attribute of both rows,
        so no two pairs give the same row, and each row is stored once,
        without a lookup."""
        left, right = self.rel(e.left), self.rel(e.right)
        lpos, rpos = e.left.slots, e.right.slots
        lkey = _join_key([i for a, i in lpos.items() if a in rpos])
        rkey = _join_key([rpos[a] for a in lpos if a in rpos])
        pick = _picker([len(lpos) + rpos[a] if a in rpos else lpos[a] for a in e.header])

        def run(ctx, outer):
            lb = left(ctx, outer)
            index: dict[tuple, list[tuple[tuple, int]]] = {}
            for v, m in right(ctx, outer).items():
                index.setdefault(rkey(v), []).append((v, m))
            freq: dict = {}
            for u, n in lb.items():
                matches = index.get(lkey(u))
                if matches:
                    for v, m in matches:
                        freq[pick(u + v)] = n * m
            return Bag.from_freq(freq)

        return run

    def set_op(self, e: SetOp, _):
        """One hash pass: the operation combines the operands' bags of keys,
        their values on the shared attributes, and each key's distinct rows
        are paired.  With equal headers a key is a whole row."""
        left, right, method = self.rel(e.left), self.rel(e.right), _SET_OPS[e.op]
        lpos, rpos = e.left.slots, e.right.slots
        lkey = _join_key([i for a, i in lpos.items() if a in rpos])
        rkey = _join_key([rpos[a] for a in lpos if a in rpos])
        # picked from the left row followed by the right row, a shared
        # attribute from the right one, or from the left one and NULLs
        pick = _picker([len(lpos) + rpos[a] if a in rpos else lpos[a] for a in e.header])
        left_pick = _picker([lpos[a] if a in lpos else len(lpos) + rpos[a] for a in e.header])
        lpad, rpad, minus = [(NULL,) * len(lpos)], (NULL,) * len(rpos), e.op == "minus"

        def run(ctx, outer):
            lrows, lcount = _grouped(left(ctx, outer), lkey)
            rrows, rcount = _grouped(right(ctx, outer), rkey)
            freq: dict = {}
            # the method is looked up on each call, so that one replaced on
            # ``Bag`` is the one used
            for k, m in getattr(Bag.from_freq(lcount), method)(Bag.from_freq(rcount)).items():
                if minus or k not in rrows:
                    for u in lrows[k]:
                        freq[left_pick(u + rpad)] = m
                else:
                    for u in lrows.get(k, lpad):
                        for v in rrows[k]:
                            freq[pick(u + v)] = m
            return Bag.from_freq(freq)

        return run

    def literal(self, e: Literal, _):
        body = e.relation.body
        return lambda ctx, outer: body

    # -- scalars and conditions ----------------------------------------------

    def attr(self, x: Attr, layout: tuple):
        i, a = _slot(layout, x.attr), x.attr
        if i is not None:
            return lambda ctx, row, outer: row[i]

        def run(ctx, row, outer):
            try:
                return outer[a]
            except KeyError:
                raise EvalError(f"unbound attribute {a!r}") from None

        return run

    def const(self, x: Const, _):
        v = x.value
        return lambda ctx, row, outer: v

    def attr_role(self, x: AttrRole, layout: tuple):
        a, role = x.attr, x.role

        def checked(v):
            if not isinstance(v, FactInstance):
                raise EvalError(f"attribute {a!r} is not a relationship instance")
            if role not in v:
                raise EvalError(f"relationship instance not defined for role {role!r}")
            return v[role]

        i = _slot(layout, a)
        if i is None:
            read = self.attr(Attr(a), layout)
            return lambda ctx, row, outer: checked(read(ctx, row, outer))

        def run(ctx, row, outer):
            # only a fact instance with the role reads it; anything else
            # raises, and the checked read says why
            try:
                return row[i][role]
            except (TypeError, KeyError):
                return checked(row[i])

        return run

    def aggregate(self, x: Aggregate, layout: tuple):
        of, fn, attr = self.rel(x.of), x.fn, x.attr
        i = x.of.slots.get(attr)

        def compute(ctx, outer):
            body = of(ctx, outer)
            if fn != "count":
                if i is None:
                    raise EvalError(f"unbound attribute {attr!r}")
                body = _column(body.items(), i)
            return _reduce(fn, body)

        return self.subquery(x, layout, compute)

    def apply(self, x: Apply, layout: tuple):
        func, args = x.func, [self.scalar(a, layout) for a in x.args]
        return lambda ctx, row, outer: _apply(func, [f(ctx, row, outer) for f in args])

    def compare(self, x: Compare, layout: tuple):
        left, op, right = self.scalar(x.left, layout), x.op, self.scalar(x.right, layout)
        return lambda ctx, row, outer: _compare(left(ctx, row, outer), op, right(ctx, row, outer))

    def bag_compare(self, x: BagCompare, layout: tuple):
        left, op, right = self.rel(x.left), x.op, self.rel(x.right)
        return self.subquery(x, layout, lambda ctx, outer: _bag_compare(left(ctx, outer), op, right(ctx, outer)))

    def not_(self, x: Not, layout: tuple):
        of = self.cond(x.of, layout)
        return lambda ctx, row, outer: t_not(of(ctx, row, outer))

    def connect(self, x: Connect, layout: tuple):
        left, right = self.cond(x.left, layout), self.cond(x.right, layout)
        connective = _CONNECTIVES.get(x.op)
        if connective is None:
            message = f"unknown connective {x.op!r}"

            def run(ctx, row, outer):
                left(ctx, row, outer)
                right(ctx, row, outer)
                raise EvalError(message)

            return run
        return lambda ctx, row, outer: connective(left(ctx, row, outer), right(ctx, row, outer))

    def subquery(self, x: Aggregate | BagCompare, layout: tuple, compute):
        """Code that runs ``compute(ctx, binding)`` under a row, memoised:
        the binding is the row's attributes over the outer binding's, built
        only on a miss."""

        def run(ctx, row, outer):
            env = dict(outer)
            env.update(zip(layout, row))
            return compute(ctx, env)

        return _memoised(x, layout, run)


def _slot(layout: tuple, a: AttrName) -> int | None:
    """The position of ``a`` in rows laid out as ``layout``, or None."""
    return {b: i for i, b in enumerate(layout)}.get(a)


def _kept(x, run):
    """``run`` of node ``x``, which reads no outer attribute, served from
    the population's results under ``run``: computed only when they lack it,
    and kept, with x, unless it raises.  The code holds x weakly, since x
    holds its code."""
    node = ref(x)

    def kept(ctx, outer):
        results = ctx.pop.results
        out = results.find(run)
        if out is None:
            out = results.keep(run, (node(), run(ctx, outer)))
        return out[1]

    return kept


_MISSING = object()


def _memoised(x, layout: tuple | None, run):
    """``run`` memoised on the context's memo by ``x`` and the values of x's
    free attributes, each with its type, so that 1, 1.0 and Fraction(1)
    get entries of their own.  The code of a relational node (``layout``
    None) is ``run(ctx, outer)`` and reads each value from the outer
    binding; a scalar's or condition's is ``run(ctx, row, outer)`` and
    reads a value from the row's slots where ``layout`` has it.  A run that
    raises stores nothing."""
    k = id(x)
    reads = [(_slot(layout or (), a), a) for a in x.free]

    def memoised(ctx, *args):
        # ``args`` is (outer,) or (row, outer); a read from a slot is one of
        # the row's
        outer = args[-1]
        values = [outer.get(a, _MISSING) if i is None else args[0][i] for i, a in reads]
        key = (k, tuple([(type(v), v) for v in values]))
        memo = ctx.memo
        out = memo.get(key, _MISSING)
        if out is _MISSING:
            out = memo[key] = run(ctx, *args)
        return out

    return memoised


# each node kind's builder, by what the node stands for where it is read
_BUILDERS = {
    "relational expression": {
        Project: _Compiler.project,
        Select: _Compiler.select,
        TypeTable: _Compiler.type_table,
        Group: _Compiler.group,
        Join: _Compiler.join,
        SetOp: _Compiler.set_op,
        Literal: _Compiler.literal,
    },
    "scalar expression": {
        Attr: _Compiler.attr,
        Const: _Compiler.const,
        AttrRole: _Compiler.attr_role,
        Aggregate: _Compiler.aggregate,
        Apply: _Compiler.apply,
    },
    "condition": {
        Compare: _Compiler.compare,
        BagCompare: _Compiler.bag_compare,
        Not: _Compiler.not_,
        Connect: _Compiler.connect,
    },
}


# ---------------------------------------------------------------------------
# Expr
#
# A subquery's ``Aggregate`` and the ``bag_count``, ``bag_sum``, ``bag_min``,
# ``bag_max`` and ``bag_avg`` functions of a grouped bag reduce through the
# one ``_reduce``.

_ARITH = {"+", "-", "*", "/"}
# the functions an ``Apply`` computes: the four arithmetic operators and the
# reductions of a grouped bag
FUNCTIONS = frozenset(_ARITH | {"bag_count", "bag_sum", "bag_min", "bag_max", "bag_avg", "bag_distinct"})
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
    if func in FUNCTIONS:
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
