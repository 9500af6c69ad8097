"""Bag relational algebra.

Expressions form a small AST; ``sch`` computes the header of an
expression, ``evaluate`` materialises its bag of rows against a
population and an outer binding (the correlated-subquery environment).
Scalar expressions and three-valued conditions are evaluated by
``eval_scalar`` and ``eval_cond``.

A row is a plain tuple holding one value per attribute of its relation,
in the order of the attribute names sorted, so relations with the same
header share one layout.  An outer binding is a dict from attribute
names to values.

Each entry point first rewrites its plan (``rewrite``): stacked
projections fuse into one, and identity projections go.  The plans that
``paths.translate`` builds are left as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable, Iterator, Union as TUnion

from .bag import Bag, bag_avg, bag_max, bag_min, bag_sum
from .errors import EvalError
from .population import Population
from .tri import UNKNOWN, Tri, is_true, t_and, t_implies, t_not, t_or, t_xor
from .values import NULL, FactInstance, GroupedBag, is_number

AttrName = str


@dataclass(frozen=True)
class Relation:
    header: tuple  # attribute names, sorted
    body: Bag  # of tuples, one value per header name in header order

    def rows(self):
        return self.body.items()


# ---------------------------------------------------------------------------
# scalar expressions


@dataclass(frozen=True)
class Const:
    value: Any


@dataclass(frozen=True)
class Attr:
    attr: AttrName


@dataclass(frozen=True)
class AttrRole:
    attr: AttrName
    role: str


@dataclass(frozen=True)
class Count:
    of: "RelExpr"


@dataclass(frozen=True)
class Sum:
    of: "RelExpr"
    attr: AttrName


@dataclass(frozen=True)
class Min:
    of: "RelExpr"
    attr: AttrName


@dataclass(frozen=True)
class Max:
    of: "RelExpr"
    attr: AttrName


@dataclass(frozen=True)
class Avg:
    """Sum over count, SQL-92 style: NULLs are ignored on both sides."""

    of: "RelExpr"
    attr: AttrName


@dataclass(frozen=True)
class Apply:
    func: str
    args: tuple

    def __init__(self, func: str, args: Iterable[Any]):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))


RaScalar = TUnion[Const, Attr, AttrRole, Count, Sum, Min, Max, Avg, Apply]


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Compare:
    left: RaScalar
    op: str  # < <= = <> >= >
    right: RaScalar


@dataclass(frozen=True)
class BagCompare:
    left: "RelExpr"
    op: str  # sub subeq = <> supeq sup
    right: "RelExpr"


@dataclass(frozen=True)
class Member:
    elem: RaScalar
    of: "RelExpr"
    attr: AttrName


@dataclass(frozen=True)
class Not:
    of: "RaCond"


@dataclass(frozen=True)
class Connect:
    left: "RaCond"
    op: str  # and or xor implies
    right: "RaCond"


RaCond = TUnion[Compare, BagCompare, Member, Not, Connect]


# ---------------------------------------------------------------------------
# relational expressions


@dataclass(frozen=True)
class Project:
    assigns: tuple  # (attr, RaScalar) pairs, sorted by attr: the output row's layout
    of: "RelExpr"

    def __init__(self, assigns, of):
        object.__setattr__(self, "assigns", tuple(sorted(dict(assigns).items())))
        object.__setattr__(self, "of", of)


@dataclass(frozen=True)
class Select:
    cond: RaCond
    of: "RelExpr"


@dataclass(frozen=True)
class TypeTable:
    attr: AttrName
    tid: str


@dataclass(frozen=True)
class Distinct:
    of: "RelExpr"


@dataclass(frozen=True)
class Group:
    by: frozenset
    of: "RelExpr"

    def __init__(self, by, of):
        object.__setattr__(self, "by", frozenset(by))
        object.__setattr__(self, "of", of)


@dataclass(frozen=True)
class Join:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class LeftJoin:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class Union:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class Intersect:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class Diff:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class ScalarTable:
    attr: AttrName
    expr: RaScalar


@dataclass(frozen=True)
class Literal:
    """Leaf for a pre-materialised relation (LIST post-processing, tests)."""

    relation: Relation


RelExpr = TUnion[
    Project, Select, TypeTable, Distinct, Group,
    Join, LeftJoin, Union, Intersect, Diff, ScalarTable, Literal,
]


def def_map(attrs: Iterable[AttrName]) -> dict[AttrName, RaScalar]:
    return {a: Attr(a) for a in attrs}


# Extension, renaming and attribute removal are projections whose
# assignments follow from the operand's header.


def Extend(assigns, of: RelExpr) -> Project:
    """Keep every attribute of ``of`` and add ``assigns``; later
    assignments win."""
    return Project({**def_map(sch(of)), **dict(assigns)}, of)


def Rename(mapping, of: RelExpr) -> Project:
    """Rename by (new, old) pairs; the other attributes are kept."""
    renames = dict(mapping)
    keep = def_map(a for a in sch(of) if a not in renames.values())
    return Project({**keep, **{new: Attr(old) for new, old in renames.items()}}, of)


def DropAttrs(attrs, of: RelExpr) -> Project:
    return Project(def_map(sch(of) - frozenset(attrs)), of)


# ---------------------------------------------------------------------------
# Sch


def sch(e: RelExpr) -> frozenset:
    return _sch(e, {})


def _sch(e: RelExpr, known: dict[int, frozenset]) -> frozenset:
    """The header of ``e``; ``known`` holds the headers already computed,
    by node identity, so a shared sub-plan is visited once."""
    h = known.get(id(e))
    if h is not None:
        return h
    if isinstance(e, Project):
        h = frozenset(a for a, _ in e.assigns)
    elif isinstance(e, (Select, Distinct, Group)):
        h = _sch(e.of, known)
    elif isinstance(e, (TypeTable, ScalarTable)):
        h = frozenset({e.attr})
    elif isinstance(e, (Join, LeftJoin)):
        h = _sch(e.left, known) | _sch(e.right, known)
    elif isinstance(e, (Union, Intersect, Diff)):
        h, rs = _sch(e.left, known), _sch(e.right, known)
        if h != rs:
            missing = sorted(h.symmetric_difference(rs))
            raise EvalError(f"incompatible headers: {missing}")
    elif isinstance(e, Literal):
        h = frozenset(e.relation.header)
    else:
        raise EvalError(f"unknown relational expression {e!r}")
    known[id(e)] = h
    return h


# ---------------------------------------------------------------------------
# Rewrite
#
# Before evaluation a plan is rewritten by two bag-algebra laws.  Stacked
# projections fuse, pi_A(pi_B(x)) = pi_(A.B)(x), and a projection that keeps
# every attribute of its operand unchanged is dropped.  ``paths.translate``
# glues each path step on with a rename or an extension, so most of its
# projections sit directly on another projection.  The pass memoises by
# node identity, so a sub-plan shared by two parents stays one object, and
# it rewrites the subquery plans inside scalars and conditions too.


_LEAVES = (Attr, AttrRole, Const, TypeTable, Literal)


def rewrite(x):
    """The relational expression, scalar or condition ``x`` with its
    stacked projections fused and its identity projections removed."""
    return _Rewriter().node(x)


class _Rewriter:
    def __init__(self):
        # id -> (node, its rewrite); holding the node keeps its id unique
        self.done: dict[int, tuple] = {}
        self.headers: dict[int, frozenset] = {}

    def node(self, x):
        if isinstance(x, _LEAVES):
            return x
        k = id(x)
        hit = self.done.get(k)
        if hit is not None:
            return hit[1]
        out = x
        if isinstance(x, Project):
            out = self._project(x)
        elif isinstance(x, Select):
            cond, of = self.node(x.cond), self.node(x.of)
            if cond is not x.cond or of is not x.of:
                out = Select(cond, of)
        elif isinstance(x, (Distinct, Group, Count, Sum, Min, Max, Avg, Not)):
            of = self.node(x.of)
            if of is not x.of:
                out = replace(x, of=of)
        elif isinstance(x, (Join, LeftJoin, Union, Intersect, Diff, Compare, BagCompare, Connect)):
            left, right = self.node(x.left), self.node(x.right)
            if left is not x.left or right is not x.right:
                out = replace(x, left=left, right=right)
        elif isinstance(x, Member):
            elem, of = self.node(x.elem), self.node(x.of)
            if elem is not x.elem or of is not x.of:
                out = Member(elem, of, x.attr)
        elif isinstance(x, ScalarTable):
            expr = self.node(x.expr)
            if expr is not x.expr:
                out = ScalarTable(x.attr, expr)
        elif isinstance(x, Apply):
            args = []
            for a in x.args:
                args.append(self.node(a))
            if any(a is not b for a, b in zip(args, x.args)):
                out = Apply(x.func, args)
        self.done[k] = (x, out)
        return out

    def _project(self, e: Project) -> RelExpr:
        assigns = {a: self.node(s) for a, s in e.assigns}
        of = self.node(e.of)
        if isinstance(of, Project):
            fused = self._fuse(assigns, of)
            if fused is not None:
                assigns, of = fused, of.of
        try:
            header = _sch(of, self.headers)
        except EvalError:
            header = None
        if header == assigns.keys() and all(isinstance(s, Attr) and s.attr == a for a, s in assigns.items()):
            return of
        if of is e.of and all(s is t for (_, s), t in zip(e.assigns, assigns.values())):
            return e
        return Project(assigns, of)

    def _fuse(self, outer: dict, inner: Project) -> dict | None:
        """The assignments of Project(outer, inner) written over inner's
        operand, or None when the fused projection could read or raise
        differently: ``outer`` must read only inner's attributes, through
        attributes, roles of an attribute, constants and arithmetic, inner
        must assign only attributes, roles and constants, and what ``outer``
        leaves unread must be a constant or an attribute of the operand."""
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
        dropped = [s for a, s in sub.items() if a not in used and not isinstance(s, Const)]
        if dropped:
            try:
                header = _sch(inner.of, self.headers)
            except EvalError:
                return None
            if not all(isinstance(s, Attr) and s.attr in header for s in dropped):
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
# Every top-level call evaluates in one private context.  The context keeps,
# by node identity, the header of each relational expression, the position
# of each attribute in its rows and the outer attributes each node reads
# (its free attributes), and memoises the results of the nodes that can be
# reached more than once: nodes with more than one parent and nodes under a
# per-row scalar or condition.  A result depends on the outer binding only
# through the free attributes, so it is computed once per distinct binding
# of them.  The context, memo included, is dropped when the call returns.
#
# Scalars and conditions read a row through its positions and fall back to
# the outer binding; a subquery under a row sees the row's attributes over
# the outer binding as its own outer binding.


def evaluate(e: RelExpr, pop: Population) -> Relation:
    e = rewrite(e)
    ctx = _Context(pop, [e], per_row=False)
    return Relation(tuple(ctx.slots(e)), ctx.body(e, {}))


def eval_scalar(expr: RaScalar, pop: Population, env: dict) -> Any:
    expr = rewrite(expr)
    return _Context(pop, [expr], per_row=False).scalar(expr, (), {}, env)


def eval_cond(cond: RaCond, pop: Population, env: dict) -> Tri:
    cond = rewrite(cond)
    return _Context(pop, [cond], per_row=False).cond(cond, (), {}, env)


def eval_scalars(exprs: list[RaScalar], pop: Population, header: tuple, rows: Iterable[tuple]) -> Iterator[list[Any]]:
    """``eval_scalar`` of every expression on each row of a relation with
    this header in turn, all in one context, so that a subquery is not
    evaluated again for every row."""
    rewriter = _Rewriter()
    exprs = [rewriter.node(e) for e in exprs]
    ctx = _Context(pop, exprs, per_row=True)
    pos = {a: i for i, a in enumerate(header)}
    for row in rows:
        yield [ctx.scalar(e, row, pos, {}) for e in exprs]


# the nodes whose results are memoised: relational expressions, and the
# scalars and conditions that evaluate one
_SUBQUERY = RelExpr.__args__ + (Count, Sum, Min, Max, Avg, BagCompare, Member)
_AGGREGATES = (Count, Sum, Min, Max, Avg)
_MISSING = object()


def _parts(x) -> tuple[tuple, tuple]:
    """The expressions directly inside ``x``: those evaluated against x's
    own outer binding, and those evaluated once per row of x's operand."""
    if isinstance(x, Project):
        return (x.of,), tuple(s for _, s in x.assigns)
    if isinstance(x, Select):
        return (x.of,), (x.cond,)
    if isinstance(x, (Distinct, Group, Count, Sum, Min, Max, Avg, Not)):
        return (x.of,), ()
    if isinstance(x, (Join, LeftJoin, Union, Intersect, Diff, Compare, BagCompare, Connect)):
        return (x.left, x.right), ()
    if isinstance(x, Member):
        return (x.elem, x.of), ()
    if isinstance(x, ScalarTable):
        return (x.expr,), ()
    if isinstance(x, Apply):
        return x.args, ()
    return (), ()


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
    def __init__(self, pop: Population, roots: list, per_row: bool):
        self.pop = pop
        self.roots = roots  # keeps every node alive, so no id is reused
        self.headers: dict[int, frozenset] = {}
        self.positions: dict[int, dict[AttrName, int]] = {}
        self.frees: dict[int, frozenset | None] = {}
        self.memo: dict[tuple, Any] = {}
        self.repeatable = _repeatable(roots, per_row)

    def header(self, e: RelExpr) -> frozenset:
        return _sch(e, self.headers)

    def slots(self, e: RelExpr) -> dict[AttrName, int]:
        """The position of each attribute of e's header in e's rows, in
        header order."""
        pos = self.positions.get(id(e))
        if pos is None:
            pos = self.positions[id(e)] = {a: i for i, a in enumerate(sorted(self.header(e)))}
        return pos

    def free(self, x) -> frozenset | None:
        """The outer attributes that ``x`` reads; None when a header inside
        ``x`` is invalid (``x`` is then evaluated without the memo and
        raises where it did before)."""
        k = id(x)
        if k in self.frees:
            return self.frees[k]
        if isinstance(x, (Attr, AttrRole)):
            f = frozenset({x.attr})
        else:
            direct, per_row_parts = _parts(x)
            f, g = self._free_of(direct), self._free_of(per_row_parts)
            if per_row_parts and g is not None:
                try:
                    g = g - self.header(x.of)
                except EvalError:
                    g = None
            f = None if f is None or g is None else f | g
        self.frees[k] = f
        return f

    def _free_of(self, parts) -> frozenset | None:
        out = frozenset()
        for p in parts:
            f = self.free(p)
            if f is None:
                return None
            out |= f
        return out

    def _cached(self, compute, x, outer: dict) -> Any:
        """``compute(x, outer)``, memoised on x and the values of outer on
        x's free attributes when x is repeatable.  A value is keyed with its
        type, so that 1, 1.0 and Fraction(1) get entries of their own."""
        if id(x) not in self.repeatable:
            return compute(x, outer)
        free = self.free(x)
        if free is None:
            return compute(x, outer)
        key = (id(x), tuple((type(v), v) for v in (outer.get(a, _MISSING) for a in free)))
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
            pos, scalar = self.slots(e.of), self.scalar
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
            pos, cond = self.slots(e.of), self.cond
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
        if isinstance(e, (Union, Intersect, Diff)):
            self.header(e)  # header compatibility check
            lb = self.body(e.left, outer)
            rb = self.body(e.right, outer)
            if isinstance(e, Union):
                return lb.union(rb)
            if isinstance(e, Intersect):
                return lb.intersect(rb)
            return lb.difference(rb)
        if isinstance(e, ScalarTable):
            return Bag([(self.scalar(e.expr, (), {}, outer),)])
        if isinstance(e, Literal):
            return e.relation.body
        raise EvalError(f"unknown relational expression {e!r}")

    def _group(self, e: Group, outer: dict) -> Bag:
        body = self.body(e.of, outer)
        missing = e.by - self.header(e.of)
        if missing:
            raise EvalError(f"grouping attributes not in header: {sorted(missing)}")
        pos = self.slots(e.of)
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
        lpos, rpos = self.slots(e.left), self.slots(e.right)
        lkey = [i for a, i in lpos.items() if a in rpos]
        rkey = [rpos[a] for a in lpos if a in rpos]
        pick = [len(lpos) + rpos[a] if a in rpos else lpos[a] for a in self.slots(e)]
        pad_pick = [lpos[a] if a in lpos else len(lpos) + rpos[a] for a in self.slots(e)]
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
        if isinstance(expr, _AGGREGATES):
            return self._cached(self._aggregate, expr, _binding(row, pos, outer))
        if isinstance(expr, Apply):
            return _apply(expr.func, [self.scalar(a, row, pos, outer) for a in expr.args])
        raise EvalError(f"unknown scalar expression {expr!r}")

    def _aggregate(self, expr: Count | Sum | Min | Max | Avg, outer: dict) -> Any:
        header = self.header(expr.of)
        body = self.body(expr.of, outer)
        if isinstance(expr, Count):
            return body.cardinality()
        if expr.attr not in header:
            raise EvalError(f"unbound attribute {expr.attr!r}")
        i = self.slots(expr.of)[expr.attr]
        bag = Bag.from_counts((u[i], n) for u, n in body.items())
        if isinstance(expr, Sum):
            return bag_sum(bag)
        if isinstance(expr, Min):
            return bag_min(bag)
        if isinstance(expr, Max):
            return bag_max(bag)
        return bag_avg(bag)

    def cond(self, cond: RaCond, row: tuple, pos: dict, outer: dict) -> Tri:
        if isinstance(cond, Compare):
            return _compare(self.scalar(cond.left, row, pos, outer), cond.op, self.scalar(cond.right, row, pos, outer))
        if isinstance(cond, BagCompare):
            return self._cached(self._bag_compare, cond, _binding(row, pos, outer))
        if isinstance(cond, Member):
            return self._cached(self._member, cond, _binding(row, pos, outer))
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
        self.header(cond.left)
        lb = self.body(cond.left, outer)
        self.header(cond.right)
        rb = self.body(cond.right, outer)
        return _bag_compare(lb, cond.op, rb)

    def _member(self, cond: Member, outer: dict) -> Tri:
        v = self.scalar(cond.elem, (), {}, outer)
        if v is NULL:
            return UNKNOWN
        header = self.header(cond.of)
        body = self.body(cond.of, outer)
        if cond.attr not in header:
            raise EvalError(f"unbound attribute {cond.attr!r}")
        i = self.slots(cond.of)[cond.attr]
        saw_null = False
        for u, _ in body.items():
            x = u[i]
            if x is NULL:
                saw_null = True
            elif x == v:
                return True
        return UNKNOWN if saw_null else False


# ---------------------------------------------------------------------------
# Expr

_ARITH = {"+", "-", "*", "/"}
_CONNECTIVES = {"and": t_and, "or": t_or, "xor": t_xor, "implies": t_implies}

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
    if func in ("bag_sum", "bag_min", "bag_max", "bag_avg", "bag_card", "bag_distinct"):
        if len(args) != 1:
            raise EvalError(f"{func} expects 1 argument")
        (v,) = args
        if not isinstance(v, GroupedBag):
            raise EvalError(f"{func} needs a grouped bag, got {v!r}")
        if func == "bag_sum":
            return bag_sum(v.bag)
        if func == "bag_min":
            return bag_min(v.bag)
        if func == "bag_max":
            return bag_max(v.bag)
        if func == "bag_avg":
            return bag_avg(v.bag)
        if func == "bag_card":
            return v.bag.cardinality()
        return GroupedBag(v.bag.to_set())
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
