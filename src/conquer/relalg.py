"""Bag relational algebra.

Expressions form a small AST; ``sch`` computes the header of an
expression, ``evaluate`` materialises its bag of tuples against a
population and an outer tuple (the correlated-subquery environment).
Scalar expressions and three-valued conditions are evaluated by
``eval_scalar`` and ``eval_cond``.

Tuples are partial functions from attribute names to values; every
relation's body contains tuples defined on exactly its header.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Union as TUnion

from .bag import Bag, bag_avg, bag_max, bag_min, bag_sum
from .errors import EvalError
from .population import Population
from .tri import UNKNOWN, Tri, is_true, t_and, t_implies, t_not, t_or, t_xor
from .values import NULL, FactInstance, GroupedBag, is_number

AttrName = str


class Tup:
    """An immutable partial map from attribute names to values."""

    __slots__ = ("_m", "_hash")

    def __init__(self, mapping: dict[AttrName, Any] | None = None):
        self._m = dict(mapping or {})
        self._hash = None  # computed when first needed: most tuples are never hashed

    def value(self, a: AttrName) -> Any:
        try:
            return self._m[a]
        except KeyError:
            raise EvalError(f"unbound attribute {a!r}") from None

    def get(self, a: AttrName, default: Any = None) -> Any:
        return self._m.get(a, default)

    def domain(self) -> frozenset:
        return frozenset(self._m)

    def restrict(self, attrs: Iterable[AttrName]) -> "Tup":
        return Tup({a: self.value(a) for a in attrs})

    def overwrite(self, other: "Tup") -> "Tup":
        """t x u: entries of ``other`` win over entries of ``self``."""
        return _own({**self._m, **other._m})

    def items(self):
        return self._m.items()

    def __contains__(self, a: AttrName) -> bool:
        return a in self._m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tup) and self._m == other._m

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._m.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in sorted(self._m.items()))
        return f"({inner})"


def _own(m: dict[AttrName, Any]) -> Tup:
    """A tuple that takes ``m`` over without copying it."""
    t = Tup.__new__(Tup)
    t._m = m
    t._hash = None
    return t


EMPTY_TUP = Tup()


@dataclass(frozen=True)
class Relation:
    header: frozenset
    body: Bag

    def rows(self):
        return self.body.items()


def relation(header: Iterable[AttrName], tuples: Iterable[tuple[Tup, int]]) -> Relation:
    return Relation(frozenset(header), Bag.from_counts(tuples))


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


def _pairs(assigns) -> tuple:
    if isinstance(assigns, dict):
        return tuple(assigns.items())
    return tuple(assigns)


@dataclass(frozen=True)
class Project:
    assigns: tuple  # (attr, RaScalar) pairs
    of: "RelExpr"

    def __init__(self, assigns, of):
        object.__setattr__(self, "assigns", _pairs(assigns))
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
        h = e.relation.header
    else:
        raise EvalError(f"unknown relational expression {e!r}")
    known[id(e)] = h
    return h


# ---------------------------------------------------------------------------
# Val
#
# Every top-level call evaluates in one private context.  The context keeps,
# by node identity, the header of each relational expression and the outer
# attributes each node reads (its free attributes), and memoises the results
# of the nodes that can be reached more than once: nodes with more than one
# parent and nodes under a per-row scalar or condition.  A result depends on
# the outer tuple only through the free attributes, so it is computed once
# per distinct binding of them.  The context, memo included, is dropped when
# the call returns.


def evaluate(e: RelExpr, pop: Population, outer: Tup = EMPTY_TUP) -> Relation:
    ctx = _Context(pop, [e], per_row=False)
    header = ctx.header(e)
    return Relation(header, ctx.body(e, outer))


def eval_scalar(expr: RaScalar, pop: Population, t: Tup) -> Any:
    return _Context(pop, [expr], per_row=False).scalar(expr, t)


def eval_cond(cond: RaCond, pop: Population, t: Tup) -> Tri:
    return _Context(pop, [cond], per_row=False).cond(cond, t)


def eval_scalars(exprs: list[RaScalar], pop: Population, tuples: Iterable[Tup]) -> Iterator[list[Any]]:
    """``eval_scalar`` of every expression on each tuple in turn, all in one
    context, so that a subquery is not evaluated again for every tuple."""
    ctx = _Context(pop, exprs, per_row=True)
    for t in tuples:
        yield [ctx.scalar(e, t) for e in exprs]


# the nodes whose results are memoised: relational expressions, and the
# scalars and conditions that evaluate one
_SUBQUERY = RelExpr.__args__ + (Count, Sum, Min, Max, Avg, BagCompare, Member)
_AGGREGATES = (Count, Sum, Min, Max, Avg)
_MISSING = object()


def _parts(x) -> tuple[tuple, tuple]:
    """The expressions directly inside ``x``: those evaluated against x's
    own outer tuple, and those evaluated once per row of x's operand."""
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


class _Context:
    def __init__(self, pop: Population, roots: list, per_row: bool):
        self.pop = pop
        self.roots = roots  # keeps every node alive, so no id is reused
        self.headers: dict[int, frozenset] = {}
        self.frees: dict[int, frozenset | None] = {}
        self.memo: dict[tuple, Any] = {}
        self.repeatable = _repeatable(roots, per_row)

    def header(self, e: RelExpr) -> frozenset:
        return _sch(e, self.headers)

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

    def _cached(self, compute, x, t: Tup) -> Any:
        """``compute(x, t)``, memoised on x and the values of t on x's free
        attributes when x is repeatable.  A value is keyed with its type, so
        that 1, 1.0 and Fraction(1) get entries of their own."""
        if id(x) not in self.repeatable:
            return compute(x, t)
        free = self.free(x)
        if free is None:
            return compute(x, t)
        m = t._m
        key = (id(x), tuple((type(v), v) for v in (m.get(a, _MISSING) for a in free)))
        out = self.memo.get(key, _MISSING)
        if out is _MISSING:
            out = self.memo[key] = compute(x, t)
        return out

    # -- relational expressions ------------------------------------------

    def body(self, e: RelExpr, outer: Tup) -> Bag:
        return self._cached(self._body, e, outer)

    def _body(self, e: RelExpr, outer: Tup) -> Bag:
        if isinstance(e, Project):
            scalar = self.scalar
            return Bag.from_counts(
                (_own({a: scalar(s, env) for a, s in e.assigns}), n) for _, n, env in self._rows(e, outer)
            )
        if isinstance(e, Select):
            cond = self.cond
            return Bag.from_counts((u, n) for u, n, env in self._rows(e, outer) if is_true(cond(e.cond, env)))
        if isinstance(e, TypeTable):
            self.pop.schema.check_type(e.tid)
            return Bag.from_counts((_own({e.attr: i}), 1) for i in self.pop.instances(e.tid).distinct())
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
            return Bag([_own({e.attr: self.scalar(e.expr, outer)})])
        if isinstance(e, Literal):
            return e.relation.body
        raise EvalError(f"unknown relational expression {e!r}")

    def _rows(self, e: Project | Select, outer: Tup) -> Iterator[tuple[Tup, int, Tup]]:
        """The rows of e's operand with their multiplicities, each with the
        tuple e's scalars or condition see: the row over the outer tuple,
        or the row alone when they read nothing of the outer tuple."""
        rows = self.body(e.of, outer).items()
        reads = self._free_of(_parts(e)[1])
        if reads is not None and reads.isdisjoint(outer._m):
            return ((u, n, u) for u, n in rows)
        return ((u, n, outer.overwrite(u)) for u, n in rows)

    def _group(self, e: Group, outer: Tup) -> Bag:
        body = self.body(e.of, outer)
        header = self.header(e.of)
        missing = e.by - header
        if missing:
            raise EvalError(f"grouping attributes not in header: {sorted(missing)}")
        rest = header - e.by
        groups: dict[Tup, list[tuple[Tup, int]]] = {}
        for u, n in body.items():
            groups.setdefault(u.restrict(e.by), []).append((u, n))
        out = []
        for key, rows in groups.items():
            m = dict(key.items())
            m.update({a: GroupedBag(Bag.from_counts((u.value(a), n) for u, n in rows)) for a in rest})
            out.append(_own(m))
        return Bag(out)

    def _join(self, e: Join | LeftJoin, outer: Tup) -> Bag:
        """Hash join on the shared attributes: the right operand is indexed
        by its values on them and probed with each left row, so the rows
        come out in nested-loop order.  NULL matches NULL; with nothing
        shared, every row matches every row."""
        lb = self.body(e.left, outer)
        rb = self.body(e.right, outer)
        ls, rs = self.header(e.left), self.header(e.right)
        shared = tuple(ls & rs)
        index: dict[tuple, list[tuple[Tup, int]]] = {}
        for v, m in rb.items():
            index.setdefault(tuple(v.value(a) for a in shared), []).append((v, m))
        pad = _own({a: NULL for a in rs - ls}) if isinstance(e, LeftJoin) else None
        rows = []
        for u, n in lb.items():
            matches = index.get(tuple(u.value(a) for a in shared)) if index else None
            if matches:
                rows.extend((u.overwrite(v), n * m) for v, m in matches)
            elif pad is not None:
                rows.append((u.overwrite(pad), n))
        return Bag.from_counts(rows)

    # -- scalars and conditions ----------------------------------------------

    def scalar(self, expr: RaScalar, t: Tup) -> Any:
        if isinstance(expr, Attr):
            return t.value(expr.attr)
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, AttrRole):
            v = t.value(expr.attr)
            if not isinstance(v, FactInstance):
                raise EvalError(f"attribute {expr.attr!r} is not a relationship instance")
            if expr.role not in v:
                raise EvalError(f"relationship instance not defined for role {expr.role!r}")
            return v[expr.role]
        if isinstance(expr, _AGGREGATES):
            return self._cached(self._aggregate, expr, t)
        if isinstance(expr, Apply):
            return _apply(expr.func, [self.scalar(a, t) for a in expr.args])
        raise EvalError(f"unknown scalar expression {expr!r}")

    def _aggregate(self, expr: Count | Sum | Min | Max | Avg, t: Tup) -> Any:
        header = self.header(expr.of)
        body = self.body(expr.of, t)
        if isinstance(expr, Count):
            return body.cardinality()
        if expr.attr not in header:
            raise EvalError(f"unbound attribute {expr.attr!r}")
        bag = Bag.from_counts((u.value(expr.attr), n) for u, n in body.items())
        if isinstance(expr, Sum):
            return bag_sum(bag)
        if isinstance(expr, Min):
            return bag_min(bag)
        if isinstance(expr, Max):
            return bag_max(bag)
        return bag_avg(bag)

    def cond(self, cond: RaCond, t: Tup) -> Tri:
        if isinstance(cond, Compare):
            return _compare(self.scalar(cond.left, t), cond.op, self.scalar(cond.right, t))
        if isinstance(cond, BagCompare):
            return self._cached(self._bag_compare, cond, t)
        if isinstance(cond, Member):
            return self._cached(self._member, cond, t)
        if isinstance(cond, Not):
            return t_not(self.cond(cond.of, t))
        if isinstance(cond, Connect):
            a = self.cond(cond.left, t)
            b = self.cond(cond.right, t)
            op = {"and": t_and, "or": t_or, "xor": t_xor, "implies": t_implies}.get(cond.op)
            if op is None:
                raise EvalError(f"unknown connective {cond.op!r}")
            return op(a, b)
        raise EvalError(f"unknown condition {cond!r}")

    def _bag_compare(self, cond: BagCompare, t: Tup) -> Tri:
        self.header(cond.left)
        lb = self.body(cond.left, t)
        self.header(cond.right)
        rb = self.body(cond.right, t)
        return _bag_compare(lb, cond.op, rb)

    def _member(self, cond: Member, t: Tup) -> Tri:
        v = self.scalar(cond.elem, t)
        if v is NULL:
            return UNKNOWN
        header = self.header(cond.of)
        body = self.body(cond.of, t)
        if cond.attr not in header:
            raise EvalError(f"unbound attribute {cond.attr!r}")
        saw_null = False
        for u, _ in body.items():
            x = u.value(cond.attr)
            if x is NULL:
                saw_null = True
            elif x == v:
                return True
        return UNKNOWN if saw_null else False


# ---------------------------------------------------------------------------
# Expr

_ARITH = {"+", "-", "*", "/"}

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
