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
from typing import Any, Iterable, Union as TUnion

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
        self._hash = hash(frozenset(self._m.items()))

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
        m = {a: v for a, v in self._m.items() if a not in other._m}
        m.update(other._m)
        return Tup(m)

    def items(self):
        return self._m.items()

    def __contains__(self, a: AttrName) -> bool:
        return a in self._m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tup) and self._m == other._m

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}={v!r}" for a, v in sorted(self._m.items()))
        return f"({inner})"


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
    if isinstance(e, Project):
        return frozenset(a for a, _ in e.assigns)
    if isinstance(e, (Select, Distinct, Group)):
        return sch(e.of)
    if isinstance(e, (TypeTable, ScalarTable)):
        return frozenset({e.attr})
    if isinstance(e, (Join, LeftJoin)):
        return sch(e.left) | sch(e.right)
    if isinstance(e, (Union, Intersect, Diff)):
        ls, rs = sch(e.left), sch(e.right)
        if ls != rs:
            missing = sorted(ls.symmetric_difference(rs))
            raise EvalError(f"incompatible headers: {missing}")
        return ls
    if isinstance(e, Literal):
        return e.relation.header
    raise EvalError(f"unknown relational expression {e!r}")


# ---------------------------------------------------------------------------
# Val


def evaluate(e: RelExpr, pop: Population, outer: Tup = EMPTY_TUP) -> Relation:
    header = sch(e)
    body = _eval_body(e, pop, outer)
    return Relation(header, body)


def _eval_body(e: RelExpr, pop: Population, outer: Tup) -> Bag:
    if isinstance(e, Project):
        return _project(e.assigns, e.of, pop, outer)
    if isinstance(e, Select):
        return Bag.from_counts(
            (u, n)
            for u, n in _eval_body(e.of, pop, outer).items()
            if is_true(eval_cond(e.cond, pop, outer.overwrite(u)))
        )
    if isinstance(e, TypeTable):
        pop.schema.check_type(e.tid)
        instances = pop.instances(e.tid).to_set()
        return Bag.from_counts([(Tup({e.attr: i}), 1) for i, _ in instances.items()])
    if isinstance(e, Distinct):
        return _eval_body(e.of, pop, outer).to_set()
    if isinstance(e, Group):
        return _group(e.by, e.of, pop, outer)
    if isinstance(e, Join):
        return _join(e.left, e.right, pop, outer, left_outer=False)
    if isinstance(e, LeftJoin):
        return _join(e.left, e.right, pop, outer, left_outer=True)
    if isinstance(e, (Union, Intersect, Diff)):
        sch(e)  # header compatibility check
        lb = _eval_body(e.left, pop, outer)
        rb = _eval_body(e.right, pop, outer)
        if isinstance(e, Union):
            return lb.union(rb)
        if isinstance(e, Intersect):
            return lb.intersect(rb)
        return lb.difference(rb)
    if isinstance(e, ScalarTable):
        return Bag([Tup({e.attr: eval_scalar(e.expr, pop, outer)})])
    if isinstance(e, Literal):
        return e.relation.body
    raise EvalError(f"unknown relational expression {e!r}")


def _project(assigns: tuple, of: RelExpr, pop: Population, outer: Tup) -> Bag:
    rows = []
    for u, n in _eval_body(of, pop, outer).items():
        env = outer.overwrite(u)
        rows.append((Tup({a: eval_scalar(expr, pop, env) for a, expr in assigns}), n))
    return Bag.from_counts(rows)


def _group(by: frozenset, of: RelExpr, pop: Population, outer: Tup) -> Bag:
    body = _eval_body(of, pop, outer)
    header = sch(of)
    missing = by - header
    if missing:
        raise EvalError(f"grouping attributes not in header: {sorted(missing)}")
    rest = header - by
    groups: dict[Tup, list[tuple[Tup, int]]] = {}
    for u, n in body.items():
        groups.setdefault(u.restrict(by), []).append((u, n))
    out = []
    for key, rows in groups.items():
        m = dict(key.items())
        m.update({a: GroupedBag(Bag.from_counts((u.value(a), n) for u, n in rows)) for a in rest})
        out.append(Tup(m))
    return Bag(out)


def _join(left: RelExpr, right: RelExpr, pop: Population, outer: Tup, left_outer: bool) -> Bag:
    lb = _eval_body(left, pop, outer)
    rb = _eval_body(right, pop, outer)
    ls, rs = sch(left), sch(right)
    shared = ls & rs
    pad = Tup({a: NULL for a in rs - ls})
    rows = []
    for u, n in lb.items():
        matched = False
        for v, m in rb.items():
            if all(u.value(a) == v.value(a) for a in shared):
                matched = True
                rows.append((u.overwrite(v), n * m))
        if left_outer and not matched:
            rows.append((u.overwrite(pad), n))
    return Bag.from_counts(rows)


# ---------------------------------------------------------------------------
# Expr

_ARITH = {"+", "-", "*", "/"}


def eval_scalar(expr: RaScalar, pop: Population, t: Tup) -> Any:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Attr):
        return t.value(expr.attr)
    if isinstance(expr, AttrRole):
        v = t.value(expr.attr)
        if not isinstance(v, FactInstance):
            raise EvalError(f"attribute {expr.attr!r} is not a relationship instance")
        if expr.role not in v:
            raise EvalError(f"relationship instance not defined for role {expr.role!r}")
        return v[expr.role]
    if isinstance(expr, Count):
        return evaluate(expr.of, pop, t).body.cardinality()
    if isinstance(expr, (Sum, Min, Max, Avg)):
        rel = evaluate(expr.of, pop, t)
        if expr.attr not in rel.header:
            raise EvalError(f"unbound attribute {expr.attr!r}")
        bag = Bag.from_counts((u.value(expr.attr), n) for u, n in rel.rows())
        if isinstance(expr, Sum):
            return bag_sum(bag)
        if isinstance(expr, Min):
            return bag_min(bag)
        if isinstance(expr, Max):
            return bag_max(bag)
        return bag_avg(bag)
    if isinstance(expr, Apply):
        return _apply(expr.func, [eval_scalar(a, pop, t) for a in expr.args], pop, t)
    raise EvalError(f"unknown scalar expression {expr!r}")


def _apply(func: str, args: list[Any], pop: Population, t: Tup) -> Any:
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


def eval_cond(cond: RaCond, pop: Population, t: Tup) -> Tri:
    if isinstance(cond, Compare):
        return _compare(
            eval_scalar(cond.left, pop, t), cond.op, eval_scalar(cond.right, pop, t)
        )
    if isinstance(cond, BagCompare):
        lb = evaluate(cond.left, pop, t).body
        rb = evaluate(cond.right, pop, t).body
        return _bag_compare(lb, cond.op, rb)
    if isinstance(cond, Member):
        v = eval_scalar(cond.elem, pop, t)
        if v is NULL:
            return UNKNOWN
        rel = evaluate(cond.of, pop, t)
        if cond.attr not in rel.header:
            raise EvalError(f"unbound attribute {cond.attr!r}")
        saw_null = False
        for u, _ in rel.rows():
            x = u.value(cond.attr)
            if x is NULL:
                saw_null = True
            elif x == v:
                return True
        return UNKNOWN if saw_null else False
    if isinstance(cond, Not):
        return t_not(eval_cond(cond.of, pop, t))
    if isinstance(cond, Connect):
        a = eval_cond(cond.left, pop, t)
        b = eval_cond(cond.right, pop, t)
        op = {"and": t_and, "or": t_or, "xor": t_xor, "implies": t_implies}.get(cond.op)
        if op is None:
            raise EvalError(f"unknown connective {cond.op!r}")
        return op(a, b)
    raise EvalError(f"unknown condition {cond!r}")


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
