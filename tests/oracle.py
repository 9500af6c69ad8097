"""An independent brute-force evaluator for path expressions.

This walks the set-comprehension definitions of each operator directly
with Python loops over enumerated populations, without building or
evaluating relational algebra.  It shares only the primitive data types
(bags and values) and the definitional abbreviation expansions (mix-fix,
sub-expressions, denotations and head/tail coercion) with the engine, so
agreement between the two is meaningful evidence.  Its rows are its own
maps from attribute names to values; ``oracle_eval`` lays them out as the
engine does only at the end.

``reference_load`` is the population loader written the direct way, which
asks the schema everything again for each instance it decodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from conquer.bag import Bag, bag_avg, bag_max, bag_min, bag_sum
from conquer.paths import (
    AttrAtom,
    CBagComp,
    CExclusion,
    CLogic,
    CNot,
    CondPath,
    Concat,
    CSome,
    CScalarComp,
    Denote,
    DistinctPath,
    Front,
    FuncApp,
    GroupFn,
    HD,
    HdCoerce,
    MissingPath,
    MixFix,
    Product,
    RelCompare,
    Reverse,
    RoleEntry,
    SAgg,
    SApply,
    SConst,
    SVar,
    SVarRole,
    Scalar,
    SetCompare,
    SetOp,
    Shuffle,
    SubExpr,
    TL,
    TlCoerce,
    TypeAtom,
    Where,
    attr_types,
    expand_coerce,
    expand_denote,
    expand_mixfix,
    expand_subexpr,
)
from conquer.errors import PopulationError, shown
from conquer.population import Population
from conquer.schema import Schema, TypeId, parse_document
from conquer.tri import UNKNOWN, is_true, t_and, t_implies, t_not, t_or, t_xor
from conquer.values import NULL, TRUE, Bool, EntityInstance, FactInstance, is_number


class Row:
    """An immutable map from attribute names to values."""

    __slots__ = ("_m", "_hash")

    def __init__(self, mapping: dict):
        self._m = dict(mapping)
        self._hash = hash(frozenset(self._m.items()))

    def value(self, a):
        return self._m[a]

    def items(self):
        return self._m.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Row) and self._m == other._m

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Row({self._m!r})"


Table = tuple[frozenset, Bag]  # header, bag of Row


def _rows(bag: Bag):
    return bag.items()


def _collect(rows) -> Bag:
    return Bag.from_counts(rows)


def _drop(t: Row, attrs) -> dict:
    return {a: v for a, v in t.items() if a not in attrs}


def _merge(a: dict, b: dict) -> dict | None:
    """Merge two partial rows; None when they disagree on a shared key."""
    out = dict(a)
    for k, v in b.items():
        if k in out and out[k] != v:
            return None
        out[k] = v
    return out


def _binder_instances(schema: Schema, pop: Population, typing, a) -> list:
    roots: list = []
    for x in sorted(attr_types(typing, a)):
        for y in sorted(schema.roots_of(x)):
            if y not in roots:
                roots.append(y)
    bag = Bag()
    for y in roots:
        bag = bag.union(pop.instances(y).to_set())
    return list(bag.elements())


class Oracle:
    def __init__(self, schema: Schema, pop: Population, typing):
        self.schema = schema
        self.pop = pop
        self.typing = typing

    # -- paths ----------------------------------------------------------

    def path(self, p, env: dict) -> Table:
        schema, pop = self.schema, self.pop
        if isinstance(p, TypeAtom):
            rows = [(Row({HD: i, TL: i}), 1) for i in pop.instances(p.tid).to_set().elements()]
            return frozenset({HD, TL}), _collect(rows)
        if isinstance(p, RoleEntry):
            rows = []
            for fact in pop.instances(schema.rel(p.rid)).to_set().elements():
                rows.append((Row({HD: fact[p.rid], TL: fact}), 1))
            return frozenset({HD, TL}), _collect(rows)
        if isinstance(p, AttrAtom):
            return self.path(Scalar(SVar(p.attr)), env)
        if isinstance(p, Reverse):
            header, body = self.path(p.of, env)
            rows = []
            for t, n in _rows(body):
                m = _drop(t, {HD, TL})
                m[HD], m[TL] = t.value(TL), t.value(HD)
                rows.append((Row(m), n))
            return header, _collect(rows)
        if isinstance(p, Concat):
            lh, lb = self.path(p.left, env)
            rh, rb = self.path(p.right, env)
            header = (lh - {TL}) | (rh - {HD})
            rows = []
            for u, n in _rows(lb):
                for v, m in _rows(rb):
                    if u.value(TL) != v.value(HD):
                        continue
                    merged = _merge(_drop(u, {TL}), _drop(v, {HD}))
                    if merged is not None:
                        rows.append((Row(merged), n * m))
            return header, _collect(rows)
        if isinstance(p, Front):
            header, body = self.path(p.of, env)
            rows = []
            for t, n in _rows(body):
                m = dict(t.items())
                m[TL] = t.value(HD)
                rows.append((Row(m), n))
            return header, _collect(rows)
        if isinstance(p, DistinctPath):
            header, body = self.path(p.of, env)
            return header, body.to_set()
        if isinstance(p, Product):
            lh, lb = self.path(p.left, env)
            rh, rb = self.path(p.right, env)
            header = lh | rh
            rows = []
            for u, n in _rows(lb):
                for v, m in _rows(rb):
                    right = _drop(v, {HD, TL})
                    right[TL] = v.value(HD)
                    merged = _merge(_drop(u, {TL}), right)
                    if merged is not None:
                        rows.append((Row(merged), n * m))
            return header, _collect(rows)
        if isinstance(p, SetCompare):
            lh, lb = self.path(p.left, env)
            rh, rb = self.path(p.right, env)
            right_heads = _collect((v.value(HD), m) for v, m in _rows(rb))
            rows = []
            for u, n in _rows(lb):
                # the per-head selection is a condition: NULL heads match nothing
                tails = _collect(
                    (u2.value(TL), n2)
                    for u2, n2 in _rows(lb)
                    if _compare(u2.value(HD), "=", u.value(HD)) is True
                )
                if p.op == "all_in":
                    keep = tails.subbag(right_heads)
                elif p.op == "includes_all":
                    keep = right_heads.subbag(tails)
                else:
                    keep = tails == right_heads
                if keep:
                    rows.append((u, n))
            return lh, _collect(rows)
        if isinstance(p, MissingPath):
            lh, lb = self.path(p.left, env)
            rh, rb = self.path(p.right, env)
            header = (lh - {TL}) | (rh - {HD})
            pair_rows = []
            for u, n in _rows(lb):
                for v, m in _rows(rb):
                    merged = _merge(_drop(u, {TL}), _drop(v, {HD}))
                    if merged is not None:
                        pair_rows.append((Row(merged), n * m))
            _, composed = self.path(Concat(p.left, p.right), env)
            return header, _collect(pair_rows).difference(composed)
        if isinstance(p, SetOp):
            return self._set_op(p, env)
        if isinstance(p, RelCompare):
            lh, lb = self.path(p.left, env)
            rh, rb = self.path(p.right, env)
            header = lh | rh
            rows = []
            for u, n in _rows(lb):
                for v, m in _rows(rb):
                    verdict = _compare(u.value(TL), p.op, v.value(HD))
                    if verdict is not True:
                        continue
                    right = _drop(v, {HD})
                    merged = _merge(_drop(u, {TL}), right)
                    if merged is not None:
                        rows.append((Row(merged), n * m))
            return header, _collect(rows)
        if isinstance(p, Shuffle):
            header, body = self.path(p.of, env)
            rows = []
            for t, n in _rows(body):
                m = {a: t.value(a) for a in p.attrs}
                m[HD] = m.pop(p.attrs[0])
                m[TL] = m.pop(p.attrs[-1]) if p.attrs[-1] in m else m[HD]
                for a in p.attrs[1:-1]:
                    m[a] = t.value(a)
                rows.append((Row(m), n))
            out_header = frozenset({HD, TL} | set(p.attrs[1:-1]))
            return out_header, _collect(rows)
        if isinstance(p, MixFix):
            return self.path(expand_mixfix(self.schema, p), env)
        if isinstance(p, FuncApp):
            tables = [self.path(q, env) for q in p.args]
            parts = []
            for i, (h, b) in enumerate(tables):
                rows = []
                for t, n in _rows(b):
                    m = _drop(t, {HD, TL} if i < len(tables) - 1 else {HD})
                    m[f"~arg{i}"] = t.value(HD)
                    rows.append((Row(m), n))
                hdr = (h - ({HD, TL} if i < len(tables) - 1 else {HD})) | {f"~arg{i}"}
                parts.append((hdr, _collect(rows)))
            header, body = parts[0]
            for h, b in parts[1:]:
                header, body = self._join((header, body), (h, b))
            args = [f"~arg{i}" for i in range(len(tables))]
            rows = []
            for t, n in _rows(body):
                vals = [t.value(a) for a in args]
                m = {a: v for a, v in t.items() if a not in args}
                m[HD] = _arith(p.func, vals)
                rows.append((Row(m), n))
            return (header - set(args)) | {HD}, _collect(rows)
        if isinstance(p, Where):
            parts = [self._where_one(body, cond, env) for body, cond in p.branches]
            if p.default is not None:
                negated = CNot(p.branches[0][1])
                for _, c in p.branches[1:]:
                    negated = CLogic(negated, "and", CNot(c))
                parts.append(self._where_one(p.default, negated, env))
            out = parts[0]
            for nxt in parts[1:]:
                out = self._union_reattach(out, nxt)
            return out
        if isinstance(p, GroupFn):
            return self._group(p, env)
        if isinstance(p, SubExpr):
            return self.path(expand_subexpr(p), env)
        if isinstance(p, Denote):
            return self.path(expand_denote(self.schema, p), env)
        if isinstance(p, (HdCoerce, TlCoerce)):
            return self.path(expand_coerce(self.schema, p, self.typing), env)
        if isinstance(p, Scalar):
            return self._scalar_path(p.expr, env)
        if isinstance(p, CondPath):
            return self.path(Where([(Scalar(SConst(TRUE)), p.cond)], None, True), env)
        raise NotImplementedError(f"oracle cannot evaluate {p!r}")

    def _join(self, left: Table, right: Table) -> Table:
        lh, lb = left
        rh, rb = right
        rows = []
        for u, n in _rows(lb):
            for v, m in _rows(rb):
                merged = _merge(dict(u.items()), dict(v.items()))
                if merged is not None:
                    rows.append((Row(merged), n * m))
        return lh | rh, _collect(rows)

    def _left_join(self, left: Table, right: Table) -> Table:
        lh, lb = left
        rh, rb = right
        pad = rh - lh
        rows = []
        for u, n in _rows(lb):
            matched = False
            for v, m in _rows(rb):
                merged = _merge(dict(u.items()), dict(v.items()))
                if merged is not None:
                    matched = True
                    rows.append((Row(merged), n * m))
            if not matched:
                m2 = dict(u.items())
                m2.update({a: NULL for a in pad})
                rows.append((Row(m2), n))
        return lh | rh, _collect(rows)

    def _project_common(self, table: Table, common) -> Table:
        _, body = table
        rows = [(Row({a: t.value(a) for a in common}), n) for t, n in _rows(body)]
        return frozenset(common), _collect(rows)

    def _set_op(self, p, env: dict) -> Table:
        left = self.path(p.left, env)
        right = self.path(p.right, env)
        if p.op == "union":
            return self._union_reattach(left, right)
        common = left[0] & right[0]
        lc = self._project_common(left, common)
        rc = self._project_common(right, common)
        if p.op == "intersect":
            core = (frozenset(common), lc[1].intersect(rc[1]))
            out = self._join(core, (left[0], left[1].to_set()))
            return self._join(out, (right[0], right[1].to_set()))
        core = (frozenset(common), lc[1].difference(rc[1]))
        return self._join(core, (left[0], left[1].to_set()))

    def _union_reattach(self, left: Table, right: Table) -> Table:
        common = left[0] & right[0]
        lc = self._project_common(left, common)
        rc = self._project_common(right, common)
        core = (frozenset(common), lc[1].union(rc[1]))
        out = self._left_join(core, (left[0], left[1].to_set()))
        return self._left_join(out, (right[0], right[1].to_set()))

    def _where_one(self, body, cond, env: dict) -> Table:
        header, rows = self.path(body, env)
        binders = sorted(cond.uses - set(env) - header)
        assignments = [{}]
        for a in binders:
            instances = _binder_instances(self.schema, self.pop, self.typing, a)
            assignments = [dict(s, **{a: i}) for s in assignments for i in instances]
        out = []
        for t, n in _rows(rows):
            for assign in assignments:
                env2 = dict(env)
                env2.update(assign)
                env2.update(dict(t.items()))
                if is_true(self.cond(cond, env2)):
                    merged = dict(t.items())
                    merged.update(assign)
                    out.append((Row(merged), n))
        return header | frozenset(binders), _collect(out)

    def _group(self, p: GroupFn, env: dict) -> Table:
        header, body = self.path(p.of, env)
        if p.kind == "dscount":
            body = body.to_set()
        groups: dict[Row, list] = {}
        for t, n in _rows(body):
            key = Row({a: t.value(a) for a in p.by})
            groups.setdefault(key, []).append((t, n))
        rows = []
        for key, members in groups.items():
            if p.kind in ("count", "dscount"):
                value: Any = sum(n for _, n in members)
            else:
                bag = _collect((t.value(p.target), n) for t, n in members)
                if p.kind == "dssum":
                    value = bag_sum(bag.to_set())
                else:
                    value = {"sum": bag_sum, "min": bag_min, "max": bag_max, "avg": bag_avg}[p.kind](bag)
            rows.append((Row({HD: value, TL: value}), 1))
        return frozenset({HD, TL}), _collect(rows)

    def _scalar_path(self, e, env: dict) -> Table:
        free = sorted(e.uses - set(env))
        if not free:
            v = self.scalar(e, env)
            return frozenset({HD, TL}), Bag([Row({HD: v, TL: v})])
        assignments = [{}]
        for a in free:
            instances = _binder_instances(self.schema, self.pop, self.typing, a)
            assignments = [dict(s, **{a: i}) for s in assignments for i in instances]
        rows = []
        for assign in assignments:
            env2 = dict(env)
            env2.update(assign)
            v = self.scalar(e, env2)
            m = dict(assign)
            m[HD] = v
            m[TL] = v
            rows.append((Row(m), 1))
        return frozenset({HD, TL} | set(free)), _collect(rows)

    # -- scalars and conditions ------------------------------------------

    def scalar(self, e, env: dict) -> Any:
        if isinstance(e, SConst):
            return e.value
        if isinstance(e, SVar):
            if e.attr not in env:
                raise KeyError(f"oracle: unbound {e.attr!r}")
            return env[e.attr]
        if isinstance(e, SVarRole):
            return env[e.attr][e.role]
        if isinstance(e, SAgg):
            _, body = self.path(e.of, env)
            if e.kind == "count":
                return body.cardinality()
            heads = _collect((t.value(HD), n) for t, n in _rows(body))
            return {"sum": bag_sum, "min": bag_min, "max": bag_max, "avg": bag_avg}[e.kind](heads)
        if isinstance(e, SApply):
            return _arith(e.func, [self.scalar(a, env) for a in e.args])
        raise NotImplementedError(f"oracle scalar {e!r}")

    def cond(self, c, env: dict):
        if isinstance(c, CSome):
            _, body = self.path(c.of, env)
            return bool(body)
        if isinstance(c, CBagComp):
            _, lb = self.path(c.left, env)
            _, rb = self.path(c.right, env)
            lheads = _collect((t.value(HD), n) for t, n in _rows(lb))
            rheads = _collect((t.value(HD), n) for t, n in _rows(rb))
            return {
                "sub": lheads.proper_subbag(rheads),
                "subeq": lheads.subbag(rheads),
                "=": lheads == rheads,
                "<>": lheads != rheads,
                "supeq": rheads.subbag(lheads),
                "sup": rheads.proper_subbag(lheads),
            }[c.op]
        if isinstance(c, CLogic):
            a = self.cond(c.left, env)
            b = self.cond(c.right, env)
            if c.op == "iff":
                return t_and(t_implies(a, b), t_implies(b, a))
            return {"and": t_and, "or": t_or, "xor": t_xor, "implies": t_implies}[c.op](a, b)
        if isinstance(c, CScalarComp):
            return _compare(self.scalar(c.left, env), c.op, self.scalar(c.right, env))
        if isinstance(c, CNot):
            return t_not(self.cond(c.of, env))
        if isinstance(c, CExclusion):
            return t_not(self.cond(CSome(SetOp(Front(c.left), "intersect", Front(c.right))), env))
        raise NotImplementedError(f"oracle condition {c!r}")


def _compare(a, op, b):
    if a is NULL or b is NULL:
        return UNKNOWN
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    ordered = (is_number(a) and is_number(b)) or (isinstance(a, str) and isinstance(b, str))
    if not ordered:
        raise TypeError(f"oracle cannot order {a!r} and {b!r}")
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def _arith(func, args):
    if any(v is NULL for v in args):
        return NULL
    a, b = args
    if func == "+":
        return a + b
    if func == "-":
        return a - b
    if func == "*":
        return a * b
    if func == "/":
        return Fraction(a) / Fraction(b)
    raise NotImplementedError(f"oracle function {func!r}")


def oracle_eval(schema: Schema, pop: Population, typing, p) -> tuple[tuple, Bag]:
    """The value of ``p`` in the engine's layout: the header sorted, and
    each row the tuple of its values in header order."""
    header, body = Oracle(schema, pop, typing).path(p, {})
    layout = tuple(sorted(header))
    rows = []
    for t, n in _rows(body):
        if {a for a, _ in t.items()} != header:
            raise AssertionError(f"oracle row {t!r} is not over its header {layout}")
        rows.append((tuple(t.value(a) for a in layout), n))
    return layout, _collect(rows)


# ---------------------------------------------------------------------------
# the reference loader: decodes every instance where the document names it,
# asks the schema for each type's scheme and players on every decode, and
# closes the population by looking the invariants up again in each pass


def _decode_scalar(raw: Any) -> Any:
    if raw is None:
        return NULL
    if isinstance(raw, bool):
        return Bool(raw)
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise PopulationError(f"cannot decode the non-finite number {shown(raw)}")
        return Fraction(str(raw))
    if isinstance(raw, (int, str, Fraction)):
        return raw
    raise PopulationError(f"cannot decode scalar {shown(raw)}")


def decode_instance(schema: Schema, tid: TypeId, raw: Any, within: tuple = ()) -> Any:
    """The instance of ``tid`` that ``raw`` writes.  ``within`` holds the
    entity types whose denotations this one is a component of; a type among
    them identifies itself through itself, and no denotation of it ends."""
    info = schema.types.get(tid)
    if info is None:
        raise PopulationError(f"unknown type {tid!r} in population")
    if info.is_value_type:
        return _decode_scalar(raw)
    if info.is_relationship:
        if not isinstance(raw, dict):
            raise PopulationError(f"instance of {tid!r} must be a dict of its roles, got {shown(raw)}")
        expected = set(schema.roles_of.get(tid, ()))
        given = set(raw)
        if expected and given != expected:
            raise PopulationError(f"instance of {tid!r} must fill roles {sorted(expected)}, got {shown(sorted(given))}")
        return FactInstance({r: decode_instance(schema, schema.player(r), v) for r, v in raw.items()})
    # entity instance, written as its denotation
    if tid in within:
        raise PopulationError(f"cannot decode {shown(raw)}: the reference scheme of {tid!r} is cyclic")
    roots = schema.roots_of(tid)
    if len(roots) != 1:
        raise PopulationError(f"cannot build instances for multi-rooted type {tid!r}")
    root = next(iter(roots))
    key_raw = raw if isinstance(raw, list) else [raw]
    scheme = schema.idf.get(tid) or schema.idf.get(root)
    if scheme is not None and scheme.kind == "pairs" and len(key_raw) != len(scheme.entries):
        raise PopulationError(
            f"cannot decode {shown(raw)}: the reference scheme of {tid!r} has length {len(scheme.entries)},"
            f" the denotation length {len(key_raw)}"
        )
    components = []
    for i, part in enumerate(key_raw):
        comp_type = None
        if scheme is not None and scheme.kind == "pairs" and i < len(scheme.entries):
            _, s = scheme.entries[i]
            comp_type = schema.player(s)
        if comp_type is not None and not schema.is_value(comp_type):
            components.append(decode_instance(schema, comp_type, part, within + (tid,)))
        else:
            components.append(_decode_scalar(part))
    return EntityInstance(root, tuple(components))


def reference_load(schema: Schema, data: dict | str) -> Population:
    """What ``population.load_population`` returns, computed the long way."""
    if isinstance(data, str):
        data = parse_document(data, PopulationError)
    if not isinstance(data, dict):
        raise PopulationError("population document must be a JSON object")

    counts: dict[TypeId, dict[Any, int]] = {}
    for key, instances in data.items():
        tid = schema.lookup_type(key)
        if tid is None and key in schema.types:
            tid = key
        if tid is None:
            raise PopulationError(f"unknown type name {shown(key)} in population")
        if not isinstance(instances, list):
            raise PopulationError(f"the instances of {shown(key)} must be a list, got {shown(instances)}")
        freq = counts.setdefault(tid, {})
        for raw in instances:
            inst = decode_instance(schema, tid, raw)
            freq[inst] = freq.get(inst, 0) + 1

    _close_population(schema, counts)
    return Population(schema, {tid: Bag.from_freq(freq) for tid, freq in counts.items()})


def _close_population(schema: Schema, counts: dict[TypeId, dict[Any, int]]) -> None:
    """Close the loaded document, given as instance frequencies by type,
    under the population invariants: role fillers belong to their player's
    population, subtype instances to their supertypes', and entity
    denotations imply their reference facts.

    Each pass takes three steps in turn, one for each invariant, and passes
    repeat until one adds nothing.  A step handles each instance once: it
    keeps, for each type, how many of the type's instances, in the order
    they were added, it has handled, and goes on from there in the next
    pass.  What a step adds for an instance depends on the instance alone,
    so each type's instances come out in the order that handling every
    instance again in every pass would give."""
    added = {tid: list(freq) for tid, freq in counts.items()}
    handled: list[dict[TypeId, int]] = [{}, {}, {}]

    def add(tid: TypeId, value: Any) -> bool:
        freq = counts.setdefault(tid, {})
        if value in freq:
            return False
        freq[value] = 1
        added.setdefault(tid, []).append(value)
        return True

    def fresh(step: int, tid: TypeId) -> list:
        """The instances of ``tid`` that ``step`` has not handled yet, from
        now on counted as handled."""
        items = added.get(tid, [])
        start = handled[step].get(tid, 0)
        handled[step][tid] = len(items)
        return items[start:]

    changed = True
    while changed:
        changed = False
        for sub, supers in schema.specialises.items():
            for inst in fresh(0, sub):
                for sup in supers:
                    changed |= add(sup, inst)
        for ftid, rids in schema.roles_of.items():
            for fact in fresh(1, ftid):
                if not isinstance(fact, FactInstance):
                    continue
                for rid in rids:
                    if rid not in fact:
                        continue
                    filler = fact[rid]
                    for t in schema.ancestors[schema.player(rid)]:
                        changed |= add(t, filler)
        for tid in list(counts):
            info = schema.types.get(tid)
            if info is None or info.is_value_type or info.is_relationship:
                continue
            scheme = schema.idf.get(tid)
            if scheme is None or scheme.kind != "pairs":
                continue
            for inst in fresh(2, tid):
                if not isinstance(inst, EntityInstance) or len(inst.key) != len(scheme.entries):
                    continue
                for (r, s), component in zip(scheme.entries, inst.key):
                    changed |= add(schema.rel(r), FactInstance({r: inst, s: component}))
