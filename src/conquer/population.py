"""Populations: per-type bags of instances, plus the instance denoter.

The population file maps type names to instance lists.  Value type
instances are written directly; entity instances are written as their
denotation (a scalar, or a list for composite reference schemes) and
become surrogate values; relationship instances are written as role-id to
value maps.

Reference facts implied by entity denotations are synthesised
automatically, so a population that says Salary "1000" also contains the
Salary-has-Amount fact that the coercion paths walk through.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable

from .bag import Bag
from .errors import EvalError, PopulationError
from .schema import Schema, TypeId
from .values import NULL, Bool, EntityInstance, FactInstance, GroupedBag, is_atomic


class Population:
    def __init__(self, schema: Schema, pops: dict[TypeId, Bag] | None = None):
        self.schema = schema
        self._pops: dict[TypeId, Bag] = dict(pops or {})

    def instances(self, tid: TypeId) -> Bag:
        return self._pops.get(tid, Bag())

    def types(self) -> list[TypeId]:
        return list(self._pops)

    def with_population(self, tid: TypeId, bag: Bag) -> "Population":
        pops = dict(self._pops)
        pops[tid] = bag
        return Population(self.schema, pops)

    def __contains__(self, tid: TypeId) -> bool:
        return tid in self._pops


def _decode_scalar(raw: Any) -> Any:
    if raw is None:
        return NULL
    if isinstance(raw, bool):
        return Bool(raw)
    if isinstance(raw, float):
        return Fraction(str(raw))
    if isinstance(raw, (int, str, Fraction)):
        return raw
    raise PopulationError(f"cannot decode scalar {raw!r}")


def decode_instance(schema: Schema, tid: TypeId, raw: Any) -> Any:
    info = schema.types.get(tid)
    if info is None:
        raise PopulationError(f"unknown type {tid!r} in population")
    if info.is_value_type:
        return _decode_scalar(raw)
    if info.is_relationship and isinstance(raw, dict):
        expected = set(schema.roles_of.get(tid, ()))
        given = set(raw)
        if expected and given != expected:
            raise PopulationError(f"instance of {tid!r} must fill roles {sorted(expected)}, got {sorted(given)}")
        return FactInstance({r: decode_instance(schema, schema.player(r), v) for r, v in raw.items()})
    # entity instance, written as its denotation
    roots = schema.roots_of(tid)
    if len(roots) != 1:
        raise PopulationError(f"cannot build instances for multi-rooted type {tid!r}")
    root = next(iter(roots))
    key_raw = raw if isinstance(raw, list) else [raw]
    scheme = schema.idf.get(tid) or schema.idf.get(root)
    components = []
    for i, part in enumerate(key_raw):
        comp_type = None
        if scheme is not None and scheme.kind == "pairs" and i < len(scheme.entries):
            _, s = scheme.entries[i]
            comp_type = schema.player(s)
        if comp_type is not None and not schema.is_value(comp_type):
            components.append(decode_instance(schema, comp_type, part))
        else:
            components.append(_decode_scalar(part))
    return EntityInstance(root, tuple(components))


def load_population(schema: Schema, data: dict | str) -> Population:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise PopulationError("population document must be a JSON object")

    counts: dict[TypeId, dict[Any, int]] = {}
    for key, instances in data.items():
        tid = schema.lookup_type(key)
        if tid is None and key in schema.types:
            tid = key
        if tid is None:
            raise PopulationError(f"unknown type name {key!r} in population")
        freq = counts.setdefault(tid, {})
        for raw in instances:
            inst = decode_instance(schema, tid, raw)
            freq[inst] = freq.get(inst, 0) + 1

    _close_population(schema, counts)
    return Population(schema, {tid: Bag.from_counts(freq.items()) for tid, freq in counts.items()})


def _self_and_ancestors(schema: Schema, tid: str) -> list[str]:
    out, stack = [], [tid]
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.append(cur)
        stack.extend(schema.specialises.get(cur, ()))
    return out


def _add_once(counts: dict[TypeId, dict[Any, int]], tid: str, value: Any) -> bool:
    freq = counts.setdefault(tid, {})
    if value in freq:
        return False
    freq[value] = 1
    return True


def _close_population(schema: Schema, counts: dict[TypeId, dict[Any, int]]) -> None:
    """Close the loaded document, given as instance frequencies by type,
    under the population invariants: role fillers belong to their player's
    population, subtype instances to their supertypes', and entity
    denotations imply their reference facts."""
    changed = True
    while changed:
        changed = False
        for sub, supers in schema.specialises.items():
            for inst in list(counts.get(sub, ())):
                for sup in supers:
                    changed |= _add_once(counts, sup, inst)
        for ftid, rids in schema.roles_of.items():
            for fact in list(counts.get(ftid, ())):
                if not isinstance(fact, FactInstance):
                    continue
                for rid in rids:
                    if rid not in fact:
                        continue
                    filler = fact[rid]
                    for t in _self_and_ancestors(schema, schema.player(rid)):
                        changed |= _add_once(counts, t, filler)
        for tid in list(counts):
            info = schema.types.get(tid)
            if info is None or info.is_value_type or info.is_relationship:
                continue
            scheme = schema.idf.get(tid)
            if scheme is None or scheme.kind != "pairs":
                continue
            for inst in list(counts[tid]):
                if not isinstance(inst, EntityInstance) or len(inst.key) != len(scheme.entries):
                    continue
                for (r, s), component in zip(scheme.entries, inst.key):
                    changed |= _add_once(counts, schema.rel(r), FactInstance({r: inst, s: component}))


def denote_instance(i: Any, pop: Population) -> list[Any]:
    """Flatten an instance to the sequence of values that identifies it."""
    if i is NULL or is_atomic(i):
        return [i]
    if isinstance(i, EntityInstance):
        out: list[Any] = []
        for part in i.key:
            out.extend(denote_instance(part, pop))
        if not out:
            raise EvalError(f"undenotable instance {i!r}")
        return out
    if isinstance(i, FactInstance):
        schema = pop.schema
        roles = list(i.roles())
        ftid = None
        for rid in roles:
            if rid in schema.roles:
                ftid = schema.rel(rid)
                break
        order: Iterable[str] = roles
        if ftid is not None:
            scheme = schema.idf.get(ftid)
            if scheme is not None and scheme.kind == "roles":
                order = [r for r in scheme.entries if r in i]
            elif ftid in schema.roles_of:
                order = [r for r in schema.roles_of[ftid] if r in i]
        out = []
        for rid in order:
            out.extend(denote_instance(i[rid], pop))
        return out
    if isinstance(i, GroupedBag):
        raise EvalError("undenotable instance: grouped bag")
    raise EvalError(f"undenotable instance {i!r}")
