"""Populations: per-type bags of instances, the loader, and the instance
denoter.

The population file maps type names to instance lists.  Value type
instances are written directly; entity instances are written as their
denotation (a scalar, or a list for composite reference schemes) and
become surrogate values; relationship instances are written as role-id to
value maps.  The loader refuses a type's entry that is not a list and a
relationship instance that is not a map.

Reference facts implied by entity denotations are synthesised
automatically, so a population that says Salary "1000" also contains the
Salary-has-Amount fact that the coercion paths walk through.

What loading needs of a schema is worked out on the schema's first load and
kept on it: the type each population key names, a decoder for each type
(a value, a fact with its roles' players, or an entity with its root and
the decoders of its denotation's parts), and the tables that the closure
reads (each subtype's supertypes, the types each role's filler belongs to,
and the reference fact type of each pair of a scheme).  Within one load each
distinct scalar that the document writes for a type is decoded once,
however often the document names it, so an entity named in many facts is
built once; nothing of a load is kept for the next.  Each type's instances
come out in the order of the document, followed by what the closure adds,
in the order ``_Loader._close`` describes.  A document that is not JSON, or
not one that writes a population, is refused with a ``PopulationError``,
whose message shows each value of the document cut short.

A population is an immutable value, and the queries run on it keep work
on it for the ones after: ``results``, a ``Kept`` table of the bag of each
uncorrelated sub-plan that ``relalg`` has evaluated on it, under the
sub-plan's code, at most ``RESULTS_CAP`` of them; and ``texts``, the text
that ``cli`` renders for each cell value, a plain dict that ``cli`` empties
when it is full, since it is read once per cell rendered and a counted
lookup costs several times a dict's.
A sub-plan's result depends on its structure and the population alone,
so a change of the schema's derivation rules leaves it kept: the rules'
types are populated in a new derived population.  A population must not
be changed once a query has run on it: ``with_population`` makes a new
one, which starts with nothing kept.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import islice
from typing import Any, Iterable

from .bag import Bag
from .errors import EvalError, PopulationError, shown
from .schema import Kept, Schema, TypeId, parse_document
from .values import NULL, Bool, EntityInstance, FactInstance, GroupedBag, is_atomic


# the most sub-plan results a population keeps; past it, the one used least
# recently is dropped
RESULTS_CAP = 256

# the bag of a type with no instances
_EMPTY = Bag()


class Population:
    def __init__(self, schema: Schema, pops: dict[TypeId, Bag] | None = None):
        self.schema = schema
        self._pops: dict[TypeId, Bag] = dict(pops or {})
        self.results = Kept(RESULTS_CAP)
        self.texts: dict = {}

    def instances(self, tid: TypeId) -> Bag:
        return self._pops.get(tid, _EMPTY)

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
        if not math.isfinite(raw):
            raise PopulationError(f"cannot decode the non-finite number {shown(raw)}")
        return Fraction(str(raw))
    if isinstance(raw, (int, str, Fraction)):
        return raw
    raise PopulationError(f"cannot decode scalar {shown(raw)}")


# The raw scalars whose decodes a load keeps, by exact type, so that 1, True
# and 1.0 stay apart
_MEMOISED = frozenset({str, int, float, bool, type(None), Fraction})


def load_population(schema: Schema, data: dict | str) -> Population:
    """The population that the document ``data`` writes, closed under the
    population invariants."""
    if isinstance(data, str):
        data = parse_document(data, PopulationError)
    if not isinstance(data, dict):
        raise PopulationError("population document must be a JSON object")
    loader = schema.loader
    if loader is None:
        loader = schema.loader = _Loader(schema)
    return loader.load(data)


def _decode_value(raw: Any, within: tuple, memo: dict) -> Any:
    return _decode_scalar(raw)


def _decode(decoders: _Decoders, memo: dict, tid: TypeId, raw: Any, within: tuple = ()) -> Any:
    """The instance of ``tid`` that ``raw`` writes.  ``memo`` keeps, for one
    load, the instance each scalar ``raw`` of a type decodes to."""
    kind = type(raw)
    if kind not in _MEMOISED:
        return decoders[tid](raw, within, memo)
    key = (tid, kind, raw)
    inst = memo.get(key)
    if inst is None:
        inst = memo[key] = decoders[tid](raw, within, memo)
    return inst


class _Decoders(dict):
    """Each type's decoder, by type id."""

    def __missing__(self, tid: TypeId):
        raise PopulationError(f"unknown type {tid!r} in population")


class _Loader:
    """What loading needs of one schema: the type each population key names,
    a decoder for each type, and the tables that closing a population reads.
    It keeps nothing of a load.

    A decoder takes the raw instance, the entity types whose denotations it
    is a component of (a type among them identifies itself through itself,
    and no denotation of it ends) and the load's memo, and decodes the
    instances it is made of through ``_decode``.  A role or player the schema
    lacks is refused, by the schema's accessors, when an instance needs it."""

    def __init__(self, schema: Schema):
        self.schema = schema
        # a population key is a type name, or else a type id
        names = {name: schema.lookup_type(name) for name in schema.naming.tnm.values()}
        self.tids = {tid: tid for tid in schema.types} | names
        self.players = {rid: role.player for rid, role in schema.roles.items()}
        self.decoders = _Decoders()
        self.decoders.update((tid, self._decoder(tid, info)) for tid, info in schema.types.items())
        # each subtype with its supertypes; each fact type with its roles and
        # the types a role's filler belongs to; each entity type with a pairs
        # scheme with the reference fact type and roles of each pair
        self.supers = tuple(schema.specialises.items())
        self.fillers = tuple(
            (ftid, tuple((rid, self._belongs(rid)) for rid in rids)) for ftid, rids in schema.roles_of.items()
        )
        pairs = {tid: scheme.entries for tid, scheme in schema.idf.items() if scheme.kind == "pairs"}
        self.references = {
            tid: tuple((schema.roles[r].rel if r in schema.roles else None, r, s) for r, s in pairs[tid])
            for tid, info in schema.types.items()
            if tid in pairs and not info.is_value_type and not info.is_relationship
        }

    def _belongs(self, rid: str) -> tuple | None:
        return tuple(self.schema.ancestors[self.players[rid]]) if rid in self.players else None

    def _decoder(self, tid: TypeId, info):
        if info.is_value_type:
            return _decode_value
        if info.is_relationship:
            return self._fact_decoder(tid)
        return self._entity_decoder(tid)

    def _fact_decoder(self, tid: TypeId):
        schema, players, decoders = self.schema, self.players, self.decoders
        expected = set(schema.roles_of.get(tid, ()))

        def decode_fact(raw: Any, within: tuple, memo: dict) -> FactInstance:
            if not isinstance(raw, dict):
                raise PopulationError(f"instance of {tid!r} must be a dict of its roles, got {shown(raw)}")
            if expected and raw.keys() != expected:
                # a document's keys are strings; a dict built in Python may
                # have keys that do not sort
                got = sorted(raw) if all(type(r) is str for r in raw) else list(raw)
                raise PopulationError(f"instance of {tid!r} must fill roles {sorted(expected)}, got {shown(got)}")
            roles = {}
            for r, v in raw.items():
                roles[r] = _decode(decoders, memo, players[r] if r in players else schema.player(r), v)
            return FactInstance(roles)

        return decode_fact

    def _entity_decoder(self, tid: TypeId):
        """An entity instance is written as its denotation."""
        schema = self.schema
        roots = schema.roots_of(tid)
        root = next(iter(roots)) if len(roots) == 1 else None
        scheme = schema.idf.get(tid) or schema.idf.get(root)
        parts = None
        if scheme is not None and scheme.kind == "pairs":
            parts = tuple(self._part_decoder(s) for _, s in scheme.entries)

        def decode_entity(raw: Any, within: tuple, memo: dict) -> EntityInstance:
            if tid in within:
                raise PopulationError(f"cannot decode {shown(raw)}: the reference scheme of {tid!r} is cyclic")
            if root is None:
                raise PopulationError(f"cannot build instances for multi-rooted type {tid!r}")
            key_raw = raw if isinstance(raw, list) else [raw]
            if parts is None:
                return EntityInstance(root, tuple(map(_decode_scalar, key_raw)))
            if len(key_raw) != len(parts):
                raise PopulationError(
                    f"cannot decode {shown(raw)}: the reference scheme of {tid!r} has length {len(parts)},"
                    f" the denotation length {len(key_raw)}"
                )
            within += (tid,)
            return EntityInstance(root, tuple([part(p, within, memo) for part, p in zip(parts, key_raw)]))

        return decode_entity

    def _part_decoder(self, s: str):
        """How a denotation part that fills the value role ``s`` decodes: as
        a scalar, or as an instance of the non-value type playing ``s``."""
        schema, decoders = self.schema, self.decoders
        player = self.players.get(s)
        if s not in self.players or player is not None and player not in schema.types:
            # the accessors refuse the role or its player
            return lambda p, within, memo: schema.is_value(schema.player(s))
        if player is None or schema.types[player].is_value_type:
            return _decode_value
        return lambda p, within, memo: _decode(decoders, memo, player, p, within)

    def load(self, data: dict) -> Population:
        decoders = self.decoders
        memo: dict[tuple, Any] = {}
        counts: defaultdict[TypeId, dict[Any, int]] = defaultdict(dict)
        for key, instances in data.items():
            tid = self.tids.get(key)
            if tid is None:
                raise PopulationError(f"unknown type name {shown(key)} in population")
            if not isinstance(instances, list):
                raise PopulationError(f"the instances of {shown(key)} must be a list, got {shown(instances)}")
            freq = counts[tid]
            for raw in instances:
                inst = _decode(decoders, memo, tid, raw)
                freq[inst] = freq.get(inst, 0) + 1

        self._close(counts)
        return Population(self.schema, {tid: Bag.from_freq(freq) for tid, freq in counts.items()})

    def _close(self, counts: defaultdict[TypeId, dict[Any, int]]) -> None:
        """Close the loaded document, given as instance frequencies by type,
        under the population invariants: subtype instances belong to their
        supertypes' populations, role fillers to their player's, and entity
        denotations imply their reference facts.

        Each pass takes three steps in turn, one for each invariant, and passes
        repeat until one adds nothing.  A step handles each instance once: it
        keeps, for each type, how many of the type's instances, in the order
        they were added, it has handled, and goes on from there in the next
        pass.  What a step adds for an instance depends on the instance alone,
        so each type's instances come out in the order that handling every
        instance again in every pass would give."""
        schema, references = self.schema, self.references
        handled: tuple[dict[TypeId, int], ...] = ({}, {}, {})

        def fresh(step: int, tid: TypeId) -> list:
            """The instances of ``tid`` that ``step`` has not handled yet, from
            now on counted as handled; a copy, since the step may add to them."""
            freq = counts.get(tid, ())
            start = handled[step].get(tid, 0)
            handled[step][tid] = len(freq)
            return list(islice(freq, start, None))

        changed = True
        while changed:
            changed = False
            for sub, supers in self.supers:
                for inst in fresh(0, sub):
                    for sup in supers:
                        freq = counts[sup]
                        if inst not in freq:
                            freq[inst] = 1
                            changed = True
            for ftid, fillers in self.fillers:
                for fact in fresh(1, ftid):
                    if not isinstance(fact, FactInstance):
                        continue
                    roles = fact.roles()
                    for rid, belongs in fillers:
                        if rid not in roles:
                            continue
                        filler = roles[rid]
                        for t in belongs if belongs is not None else schema.ancestors[schema.player(rid)]:
                            freq = counts[t]
                            if filler not in freq:
                                freq[filler] = 1
                                changed = True
            for tid in list(counts):
                pairs = references.get(tid)
                if pairs is None:
                    continue
                for inst in fresh(2, tid):
                    if not isinstance(inst, EntityInstance) or len(inst.key) != len(pairs):
                        continue
                    for (rel, r, s), component in zip(pairs, inst.key):
                        freq = counts[rel if rel is not None else schema.rel(r)]
                        fact = FactInstance({r: inst, s: component})
                        if fact not in freq:
                            freq[fact] = 1
                            changed = True


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
