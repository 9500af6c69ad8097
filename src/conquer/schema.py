"""The ORM meta-model.

A schema holds the type universe (entity, value and relationship types),
the roles that make up relationship types, the type-relatedness relation,
reference schemes, and all the naming tables the parser and verbaliser
work from.  Schemas are immutable once loaded and safe to share between
concurrent readers.

Type relatedness is stored extensionally: the loader closes the declared
specialisation hierarchy (types sharing a root are related unless an
explicit exclusion says otherwise) and adds the reflexive and symmetric
closure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from .errors import SchemaError

TypeId = str
RoleId = str
AttrName = str

# Builtin value types present in every schema: the boolean type used by the
# condition-to-path coercion, and the catch-all result type of scalar
# expressions.  Both are related to every value type.
BOOL_TYPE: TypeId = "Bool"
ANY_VALUE_TYPE: TypeId = "~Any"

# Fresh (system-generated) attribute names carry this prefix so they can
# never collide with user variables.
FRESH_PREFIX = "~"


@dataclass(frozen=True)
class TypeInfo:
    tid: TypeId
    is_relationship: bool = False
    is_value_type: bool = False
    is_nested: bool = False


@dataclass(frozen=True)
class Role:
    rid: RoleId
    player: TypeId
    rel: TypeId


@dataclass(frozen=True)
class Idf:
    """Reference scheme: a sequence of (entity role, value role) pairs, or a
    sequence of roles for compositely identified relationship types."""

    kind: str  # "pairs" | "roles"
    entries: tuple

    @property
    def arity(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MFixEntry:
    rel: TypeId
    parts: tuple[str, ...]
    roles: tuple[RoleId, ...]


@dataclass
class NamingTables:
    tnm: dict[TypeId, str] = field(default_factory=dict)
    pnm: dict[RoleId, str] = field(default_factory=dict)
    rnm: dict[RoleId, str] = field(default_factory=dict)
    pre: dict[tuple[TypeId, str], str] = field(default_factory=dict)
    post: dict[TypeId, str] = field(default_factory=dict)
    mfix: list[MFixEntry] = field(default_factory=list)
    vnm: dict[AttrName, str] = field(default_factory=dict)


@dataclass(frozen=True)
class FactRule:
    rel: TypeId
    role_attrs: tuple[tuple[RoleId, AttrName], ...]
    body: Any  # PathExpr
    text: str = ""


@dataclass(frozen=True)
class TypeRule:
    tid: TypeId
    body: Any  # PathExpr
    text: str = ""


@dataclass(frozen=True)
class Macro:
    name: str
    params: tuple[AttrName, ...]
    body: Any  # PathExpr
    kind: str  # "path" | "scalar" | "condition"


@dataclass
class Schema:
    types: dict[TypeId, TypeInfo] = field(default_factory=dict)
    roles: dict[RoleId, Role] = field(default_factory=dict)
    roles_of: dict[TypeId, tuple[RoleId, ...]] = field(default_factory=dict)
    related_pairs: frozenset = frozenset()
    specialises: dict[TypeId, tuple[TypeId, ...]] = field(default_factory=dict)
    roots: dict[TypeId, frozenset] = field(default_factory=dict)
    idf: dict[TypeId, Idf] = field(default_factory=dict)
    naming: NamingTables = field(default_factory=NamingTables)
    macros: dict[str, Macro] = field(default_factory=dict)
    derivations: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    # raw query texts kept for the frontend compile pass
    raw_macros: list = field(default_factory=list)
    raw_derivations: list = field(default_factory=list)
    raw_constraints: list = field(default_factory=list)

    # -- basic accessors -------------------------------------------------

    def check_type(self, x: TypeId) -> None:
        if x not in self.types:
            raise SchemaError(f"unknown type {x!r}")

    def is_value(self, x: TypeId) -> bool:
        self.check_type(x)
        return self.types[x].is_value_type

    def is_relationship(self, x: TypeId) -> bool:
        self.check_type(x)
        return self.types[x].is_relationship

    def player(self, p: RoleId) -> TypeId:
        if p not in self.roles:
            raise SchemaError(f"unknown role {p!r}")
        return self.roles[p].player

    def rel(self, p: RoleId) -> TypeId:
        if p not in self.roles:
            raise SchemaError(f"unknown role {p!r}")
        return self.roles[p].rel

    def type_related(self, x: TypeId, y: TypeId) -> bool:
        self.check_type(x)
        self.check_type(y)
        return x == y or (x, y) in self.related_pairs

    def related_to(self, x: TypeId) -> set[TypeId]:
        self.check_type(x)
        out = {x}
        out.update(b for (a, b) in self.related_pairs if a == x)
        return out

    def roots_of(self, x: TypeId) -> frozenset:
        self.check_type(x)
        return self.roots.get(x, frozenset({x}))

    def user_types(self) -> list[TypeId]:
        return [t for t in self.types if t not in (ANY_VALUE_TYPE,)]

    # -- name lookups ----------------------------------------------------

    def lookup_type(self, name: str) -> TypeId | None:
        for tid, n in self.naming.tnm.items():
            if n == name:
                return tid
        return None

    def lookup_role_entries(self, name: str, left_types: Iterable[TypeId] = ()) -> set[RoleId]:
        candidates = {p for p, n in self.naming.pnm.items() if n == name}
        return self._filter_roles(candidates, left_types, by_player=True)

    def lookup_role_exits(self, name: str, left_types: Iterable[TypeId] = ()) -> set[RoleId]:
        candidates = {p for p, n in self.naming.rnm.items() if n == name}
        return self._filter_roles(candidates, left_types, by_player=False)

    def _filter_roles(self, candidates: set[RoleId], left_types, by_player: bool) -> set[RoleId]:
        left = set(left_types)
        if not left:
            return candidates
        out = set()
        for p in candidates:
            anchor = self.player(p) if by_player else self.rel(p)
            if any(self.type_related(anchor, t) for t in left):
                out.add(p)
        return out

    def lookup_mfix(self, first_part: str, context_types: Iterable[TypeId] = ()) -> list[MFixEntry]:
        context = set(context_types)
        out = []
        for entry in self.naming.mfix:
            if entry.parts and entry.parts[0] == first_part:
                if context:
                    start = self.player(entry.roles[0])
                    if not any(self.type_related(start, t) for t in context):
                        continue
                out.append(entry)
        return out

    def mfix_for_roles(self, roles: tuple[RoleId, ...]) -> list[MFixEntry]:
        return [e for e in self.naming.mfix if e.roles == roles]

    def name_words(self) -> set[str]:
        """Every word occurring anywhere in the naming tables.

        Used by the parser: a token can only be read as a variable name if
        it is not a word of any schema name.
        """
        words: set[str] = set()
        for n in self.naming.tnm.values():
            words.update(n.split())
        for n in self.naming.pnm.values():
            words.update(n.split())
        for n in self.naming.rnm.values():
            words.update(n.split())
        for n in self.naming.pre.values():
            words.update(n.split())
        for n in self.naming.post.values():
            words.update(n.split())
        for entry in self.naming.mfix:
            for part in entry.parts:
                words.update(part.split())
        return words


# ---------------------------------------------------------------------------
# validation


def validate_schema(schema: Schema) -> list[str]:
    """Check every well-formedness rule; returns one diagnostic per violation.

    Never raises: an empty result means the schema is valid.  Ordering is
    deterministic (grouped per rule, then by type id, then role id).
    """
    diags: list[str] = []

    # role structure: every role belongs to exactly one relationship type
    seen: dict[RoleId, TypeId] = {}
    for ftid in sorted(schema.roles_of):
        if ftid not in schema.types or not schema.types[ftid].is_relationship:
            diags.append(f"roles_of entry {ftid!r} is not a relationship type")
        for rid in schema.roles_of[ftid]:
            if rid in seen:
                diags.append(f"role {rid!r} appears in both {seen[rid]!r} and {ftid!r}")
            seen[rid] = ftid
    for rid in sorted(schema.roles):
        role = schema.roles[rid]
        if rid not in seen:
            diags.append(f"role {rid!r} belongs to no relationship type")
        elif seen[rid] != role.rel:
            diags.append(f"role {rid!r} declares relationship {role.rel!r} but is listed under {seen[rid]!r}")
        if role.player not in schema.types:
            diags.append(f"role {rid!r} has unknown player {role.player!r}")

    # relatedness must be symmetric (reflexivity is implicit in type_related)
    for (x, y) in sorted(schema.related_pairs):
        if (y, x) not in schema.related_pairs:
            diags.append(f"relatedness of {x!r} and {y!r} is not symmetric")

    # every non-value type needs a reference scheme; proper subtypes may
    # inherit the scheme of a root
    for tid in sorted(schema.types):
        info = schema.types[tid]
        if tid == ANY_VALUE_TYPE:
            continue
        if not info.is_value_type and tid not in schema.idf:
            if not any(r in schema.idf for r in schema.roots_of(tid) if r != tid):
                diags.append(f"non-value type {tid!r} has no reference scheme")

    # reference schemes must use known roles and single-pair chains must be acyclic
    for tid in sorted(schema.idf):
        scheme = schema.idf[tid]
        rids: list[RoleId] = []
        if scheme.kind == "pairs":
            for pair in scheme.entries:
                rids.extend(pair)
        else:
            rids.extend(scheme.entries)
        for rid in rids:
            if rid not in schema.roles:
                diags.append(f"reference scheme of {tid!r} uses unknown role {rid!r}")
    diags.extend(_idf_cycle_diags(schema))

    # roots must be non-empty
    for tid in sorted(schema.roots):
        if not schema.roots[tid]:
            diags.append(f"type {tid!r} has an empty root set")

    # naming constraints
    by_name: dict[str, list[TypeId]] = {}
    for tid, name in schema.naming.tnm.items():
        by_name.setdefault(name, []).append(tid)
    for name in sorted(by_name):
        if len(by_name[name]) > 1:
            tids = ", ".join(sorted(by_name[name]))
            diags.append(f"type name {name!r} is not unique (used by {tids})")

    diags.extend(_role_name_diags(schema, schema.naming.pnm, "role name"))
    diags.extend(_role_name_diags(schema, schema.naming.rnm, "reverse role name"))

    for entry in schema.naming.mfix:
        if len(entry.parts) + 1 != len(entry.roles):
            diags.append(
                f"mix-fix entry {entry.parts!r} has {len(entry.parts)} parts for {len(entry.roles)} roles"
            )
        rels = {schema.roles[r].rel for r in entry.roles if r in schema.roles}
        if len(rels) > 1 or any(r not in schema.roles for r in entry.roles):
            diags.append(f"mix-fix entry {entry.parts!r} mixes roles of different relationship types")

    vnm_names: dict[str, list[AttrName]] = {}
    for a, n in schema.naming.vnm.items():
        vnm_names.setdefault(n, []).append(a)
    for n in sorted(vnm_names):
        if len(vnm_names[n]) > 1:
            diags.append(f"variable name {n!r} is not unique")

    for rule in schema.derivations:
        if isinstance(rule, FactRule):
            covered = [r for r, _ in rule.role_attrs]
            expected = list(schema.roles_of.get(rule.rel, ()))
            if sorted(covered) != sorted(expected):
                diags.append(f"derivation rule for {rule.rel!r} does not cover its roles exactly once")

    return diags


def _role_name_diags(schema: Schema, table: dict[RoleId, str], what: str) -> list[str]:
    diags = []
    index: dict[tuple[TypeId, str], list[RoleId]] = {}
    for rid, name in table.items():
        if rid not in schema.roles:
            diags.append(f"{what} given for unknown role {rid!r}")
            continue
        index.setdefault((schema.roles[rid].rel, name), []).append(rid)
    for (ftid, name) in sorted(index):
        rids = index[(ftid, name)]
        if len(rids) > 1:
            diags.append(f"{what} {name!r} is not unique within {ftid!r}")
    return diags


def _idf_cycle_diags(schema: Schema) -> list[str]:
    # follow single-pair reference chains; a cycle would make head/tail
    # coercion diverge
    diags = []
    for tid in sorted(schema.idf):
        seen = {tid}
        cur = tid
        while True:
            scheme = schema.idf.get(cur)
            if scheme is None or scheme.kind != "pairs" or len(scheme.entries) != 1:
                break
            _, s = scheme.entries[0]
            if s not in schema.roles:
                break
            nxt = schema.roles[s].player
            if nxt in seen:
                diags.append(f"reference scheme chain starting at {tid!r} is cyclic")
                break
            seen.add(nxt)
            cur = nxt
    return diags


# ---------------------------------------------------------------------------
# loading


_KIND_FLAGS = {
    "entity": (False, False),
    "value": (False, True),
    "relationship": (True, False),
    "nested": (True, False),
}


def load_schema(data: dict | str) -> Schema:
    """Build a schema from its JSON document (structure only).

    Macros, derivation rules and constraints are stored as raw text; the
    frontend compiles them once the parser can resolve names against the
    loaded tables.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise SchemaError("schema document must be a JSON object")

    schema = Schema()

    types_spec = data.get("types", {})
    for tid, spec in types_spec.items():
        if tid in (BOOL_TYPE, ANY_VALUE_TYPE):
            raise SchemaError(f"type id {tid!r} is reserved")
        if isinstance(spec, str):
            spec = {"kind": spec}
        if "kind" in spec:
            if spec["kind"] not in _KIND_FLAGS:
                raise SchemaError(f"unknown type kind {spec['kind']!r} for {tid!r}")
            is_rel, is_val = _KIND_FLAGS[spec["kind"]]
            nested = spec["kind"] == "nested"
        else:
            is_rel = bool(spec.get("is_relationship", False))
            is_val = bool(spec.get("is_value_type", False))
            nested = bool(spec.get("is_nested", False))
        if nested and (not is_rel or is_val):
            raise SchemaError(f"nested type {tid!r} must be a non-value relationship type")
        schema.types[tid] = TypeInfo(tid, is_relationship=is_rel, is_value_type=is_val, is_nested=nested)

    # builtin value types
    schema.types[BOOL_TYPE] = TypeInfo(BOOL_TYPE, is_value_type=True)
    schema.types[ANY_VALUE_TYPE] = TypeInfo(ANY_VALUE_TYPE, is_value_type=True)

    player_map = data.get("player", {})
    roles_of = data.get("roles_of", {})
    declared_roles = data.get("roles", list(player_map))
    for ftid, rids in roles_of.items():
        schema.roles_of[ftid] = tuple(rids)
    rel_of: dict[RoleId, TypeId] = {}
    for ftid, rids in schema.roles_of.items():
        for rid in rids:
            rel_of[rid] = ftid
    for rid in declared_roles:
        if rid not in player_map:
            raise SchemaError(f"role {rid!r} has no player")
        schema.roles[rid] = Role(rid, player_map[rid], rel_of.get(rid, ""))
    for rid in player_map:
        if rid not in schema.roles:
            schema.roles[rid] = Role(rid, player_map[rid], rel_of.get(rid, ""))

    for sub, supers in data.get("specialises", {}).items():
        schema.specialises[sub] = tuple(supers) if isinstance(supers, list) else (supers,)

    schema.roots = _compute_roots(schema, data.get("roots", {}))
    schema.related_pairs = _compute_related(schema, data.get("related", []), data.get("unrelated", []))

    for tid, spec in data.get("idf", {}).items():
        if not spec:
            raise SchemaError(f"empty reference scheme for {tid!r}")
        if isinstance(spec[0], list):
            if any(len(pair) != 2 for pair in spec):
                raise SchemaError(f"reference scheme pairs for {tid!r} must have two roles")
            schema.idf[tid] = Idf("pairs", tuple((p, q) for p, q in spec))
        else:
            schema.idf[tid] = Idf("roles", tuple(spec))

    naming = data.get("naming", {})
    schema.naming.tnm = dict(naming.get("tnm", {}))
    schema.naming.tnm.setdefault(BOOL_TYPE, "Bool")
    schema.naming.pnm = dict(naming.get("pnm", {}))
    schema.naming.rnm = dict(naming.get("rnm", {}))
    for tid, spec in naming.get("pre", {}).items():
        for det in ("undetermined", "determined"):
            if det in spec:
                schema.naming.pre[(tid, det)] = spec[det]
    schema.naming.post = dict(naming.get("post", {}))
    for entry in naming.get("mfix", []):
        if isinstance(entry, dict):
            schema.naming.mfix.append(MFixEntry(entry["rel"], tuple(entry["parts"]), tuple(entry["roles"])))
        else:
            rel, parts, roles = entry
            schema.naming.mfix.append(MFixEntry(rel, tuple(parts), tuple(roles)))

    schema.raw_macros = list(data.get("macros", []))
    schema.raw_derivations = list(data.get("derivations", []))
    schema.raw_constraints = list(data.get("constraints", []))
    return schema


def _compute_roots(schema: Schema, explicit: dict) -> dict[TypeId, frozenset]:
    roots: dict[TypeId, frozenset] = {}
    for tid in schema.types:
        if tid in explicit:
            roots[tid] = frozenset(explicit[tid])
            continue
        reached: set[TypeId] = set()
        stack = [tid]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            supers = schema.specialises.get(cur, ())
            if not supers:
                reached.add(cur)
            else:
                stack.extend(supers)
        roots[tid] = frozenset(reached)
    return roots


def _compute_related(schema: Schema, extra: list, exclusions: list) -> frozenset:
    pairs: set[tuple[TypeId, TypeId]] = set()
    # same subtype hierarchy: sharing a root
    tids = list(schema.types)
    for i, x in enumerate(tids):
        for y in tids[i:]:
            if x == y or schema.roots.get(x, frozenset()) & schema.roots.get(y, frozenset()):
                pairs.add((x, y))
                pairs.add((y, x))
    for x, y in extra:
        pairs.add((x, y))
        pairs.add((y, x))
    # builtins relate to every value type
    for tid, info in schema.types.items():
        if info.is_value_type:
            for b in (BOOL_TYPE, ANY_VALUE_TYPE):
                pairs.add((tid, b))
                pairs.add((b, tid))
    for x, y in exclusions:
        pairs.discard((x, y))
        pairs.discard((y, x))
    for tid in schema.types:
        pairs.add((tid, tid))
    return frozenset(pairs)
