"""The ORM meta-model.

A schema holds the type universe (entity, value and relationship types),
the roles that make up relationship types, the type-relatedness relation,
reference schemes, and all the naming tables the parser and verbaliser
work from.  Schemas are immutable once loaded and safe to share between
concurrent readers, but for the macros and derivation rules, which
``Schema.revise`` alone changes, dropping the work kept on them; only the
plans that ``paths`` keeps of the derivation rules and constraints, the
query texts and shapes that ``cli`` prepares, the population loader and
the one plan node per structure that ``relalg`` compiles are added on first
use, and two readers that both build one build the same (two that race to
add one structure's node may each keep their own, which only shares less).

Type relatedness is stored extensionally: the loader closes the declared
specialisation hierarchy (types sharing a root are related unless an
explicit exclusion says otherwise), adds the reflexive and symmetric
closure, and keeps for each type the set of the types related to it.
"""

from __future__ import annotations

import json
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from .errors import SchemaError, shown

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

# the most query texts, and the most query shapes, a schema keeps prepared;
# past it, the one used least recently is dropped
PREPARED_CAP = 64


@dataclass(frozen=True)
class TypeInfo:
    tid: TypeId
    is_relationship: bool = False
    is_value_type: bool = False


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


@dataclass(frozen=True)
class FactRule:
    rel: TypeId
    role_attrs: tuple[tuple[RoleId, AttrName], ...]
    body: Any  # PathExpr
    text: str = ""

    @property
    def defines(self) -> TypeId:
        return self.rel


@dataclass(frozen=True)
class TypeRule:
    tid: TypeId
    body: Any  # PathExpr
    text: str = ""

    @property
    def defines(self) -> TypeId:
        return self.tid


@dataclass(frozen=True)
class Macro:
    name: str
    params: tuple[AttrName, ...]
    body: Any  # PathExpr
    kind: str  # "path" | "scalar" | "condition"


class Kept(OrderedDict):
    """A table of work kept for later runs, at most ``cap`` entries, the one
    used least recently first; ``hits`` and ``misses`` count the lookups."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self.hits = self.misses = 0

    def find(self, key) -> Any:
        """The entry of ``key``, now the one used last; None, a miss, when
        there is none."""
        out = self.get(key)
        if out is None:
            self.misses += 1
            return None
        self.hits += 1
        self.move_to_end(key)
        return out

    def keep(self, key, value) -> Any:
        """File ``value`` under ``key`` as the entry used last, dropping the
        one used least recently past the cap."""
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.cap:
            self.popitem(last=False)
        return value


@dataclass
class Schema:
    types: dict[TypeId, TypeInfo] = field(default_factory=dict)
    roles: dict[RoleId, Role] = field(default_factory=dict)
    roles_of: dict[TypeId, tuple[RoleId, ...]] = field(default_factory=dict)
    related: dict[TypeId, frozenset] = field(default_factory=dict)  # each type to itself and its related types
    specialises: dict[TypeId, tuple[TypeId, ...]] = field(default_factory=dict)
    ancestors: dict[TypeId, frozenset] = field(default_factory=dict)  # each type to itself and its supertypes
    roots: dict[TypeId, frozenset] = field(default_factory=dict)
    idf: dict[TypeId, Idf] = field(default_factory=dict)
    naming: NamingTables = field(default_factory=NamingTables)
    # the macros and derivation rules, which only ``revise`` changes
    macros: Mapping[str, Macro] = field(default_factory=lambda: MappingProxyType({}))
    derivations: tuple = ()
    constraints: list = field(default_factory=list)
    # raw query texts kept for the frontend compile pass
    raw_macros: list = field(default_factory=list)
    raw_derivations: list = field(default_factory=list)
    raw_constraints: list = field(default_factory=list)
    # the plans of the derivation rules and constraints, which ``paths``
    # builds on first use and ``revise`` drops: id of the rule or
    # constraint path -> (it, plan)
    plans: dict = field(default_factory=dict, compare=False, repr=False)
    # the query texts that ``cli`` has prepared, which ``revise`` drops:
    # text -> its prepared query
    prepared: Kept = field(default_factory=lambda: Kept(PREPARED_CAP), compare=False, repr=False)
    # the query shapes that ``cli`` has prepared, which serve the texts of
    # one shape that differ in their literals and which ``revise`` drops:
    # shape key -> its kept readings
    shapes: Kept = field(default_factory=lambda: Kept(PREPARED_CAP), compare=False, repr=False)
    # the population loader, which ``population`` builds on the first load
    loader: Any = field(default=None, compare=False, repr=False)
    # the one node of each structure of plan node that ``relalg`` has
    # compiled, which holds its compiled code: structural key -> node, held
    # weakly, so an entry goes when no plan and no kept result holds it
    subplans: Any = field(default_factory=weakref.WeakValueDictionary, compare=False, repr=False)

    # -- basic accessors -------------------------------------------------

    def check_type(self, x: TypeId) -> None:
        if x not in self.types:
            raise SchemaError(f"unknown type {shown(x)}")

    def is_value(self, x: TypeId) -> bool:
        self.check_type(x)
        return self.types[x].is_value_type

    def is_relationship(self, x: TypeId) -> bool:
        self.check_type(x)
        return self.types[x].is_relationship

    def player(self, p: RoleId) -> TypeId:
        if p not in self.roles:
            raise SchemaError(f"unknown role {shown(p)}")
        return self.roles[p].player

    def rel(self, p: RoleId) -> TypeId:
        if p not in self.roles:
            raise SchemaError(f"unknown role {shown(p)}")
        return self.roles[p].rel

    def type_related(self, x: TypeId, y: TypeId) -> bool:
        related = self.related_to(x)
        self.check_type(y)
        return y in related

    def related_to(self, x: TypeId) -> frozenset:
        self.check_type(x)
        return self.related[x]

    def roots_of(self, x: TypeId) -> frozenset:
        self.check_type(x)
        return self.roots.get(x, frozenset({x}))

    def revise(self, *, macros: Mapping[str, Macro] | None = None, derivations: Iterable | None = None) -> None:
        """Replace the macros, the derivation rules or both, and drop the
        work kept on them: the plans of the rules and constraints, and the
        prepared texts and shapes, whose readings the macros and the derived
        types shape."""
        if macros is not None:
            self.macros = MappingProxyType(dict(macros))
        if derivations is not None:
            self.derivations = tuple(derivations)
        self.plans.clear()
        self.prepared.clear()
        self.shapes.clear()

    def derived_types(self) -> frozenset:
        """The types that a derivation rule defines."""
        return frozenset(r.defines for r in self.derivations)

    def user_types(self) -> list[TypeId]:
        return [t for t in self.types if t not in (ANY_VALUE_TYPE,)]

    # -- name lookups ----------------------------------------------------

    def lookup_type(self, name: str) -> TypeId | None:
        for tid, n in self.naming.tnm.items():
            if n == name:
                return tid
        return None

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
    twice: set[RoleId] = set()  # reported once as listed twice, not again
    for ftid in sorted(schema.roles_of):
        if ftid not in schema.types or not schema.types[ftid].is_relationship:
            diags.append(f"roles_of entry {ftid!r} is not a relationship type")
        for rid in schema.roles_of[ftid]:
            if rid in seen:
                diags.append(f"role {rid!r} appears in both {seen[rid]!r} and {ftid!r}")
                twice.add(rid)
            seen[rid] = ftid
    for rid in sorted(schema.roles):
        role = schema.roles[rid]
        if rid not in seen:
            diags.append(f"role {rid!r} belongs to no relationship type")
        elif seen[rid] != role.rel and rid not in twice:
            diags.append(f"role {rid!r} declares relationship {role.rel!r} but is listed under {seen[rid]!r}")
        if role.player not in schema.types:
            diags.append(f"role {rid!r} has unknown player {role.player!r}")

    # relatedness must be symmetric
    for x in sorted(schema.related):
        for y in sorted(schema.related[x]):
            if x not in schema.related.get(y, ()):
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
        rels = {schema.roles[r].rel for r in entry.roles if r in schema.roles}
        if len(rels) > 1 or any(r not in schema.roles for r in entry.roles):
            diags.append(f"mix-fix entry {entry.parts!r} mixes roles of different relationship types")
        elif entry.rel not in schema.types:
            diags.append(f"mix-fix entry {entry.parts!r} names undeclared fact type {entry.rel!r}")
        elif rels != {entry.rel}:
            diags.append(f"mix-fix entry {entry.parts!r} names {entry.rel!r} but its roles belong to {rels.pop()!r}")

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
    # follow every component of every reference scheme, the second role of
    # each pair or each role of a roles scheme, to the type whose scheme
    # identifies it: its player, or the root whose scheme a player without
    # one inherits.  A type whose pairs chains reach a cycle, or that lies
    # on a cycle through a roles scheme, has no finite denotation, and
    # head/tail coercion through it would diverge
    def identified_by(t: TypeId) -> TypeId:
        roots = schema.roots.get(t, ())
        return next(iter(roots)) if t not in schema.idf and len(roots) == 1 else t

    def component_roles(scheme: Idf) -> Iterable[RoleId]:
        return (s for _, s in scheme.entries) if scheme.kind == "pairs" else scheme.entries

    follows = {
        tid: {identified_by(schema.roles[s].player) for s in component_roles(scheme) if s in schema.roles}
        for tid, scheme in schema.idf.items()
    }

    def reached(tid: TypeId, through: set) -> set[TypeId]:
        """The types that the chains from ``tid`` reach, each step to a
        type of ``through``."""
        out, stack = set(), [tid]
        while stack:
            new = (follows.get(stack.pop(), set()) & through) - out
            out |= new
            stack.extend(new)
        return out

    pairs = {tid for tid, scheme in schema.idf.items() if scheme.kind == "pairs"}
    by_pairs = {tid: reached(tid, pairs) for tid in pairs}
    reach = {tid: reached(tid, set(follows)) for tid in follows}
    cyclic = {tid for tid in pairs if any(t in by_pairs[t] for t in by_pairs[tid] | {tid})}
    cyclic |= {tid for tid in follows for r in follows.keys() - pairs if r in reach[tid] and tid in reach[r]}
    return [f"reference scheme chain starting at {tid!r} is cyclic" for tid in sorted(cyclic)]


# ---------------------------------------------------------------------------
# loading


_KIND_FLAGS = {
    "entity": (False, False),
    "value": (False, True),
    "relationship": (True, False),
    "nested": (True, False),
}


def parse_document(text: str, error: type) -> Any:
    """The JSON value that the document ``text`` writes; ``error``, a
    ``ConquerError`` kind, when it writes none, nests too deep to read or
    writes an int of more digits than Python converts."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise error(f"not a JSON document: {e}") from None


def load_schema(data: dict | str) -> Schema:
    """Build a schema from its JSON document (structure only).

    Macros, derivation rules and constraints are stored as raw text; the
    frontend compiles them once the parser can resolve names against the
    loaded tables.
    """
    if isinstance(data, str):
        data = parse_document(data, SchemaError)
    if not isinstance(data, dict):
        raise SchemaError("schema document must be a JSON object")
    _check_sections(data)

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
        schema.types[tid] = TypeInfo(tid, is_relationship=is_rel, is_value_type=is_val)

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

    schema.ancestors = _compute_ancestors(schema)
    # a declared root set, otherwise the ancestors that specialise nothing
    explicit = data.get("roots", {})
    schema.roots = {
        tid: frozenset(explicit[tid]) if tid in explicit
        else frozenset(a for a in schema.ancestors[tid] if not schema.specialises.get(a))
        for tid in schema.types
    }
    schema.related = _compute_related(schema, data.get("related", []), data.get("unrelated", []))

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


def _texts(*values) -> bool:
    return all(isinstance(v, str) for v in values)


def _text_list(v: Any) -> bool:
    return isinstance(v, list) and _texts(*v)


def _is_macro(m: Any) -> bool:
    if not isinstance(m, dict) or not isinstance(m.get("params", []), list):
        return False
    return _texts(m.get("name"), m.get("body"), *m.get("params", []))


def _is_rule(d: Any) -> bool:
    if not isinstance(d, dict):
        return False
    if "fact" not in d:
        return _texts(d.get("body"), d.get("type"))
    roles = d.get("roles")
    return isinstance(roles, dict) and _texts(d.get("body"), d["fact"], *roles, *roles.values())


def _is_mfix(e: Any) -> bool:
    if isinstance(e, dict):
        e = [e.get("rel"), e.get("parts"), e.get("roles")]
    ok = isinstance(e, list) and len(e) == 3 and _texts(e[0]) and _text_list(e[1]) and _text_list(e[2])
    return ok and 0 < len(e[1]) == len(e[2]) - 1


# each list section: what each of its entries must be, and the test of one
_ENTRIES = {
    "macros": ("an object with a text 'name' and 'body' and a list of texts 'params'", _is_macro),
    "derivations": (
        "an object with a text 'body' and a text 'type', or a text 'fact' and an object 'roles' of texts",
        _is_rule,
    ),
    "constraints": ("a query text", _texts),
    "roles": ("a role id", _texts),
    "related": ("a pair of type ids", lambda e: _text_list(e) and len(e) == 2),
    "unrelated": ("a pair of type ids", lambda e: _text_list(e) and len(e) == 2),
    "naming.mfix": ("a fact type id, one part or more and one role more than parts, in an object or a list", _is_mfix),
}
# each object section but ``types`` and ``naming``, whose values have rules
# of their own: what each of its values must be, and the test of one
_TABLES = {
    "roles_of": ("a list of role ids", _text_list),
    "player": ("a type id", _texts),
    "idf": (
        "a list of role ids or of pairs of role ids",
        lambda v: isinstance(v, list) and (_texts(*v) or all(_text_list(pair) for pair in v)),
    ),
    "specialises": ("a type id or a list of type ids", lambda v: _texts(v) or _text_list(v)),
    "roots": ("a list of type ids", _text_list),
    "naming.tnm": ("a text", _texts),
    "naming.pnm": ("a text", _texts),
    "naming.rnm": ("a text", _texts),
    "naming.pre": ("an object of texts", lambda v: isinstance(v, dict) and _texts(*v.values())),
    "naming.post": ("a text", _texts),
}


def _section(data: dict, key: str, default: Any) -> Any:
    """The section ``key`` of the document (a dotted key names a table of
    the ``naming`` section), or ``default`` when it is not there."""
    *outer, last = key.split(".")
    for k in outer:
        data = data.get(k, {})
    return data.get(last, default)


def _check_sections(data: dict) -> None:
    """Refuse a document whose sections have another shape than the loader
    and ``compile_schema_queries`` read: the type, role, reference scheme,
    hierarchy and naming tables are objects of their entries, a type spec
    is a kind or an object of flags with a text kind, and the macros,
    derivation rules, constraints, declared roles, related and unrelated
    pairs and mix-fix readings are lists of their entries.  A section is
    checked after the section it sits in."""
    for key in ("types", "naming"):
        if not isinstance(data.get(key, {}), dict):
            raise SchemaError(f"schema section {key!r} must be an object, got {shown(data[key])}")
    for tid, spec in data.get("types", {}).items():
        if not isinstance(spec, (str, dict)):
            raise SchemaError(f"type spec for {shown(tid)} must be a kind or an object, got {shown(spec)}")
        if isinstance(spec, dict) and not _texts(spec.get("kind", "")):
            raise SchemaError(f"the kind of type {shown(tid)} must be a text, got {shown(spec['kind'])}")
    for key, (what, valid) in _TABLES.items():
        table = _section(data, key, {})
        if not isinstance(table, dict):
            raise SchemaError(f"schema section {key!r} must be an object, got {shown(table)}")
        for name, value in table.items():
            if not valid(value):
                raise SchemaError(f"each value of {key!r} must be {what}, got {shown(value)} for {shown(name)}")
    for key, (what, valid) in _ENTRIES.items():
        section = _section(data, key, [])
        if not isinstance(section, list):
            raise SchemaError(f"schema section {key!r} must be a list, got {shown(section)}")
        for entry in section:
            if not valid(entry):
                raise SchemaError(f"each entry of {key!r} must be {what}, got {shown(entry)}")


def _compute_ancestors(schema: Schema) -> dict[TypeId, frozenset]:
    # every type the schema names: a role's player or a supertype that is
    # not declared is only a diagnostic of ``validate_schema``
    named = set(schema.types) | {r.player for r in schema.roles.values()}
    for sub, supers in schema.specialises.items():
        named.add(sub)
        named.update(supers)
    out: dict[TypeId, frozenset] = {}
    for tid in named:
        reached, stack = {tid}, [tid]
        while stack:
            for sup in schema.specialises.get(stack.pop(), ()):
                if sup not in reached:
                    reached.add(sup)
                    stack.append(sup)
        out[tid] = frozenset(reached)
    return out


def _compute_related(schema: Schema, extra: list, exclusions: list) -> dict[TypeId, frozenset]:
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
    related: dict[TypeId, set] = {}
    for x, y in pairs:
        related.setdefault(x, set()).add(y)
    return {x: frozenset(ys) for x, ys in related.items()}
