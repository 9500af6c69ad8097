"""The population loader against the reference loader of ``tests/oracle.py``.

Both must give each type the same instances with the same frequencies, in
the same order, and refuse a malformed document with the same error.  One
load builds each distinct denotation's instance once and each fact once,
and a schema's decoders are built on its first load only.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conquer import population
from conquer.errors import ConquerError, PopulationError
from conquer.population import load_population
from conquer.schema import load_schema
from conquer.values import EntityInstance, FactInstance

from .conftest import salary_doc
from .oracle import reference_load
from .test_population import person_doc
from .test_reading_golden import _gen
from .test_schema import student_pa_doc
from .test_scaling import DEMO


def demo_doc() -> dict:
    return json.loads((DEMO / "schema.json").read_text())


def bench_doc() -> dict:
    """The benchmark schema: subtypes HighEarner and BigCompany, and the
    fact types W and Staff."""
    return _gen().bench_schema(demo_doc())


def composite_doc() -> dict:
    """Each Person identified by its name and the Company it works for."""
    doc = salary_doc()
    doc["idf"]["x"] = [["pn1", "pn2"], ["q1", "q2"]]
    return doc


def own_scheme_doc() -> dict:
    """The demo schema with Employee, a subtype of Person identified by its
    own number."""
    doc = demo_doc()
    doc["types"].update({"Employee": "entity", "EmpNr": "value", "EN": "relationship"})
    doc["roles_of"]["EN"] = ["en1", "en2"]
    doc["player"].update({"en1": "Employee", "en2": "EmpNr"})
    doc["idf"].update({"Employee": [["en1", "en2"]], "EN": ["en1", "en2"]})
    doc["specialises"] = {"Employee": "Person"}
    doc["naming"]["tnm"]["Employee"] = "Employee"
    return doc


SCHEMAS = {"demo": demo_doc, "bench": bench_doc, "composite": composite_doc, "own scheme": own_scheme_doc}

# few scalars, so that documents name the same denotation often; 1, 1.0 and
# True are three different raw scalars
SCALARS = [0, 1, 2, 1.0, 2.5, True, False, None, "a", "b", "c", Fraction(1, 3)]


def raw_instance(rng: random.Random, schema, tid: str):
    """A raw instance of ``tid`` that decodes."""
    info = schema.types[tid]
    if info.is_value_type:
        return rng.choice(SCALARS)
    if info.is_relationship:
        rids = list(schema.roles_of[tid])
        rng.shuffle(rids)
        return {r: raw_instance(rng, schema, schema.player(r)) for r in rids}
    (root,) = schema.roots_of(tid)
    scheme = schema.idf.get(tid) or schema.idf[root]
    parts = [raw_instance(rng, schema, schema.player(s)) for _, s in scheme.entries]
    if len(parts) == 1 and not isinstance(parts[0], list) and rng.random() < 0.7:
        return parts[0]
    return parts


def random_document(rng: random.Random, schema) -> dict:
    """Some of the schema's types, each under its name or its id, with a few
    instances each, named in any order."""
    doc = {}
    for tid in rng.sample(sorted(schema.types), rng.randrange(1, len(schema.types) + 1)):
        key = schema.naming.tnm.get(tid, tid) if rng.random() < 0.5 else tid
        doc.setdefault(key, [raw_instance(rng, schema, tid) for _ in range(rng.randrange(6))])
    return doc


def strict(v):
    """``v`` with the type of every value in it, so that 1, 1.0 and True
    compare unequal."""
    if isinstance(v, EntityInstance):
        return ("entity", v.root, tuple(map(strict, v.key)))
    if isinstance(v, FactInstance):
        return ("fact", tuple((r, strict(x)) for r, x in sorted(v.roles().items(), key=lambda kv: kv[0])))
    return (type(v).__name__, v)


def outcome(load, schema, doc):
    """Each type of the loaded population, in order, with its instances and
    their frequencies, in order; or the error that refused the document."""
    try:
        pop = load(schema, doc)
    except ConquerError as e:
        return ("refused", type(e).__name__, str(e))
    return [(tid, [(strict(v), n) for v, n in pop.instances(tid).items()]) for tid in pop.types()]


@pytest.mark.parametrize("name", SCHEMAS)
def test_the_loader_agrees_with_the_reference_loader(name):
    schema = load_schema(SCHEMAS[name]())
    for seed in range(60):
        doc = random_document(random.Random(seed), schema)
        expected = outcome(reference_load, schema, doc)
        assert expected[0] != "refused", (seed, expected)
        assert outcome(load_population, schema, doc) == expected, seed


def test_the_loader_agrees_with_the_reference_loader_on_benchmark_populations():
    schema = load_schema(bench_doc())
    gen = _gen()
    for seed in range(5):
        world = gen.random_world(random.Random(seed), 40, 5, balanced=False)
        doc = world.population_doc()
        assert outcome(load_population, schema, doc) == outcome(reference_load, schema, doc)


def _cyclic_doc() -> dict:
    doc = demo_doc()
    doc["player"]["pn2"] = "Person"
    return doc


def _multi_rooted_doc() -> dict:
    doc = demo_doc()
    doc["types"]["Both"] = "entity"
    doc["specialises"] = {"Both": ["Person", "Company"]}
    doc["naming"]["tnm"]["Both"] = "Both"
    return doc


MALFORMED = [
    (person_doc, {"Martian": [1]}),
    (person_doc, {"SN": [{"sn1": ["a", "b"]}]}),
    (demo_doc, {"Person": ["ann"], "Company": ["acme"], "G": [["ann", "acme"]]}),
    *((demo_doc, {"Person": entry}) for entry in ["ann", {"x": 1}, 5, None]),
    *((person_doc, '{"Surname": [%s]}' % raw) for raw in ["NaN", "Infinity", "-Infinity", "1e400"]),
    (person_doc, {"Surname": [float("nan")]}),
    (_cyclic_doc, (DEMO / "population.json").read_text()),
    (_cyclic_doc, {"F": [{"p1": "ann", "p2": 1000}]}),
    (student_pa_doc, {"Person": [["ann", "bob"]]}),
    (demo_doc, {"Person": [["ann", "bob"]]}),
    (demo_doc, []),
    (demo_doc, {"Salary": [[1000]]}),
    (_multi_rooted_doc, {"Both": ["x"]}),
]


@pytest.mark.parametrize("schema_doc, doc", MALFORMED)
def test_both_loaders_refuse_a_malformed_document_alike(schema_doc, doc):
    schema = load_schema(schema_doc())
    refused = outcome(reference_load, schema, doc)
    assert refused[:2] == ("refused", "PopulationError")
    assert outcome(load_population, schema, doc) == refused


def companies_named_40_times() -> dict:
    """200 persons, each working for one of 5 companies."""
    return {
        "Company": [f"co{i}" for i in range(5)],
        "G": [{"q1": f"per{i:03d}", "q2": f"co{i % 5}"} for i in range(200)],
    }


def test_one_load_builds_each_instance_once(monkeypatch):
    schema = load_schema(demo_doc())
    entities, facts = Counter(), Counter()
    new_entity, new_fact = EntityInstance.__new__, FactInstance.__init__

    def counted_entity(cls, root, key):
        entities[root, key] += 1
        return new_entity(cls, root, key)

    def counted_fact(self, roles):
        facts[frozenset(roles)] += 1
        new_fact(self, roles)

    monkeypatch.setattr(EntityInstance, "__new__", counted_entity)
    monkeypatch.setattr(FactInstance, "__init__", counted_fact)
    pop = load_population(schema, companies_named_40_times())
    # 200 persons and 5 companies; 200 G facts and their reference facts
    assert len(entities) == 205 and set(entities.values()) == {1}
    assert facts == Counter({frozenset({"q1", "q2"}): 200, frozenset({"pn1", "pn2"}): 200, frozenset({"cn1", "cn2"}): 5})
    assert pop.instances("Company").cardinality() == 5
    # a load keeps nothing for the next
    load_population(schema, companies_named_40_times())
    assert set(entities.values()) == {2}


def test_a_load_keeps_no_instance_alive():
    schema = load_schema(demo_doc())
    pop = load_population(schema, {"G": [{"q1": "named only here", "q2": "also named only here"}]})
    company = weakref.ref(next(iter(pop.instances("Company").distinct())))
    gc.disable()  # what a reference cycle keeps alive is freed only by a collection
    try:
        del pop
        assert company() is None
    finally:
        gc.enable()


def test_a_schema_builds_its_loader_on_its_first_load(monkeypatch):
    built = []
    init = population._Loader.__init__

    def counted(self, schema):
        built.append(schema)
        init(self, schema)

    monkeypatch.setattr(population._Loader, "__init__", counted)
    schema = load_schema(demo_doc())
    for _ in range(2):
        load_population(schema, companies_named_40_times())
    assert built == [schema]


def test_each_schema_decodes_through_its_own_loader():
    # Person is identified by one name in the demo schema and by a surname
    # and a first name in the other
    demo, people = load_schema(demo_doc()), load_schema(person_doc())
    assert list(load_population(demo, {"Person": ["ann"]}).instances("Person").elements()) == [
        EntityInstance("Person", ("ann",))
    ]
    halpin = EntityInstance("Person", ("Halpin", "Terry"))
    assert list(load_population(people, {"Person": [["Halpin", "Terry"]]}).instances("Person").elements()) == [halpin]
    assert outcome(load_population, demo, {"Person": [["Halpin", "Terry"]]})[0] == "refused"
    assert outcome(load_population, people, {"Person": ["ann"]})[0] == "refused"
    assert demo.loader is not people.loader


# ---------------------------------------------------------------------------
# any JSON-like document loads or is refused


def _keys(*docs: dict) -> tuple[list, list]:
    """The type names and ids, and the role ids, of these schemas."""
    types, roles = set(), set()
    for doc in docs:
        types |= set(doc["types"]) | set(doc["naming"]["tnm"].values())
        roles |= set(doc["player"])
    return sorted(types), sorted(roles)


TYPE_KEYS, ROLE_KEYS = _keys(demo_doc(), bench_doc())
ROBUSTNESS_SCHEMAS = {"demo": load_schema(demo_doc()), "bench": load_schema(bench_doc())}

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(10**100), 10**400])
    # more digits than Python writes or reads; built when drawn, since the
    # strategy's repr would write them
    | st.sampled_from([(1, 4300), (-1, 5000)]).map(lambda sign_digits: sign_digits[0] * 10 ** sign_digits[1])
    | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["ann", "acme", "per001", "co0"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(ROLE_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
documents = (
    st.dictionaries(
        st.sampled_from(TYPE_KEYS) | st.text(max_size=3), st.lists(json_values, max_size=4) | json_values, max_size=4
    )
    | st.lists(json_values, max_size=2)
    | st.none()
    | st.integers()
)




def dumped(doc) -> str:
    """``doc`` as a JSON text, its ints written whatever their length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


# documents as JSON texts, whole or cut short, and texts that are not JSON
json_texts = st.builds(dumped, documents)
json_texts = json_texts | json_texts.flatmap(lambda t: st.integers(0, len(t) - 1).map(lambda i: t[:i])) | st.text(max_size=8)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ROBUSTNESS_SCHEMAS)), documents | json_texts)
def test_any_document_loads_or_is_refused(name, doc):
    schema = ROBUSTNESS_SCHEMAS[name]
    assert outcome(load_population, schema, doc) == outcome(reference_load, schema, doc)


@pytest.mark.parametrize(
    "doc",
    [
        lambda: "{",
        lambda: "[" * 100_000,
        lambda: '{"Person": [' + "1" * 5000 + "]}",
        lambda: {"Person": [[10**5000, 1]]},
        lambda: {"Person": [{"name": "x" * 10_000}]},
    ],
    ids=["cut short", "nested too deep", "an int too long to read", "an int too long to write", "a long string"],
)
def test_a_document_python_cannot_read_or_write_is_refused(doc):
    """A text that is not JSON and a value that Python cannot write are a
    ``PopulationError``, whose message shows each value cut short."""
    schema = ROBUSTNESS_SCHEMAS["demo"]
    with pytest.raises(PopulationError) as refused:
        load_population(schema, doc())
    assert len(str(refused.value)) < 300
    assert outcome(reference_load, schema, doc()) == outcome(load_population, schema, doc())


def test_a_role_key_that_is_not_a_string_is_refused():
    with pytest.raises(PopulationError, match=r"must fill roles \['p1', 'p2'\], got \['p1', 2\]"):
        load_population(ROBUSTNESS_SCHEMAS["demo"], {"F": [{"p1": "ann", 2: 1000}]})


def test_a_role_of_a_fact_type_without_roles_is_refused_with_a_short_message():
    """A fact type that declares no roles takes its instances' keys as role
    ids, and the schema refuses one it lacks, showing it cut short."""
    schema = load_schema({"types": {"R": "relationship"}, "naming": {"tnm": {"R": "R"}}})
    for key in (10**5000, "x" * 500):
        with pytest.raises(ConquerError, match="unknown role") as refused:
            load_population(schema, {"R": [{key: 1}]})
        assert len(str(refused.value)) < 120
