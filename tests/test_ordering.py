"""``paths.order_result`` against a reference: the sort it replaced, which
sorts every row by the sort key of every cell and then once more per order
key, with the ``isinstance`` chain of the sort key it replaced."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conquer.bag import Bag
from conquer.paths import OrderKey, order_result
from conquer.relalg import Relation
from conquer.values import FALSE, NULL, TRUE, Bool, EntityInstance, FactInstance, GroupedBag, is_number, sort_key


def reference_sort_key(v):
    if v is NULL:
        return (6,)
    if is_number(v):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, Bool):
        return (2, v.value)
    if isinstance(v, EntityInstance):
        return (3, v.root, tuple(reference_sort_key(k) for k in v.key))
    if isinstance(v, FactInstance):
        items = sorted(v.roles().items())
        return (4, tuple((r, reference_sort_key(x)) for r, x in items))
    if isinstance(v, GroupedBag):
        items = sorted(((reference_sort_key(e), n) for e, n in v.bag.items()))
        return (5, tuple(items))
    raise TypeError(f"unorderable value {v!r}")


def reference_order(relation, spec):
    rows = []
    for t, n in relation.rows():
        rows.extend([t] * n)
    rows.sort(key=lambda t: tuple(map(reference_sort_key, t)))
    for key in reversed(spec):

        def keyfun(t, i=relation.header.index(key.attr)):
            v = t[i]
            if v is NULL:
                return (1,)
            return (0,) + reference_sort_key(v)

        rows.sort(key=keyfun, reverse=key.direction == "desc")
    return rows


numbers = st.sampled_from([0, 1, 2, Fraction(1), Fraction(1, 2), Fraction(2), Fraction(-3, 4)])
strings = st.sampled_from(["", "a", "b", "ab"])
atoms = st.one_of(numbers, strings, st.just(NULL), st.sampled_from([TRUE, FALSE]))
persons = st.builds(lambda k: EntityInstance("P", (k,)), st.one_of(numbers, strings))
# entities with a nested entity component, and of the same root with a shorter key
entities = st.one_of(
    persons,
    st.builds(lambda p, n: EntityInstance("Q", (p, n)), persons, numbers),
    st.builds(lambda k: EntityInstance("Q", (k,)), strings),
)
facts = st.builds(lambda a, b: FactInstance({"r": a, "s": b}), st.one_of(atoms, persons), atoms)
bags = st.builds(lambda es: GroupedBag(Bag(es)), st.lists(st.one_of(numbers, strings, persons), max_size=3))
cells = st.one_of(atoms, entities, facts, bags)


@st.composite
def ordered_relations(draw):
    width = draw(st.integers(1, 3))
    header = ("a", "b", "c")[:width]
    pool = draw(st.lists(st.tuples(*[cells] * width), min_size=1, max_size=6))
    # rows drawn from a small pool, so that rows and cells repeat
    rows = draw(st.lists(st.sampled_from(pool), max_size=14))
    keys = st.builds(OrderKey, st.sampled_from(header), st.sampled_from(["asc", "desc"]))
    spec = draw(st.lists(keys, min_size=1, max_size=3))
    return Relation(header, Bag(rows)), spec


@settings(max_examples=200, deadline=None)
@given(ordered_relations())
def test_order_result_matches_the_reference(case):
    relation, spec = case
    got, want = order_result(relation, spec), reference_order(relation, spec)
    assert [id(t) for t in got] == [id(t) for t in want]


@given(cells)
def test_sort_key_matches_the_reference(value):
    assert sort_key(value) == reference_sort_key(value)
