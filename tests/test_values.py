"""The cell value domain: kind tests and interned entity instances."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest

from conquer import values
from conquer.bag import Bag
from conquer.values import FALSE, NULL, TRUE, EntityInstance, FactInstance, GroupedBag, is_atomic, is_number

KINDS = [
    # value, is_number, is_atomic
    (7, True, True),
    (Fraction(1, 2), True, True),
    (1.5, True, True),
    (True, False, False),
    (False, False, False),
    (TRUE, False, True),
    (FALSE, False, True),
    (NULL, False, False),
    ("s", False, True),
    (EntityInstance("P", ("a",)), False, False),
    (FactInstance({"r": 1}), False, False),
    (GroupedBag(Bag([1, 1])), False, False),
]


@pytest.mark.parametrize("value, number, atomic", KINDS, ids=[repr(v) for v, _, _ in KINDS])
def test_kind_tests(value, number, atomic):
    assert is_number(value) is number
    assert is_atomic(value) is atomic


class TestInterning:
    def test_equal_keys_give_one_instance(self):
        inner = EntityInstance("P", ("a",))
        outer = EntityInstance("Q", (inner, 1))
        assert EntityInstance("Q", (EntityInstance("P", ("a",)), Fraction(1))) is outer
        assert EntityInstance("Q", (inner, 2)) is not outer
        assert EntityInstance("R", (inner, 1)) is not outer

    def test_identity_hash_and_equality(self):
        # dicts and row tuples hash and compare entities without calling Python
        assert EntityInstance.__hash__ is object.__hash__
        assert EntityInstance.__eq__ is object.__eq__
        assert type(NULL).__hash__ is object.__hash__

    def test_unreferenced_instance_leaves_the_table(self):
        inst = EntityInstance("Interned", ("gone",))
        ref = weakref.ref(inst)
        assert ("Interned", ("gone",)) in values._INTERNED
        del inst
        gc.collect()
        assert ref() is None
        assert ("Interned", ("gone",)) not in values._INTERNED

    def test_instance_stays_immutable(self):
        inst = EntityInstance("P", ("a",))
        with pytest.raises(AttributeError):
            inst.key = ("b",)
        assert EntityInstance("P", ("a",)).key == ("a",)

    def test_copies_are_the_instance(self):
        inst = EntityInstance("Q", (EntityInstance("P", ("a",)), 1))
        assert copy.copy(inst) is inst
        assert copy.deepcopy(inst) is inst
        assert pickle.loads(pickle.dumps(inst)) is inst
