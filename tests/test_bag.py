import random

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from conquer.bag import Bag, bag_avg, bag_max, bag_min, bag_sum
from conquer.values import NULL


def bag(*elems):
    return Bag(elems)


class TestSetOps:
    def test_union_example(self):
        assert bag("a", "b", "a").union(bag("b", "c", "c")) == bag("a", "a", "b", "b", "c", "c")

    def test_intersect_example(self):
        assert bag("a", "b", "a").intersect(bag("b", "b", "a", "c")) == bag("a", "b")

    def test_difference_example(self):
        assert bag("a", "b", "b", "a", "c").difference(bag("a", "b", "b", "b")) == bag("a", "c")

    def test_difference_identity(self):
        n = bag(1, 1, 2)
        assert n.difference(Bag()) == n

    def test_equality_is_order_insensitive(self):
        assert bag("a", "b", "c", "c") == bag("a", "c", "b", "c")
        assert bag("a", "b", "c", "c") != bag("a", "b", "c")


class TestInspection:
    def test_cardinality(self):
        assert bag("a", "b", "c", "c", "a").cardinality() == 5

    def test_frequency_absent(self):
        assert Bag().frequency("x") == 0

    def test_subbag(self):
        assert bag("a", "b", "c", "c").subbag(bag("a", "b", "b", "c", "c", "c"))
        assert not bag("a", "b", "c", "c").subbag(bag("a", "b", "c"))

    def test_proper_subbag(self):
        assert bag("a").proper_subbag(bag("a", "a"))
        assert not bag("a").proper_subbag(bag("a"))


class TestCoercions:
    def test_to_set(self):
        assert bag("a", "a", "b", "b", "b").to_set() == bag("a", "b")

    def test_to_set_idempotent(self):
        n = bag(1, 1, 2, 3, 3, 3)
        assert n.to_set().to_set() == n.to_set()


class TestReductions:
    def test_max_min_sum(self):
        n = bag(1, 3, 9, 9, 1)
        assert bag_max(n) == 9
        assert bag_min(n) == 1
        assert bag_sum(n) == 23

    def test_empty_reductions_are_null(self):
        assert bag_sum(Bag()) is NULL
        assert bag_max(Bag()) is NULL
        assert bag_min(Bag()) is NULL

    def test_sum_skips_nulls(self):
        assert bag_sum(bag(1, NULL, 2)) == 3

    def test_all_null_sum_is_null(self):
        assert bag_sum(bag(NULL, NULL)) is NULL

    def test_avg_exact(self):
        assert bag_avg(bag(9, 10, 12, 12)) == Fraction(43, 4)
        assert bag_avg(bag(1, NULL, 3)) == 2
        assert bag_avg(Bag()) is NULL


small_bags = st.lists(st.integers(min_value=0, max_value=5), max_size=8).map(Bag)


class TestLaws:
    @given(small_bags, small_bags)
    def test_union_commutes(self, n, m):
        assert n.union(m) == m.union(n)

    @given(small_bags, small_bags, small_bags)
    def test_union_associates(self, n, m, k):
        assert n.union(m).union(k) == n.union(m.union(k))

    @given(small_bags, small_bags)
    def test_intersect_commutes(self, n, m):
        assert n.intersect(m) == m.intersect(n)

    @given(small_bags, small_bags)
    def test_difference_is_subbag(self, n, m):
        assert n.difference(m).subbag(n)

    @given(small_bags, small_bags)
    def test_union_cardinality(self, n, m):
        assert n.union(m).cardinality() == n.cardinality() + m.cardinality()

    @given(small_bags, small_bags)
    def test_to_set_distributes_over_union(self, n, m):
        assert n.union(m).to_set() == n.to_set().union(m.to_set()).to_set()


def test_frequency_law_bulk():
    # union adds frequencies pointwise, over a large random sample
    rng = random.Random(20260810)
    for _ in range(1000):
        n = Bag(rng.choices(range(6), k=rng.randrange(9)))
        m = Bag(rng.choices(range(6), k=rng.randrange(9)))
        u = n.union(m)
        for e in range(6):
            assert u.frequency(e) == n.frequency(e) + m.frequency(e)
        i = n.intersect(m)
        d = n.difference(m)
        for e in range(6):
            assert i.frequency(e) == min(n.frequency(e), m.frequency(e))
            assert d.frequency(e) == max(n.frequency(e) - m.frequency(e), 0)
