"""Unit and property tests for the GCC-style sparse bitmap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datastructs.sparse_bitmap import BITS_PER_BLOCK, SparseBitmap

elements = st.integers(min_value=0, max_value=5000)
element_lists = st.lists(elements, max_size=60)


class TestBasics:
    def test_empty(self):
        s = SparseBitmap()
        assert len(s) == 0
        assert not s
        assert list(s) == []
        assert s.block_count == 0

    def test_add_returns_novelty(self):
        s = SparseBitmap()
        assert s.add(5) is True
        assert s.add(5) is False
        assert len(s) == 1

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            SparseBitmap().add(-1)

    def test_contains(self):
        s = SparseBitmap([1, 200, 4097])
        assert 1 in s and 200 in s and 4097 in s
        assert 2 not in s
        assert -5 not in s

    def test_discard(self):
        s = SparseBitmap([1, 2])
        assert s.discard(1) is True
        assert s.discard(1) is False
        assert s.discard(-3) is False
        assert sorted(s) == [2]

    def test_discard_frees_empty_block(self):
        s = SparseBitmap([3])
        s.discard(3)
        assert s.block_count == 0

    def test_iteration_is_sorted(self):
        s = SparseBitmap([500, 3, 129, 127, 128])
        assert list(s) == [3, 127, 128, 129, 500]

    def test_block_boundaries(self):
        boundary = BITS_PER_BLOCK
        s = SparseBitmap([boundary - 1, boundary, boundary + 1])
        assert len(s) == 3
        assert s.block_count == 2

    def test_min_max(self):
        s = SparseBitmap([77, 3, 900])
        assert s.min() == 3
        assert s.max() == 900

    def test_min_max_empty_raise(self):
        with pytest.raises(ValueError):
            SparseBitmap().min()
        with pytest.raises(ValueError):
            SparseBitmap().max()

    def test_repr_small_and_large(self):
        assert "SparseBitmap" in repr(SparseBitmap([1]))
        assert "items" in repr(SparseBitmap(range(50)))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseBitmap())


class TestSetOps:
    def test_ior_and_test_reports_change(self):
        a = SparseBitmap([1, 2])
        b = SparseBitmap([2, 3])
        assert a.ior_and_test(b) is True
        assert sorted(a) == [1, 2, 3]
        assert a.ior_and_test(b) is False

    def test_ior_keeps_count(self):
        a = SparseBitmap([1])
        a.ior(SparseBitmap([1, 129, 500]))
        assert len(a) == 3

    def test_iand(self):
        a = SparseBitmap([1, 2, 300])
        changed = a.iand(SparseBitmap([2, 300, 400]))
        assert changed is True
        assert sorted(a) == [2, 300]
        assert a.iand(SparseBitmap([2, 300])) is False

    def test_iand_clears_blocks(self):
        a = SparseBitmap([1, 500])
        a.iand(SparseBitmap([1]))
        assert a.block_count == 1

    def test_difference_update(self):
        a = SparseBitmap([1, 2, 3])
        assert a.difference_update(SparseBitmap([2, 9])) is True
        assert sorted(a) == [1, 3]
        assert a.difference_update(SparseBitmap([9])) is False

    def test_intersects(self):
        assert SparseBitmap([1, 2]).intersects(SparseBitmap([2]))
        assert not SparseBitmap([1]).intersects(SparseBitmap([2]))
        assert not SparseBitmap().intersects(SparseBitmap([2]))

    def test_difference_iter(self):
        a = SparseBitmap([1, 2, 300])
        b = SparseBitmap([2])
        assert list(a.difference_iter(b)) == [1, 300]

    def test_equality_with_set(self):
        assert SparseBitmap([1, 2]) == {1, 2}
        assert SparseBitmap([1]) != {1, 2}

    def test_ior_self_is_noop(self):
        """The identity short-circuit: self-union reports no change and
        must not disturb contents or the cached count."""
        a = SparseBitmap([1, 200, 4097])
        assert a.ior_and_test(a) is False
        assert sorted(a) == [1, 200, 4097]
        assert len(a) == 3

    def test_ior_empty_other_short_circuits(self):
        a = SparseBitmap([1, 2])
        assert a.ior_and_test(SparseBitmap()) is False
        assert sorted(a) == [1, 2]

    def test_same_as_identity(self):
        a = SparseBitmap([5, 300])
        assert a.same_as(a) is True

    def test_same_as_equal_and_unequal(self):
        a = SparseBitmap([1, 2, 500])
        b = SparseBitmap([500, 2, 1])
        assert a.same_as(b) is True
        b.add(7)
        assert a.same_as(b) is False

    def test_same_as_popcount_early_exit(self):
        """Count mismatch must decide without touching blocks: poison the
        block dicts with unequal shadows and rely on counts alone."""
        a = SparseBitmap([1])
        b = SparseBitmap([1, 2])
        blocks_reads = []

        class Spy(dict):
            def __eq__(self, other):  # pragma: no cover - must not run
                blocks_reads.append(True)
                return dict.__eq__(self, other)

            __hash__ = None

        a._blocks = Spy(a._blocks)
        b._blocks = Spy(b._blocks)
        assert a.same_as(b) is False
        assert blocks_reads == []

    def test_copy_is_independent(self):
        a = SparseBitmap([1])
        b = a.copy()
        b.add(2)
        assert 2 not in a

    def test_clear(self):
        a = SparseBitmap([1, 2])
        a.clear()
        assert len(a) == 0 and a.block_count == 0

    def test_memory_bytes_grows_with_blocks(self):
        a = SparseBitmap([0])
        b = SparseBitmap([0, 10_000])
        assert b.memory_bytes() > a.memory_bytes()


class TestProperties:
    @given(element_lists)
    def test_matches_python_set(self, items):
        s = SparseBitmap(items)
        reference = set(items)
        assert len(s) == len(reference)
        assert list(s) == sorted(reference)
        assert s == reference

    @given(element_lists, element_lists)
    def test_union_matches_set_union(self, xs, ys):
        s = SparseBitmap(xs)
        changed = s.ior_and_test(SparseBitmap(ys))
        reference = set(xs) | set(ys)
        assert set(s) == reference
        assert changed == (not set(ys) <= set(xs))

    @given(element_lists, element_lists)
    def test_intersection_matches_set(self, xs, ys):
        s = SparseBitmap(xs)
        s.iand(SparseBitmap(ys))
        assert set(s) == set(xs) & set(ys)

    @given(element_lists, element_lists)
    def test_difference_matches_set(self, xs, ys):
        s = SparseBitmap(xs)
        s.difference_update(SparseBitmap(ys))
        assert set(s) == set(xs) - set(ys)

    @given(element_lists, element_lists)
    def test_intersects_subset_consistent(self, xs, ys):
        a, b = SparseBitmap(xs), SparseBitmap(ys)
        assert a.intersects(b) == bool(set(xs) & set(ys))

    @given(element_lists, element_lists)
    def test_difference_iter_matches_set(self, xs, ys):
        a, b = SparseBitmap(xs), SparseBitmap(ys)
        assert list(a.difference_iter(b)) == sorted(set(xs) - set(ys))

    @given(element_lists, elements)
    def test_add_discard_roundtrip(self, items, x):
        s = SparseBitmap(items)
        was_in = x in s
        s.add(x)
        assert x in s
        s.discard(x)
        assert x not in s
        if not was_in:
            assert set(s) == set(items)
