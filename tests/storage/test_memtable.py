"""Tests for the in-memory write buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Memtable


class TestMemtable:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            Memtable(0)

    def test_put_and_get(self):
        table = Memtable(10)
        table.put(5)
        assert table.holds(5)

    def test_get_missing_key(self):
        table = Memtable(10)
        assert not table.holds(99)

    def test_update_overwrites_previous_entry(self):
        table = Memtable(10)
        table.put(5)
        table.put(5)
        assert table.holds(5)
        assert len(table) == 1

    def test_a_put_of_a_held_key_does_not_grow_a_full_table(self):
        table = Memtable(2)
        table.put(1)
        table.put(2)
        assert table.is_full
        table.put(1)
        assert len(table) == 2 and table.sorted_items().tolist() == [1, 2]

    def test_is_full_and_is_empty(self):
        table = Memtable(2)
        assert table.is_empty
        table.put(1)
        assert not table.is_full
        table.put(2)
        assert table.is_full

    def test_clear(self):
        table = Memtable(4)
        table.put(1)
        table.clear()
        assert table.is_empty

    def test_scan_returns_sorted_keys(self):
        table = Memtable(10)
        for key in (9, 3, 7, 5):
            table.put(key)
        assert table.scan_items(0, 100).tolist() == [3, 5, 7, 9]

    def test_scan_respects_bounds(self):
        table = Memtable(10)
        for key in range(10):
            table.put(key)
        assert table.scan_items(3, 6).tolist() == [3, 4, 5, 6]

    def test_sorted_items_returns_sorted_keys(self):
        table = Memtable(10)
        table.put(4)
        table.put(2)
        assert table.sorted_items().tolist() == [2, 4]

    def test_sorted_items_empty(self):
        keys = Memtable(4).sorted_items()
        assert keys.size == 0 and keys.dtype == np.int64

    def test_len_counts_unique_keys(self):
        table = Memtable(10)
        table.put(1)
        table.put(1)
        table.put(2)
        assert len(table) == 2


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: Few distinct keys, so puts and overwrites of one key interleave; negative
#: keys and both ends of the key type among them.
_KEYS = st.sampled_from(
    [INT64_MIN, INT64_MIN + 1, -40, -3, -1, 0, 1, 2, 7, 8, 30, INT64_MAX - 1, INT64_MAX]
)
_STEPS = st.lists(
    st.one_of(st.tuples(st.just("put"), _KEYS), st.tuples(st.just("clear"), st.none())),
    max_size=60,
)
_BOUNDS = st.one_of(_KEYS, st.integers(-50, 50))


def _assert_equals_the_set(table: Memtable, reference: set[int], capacity: int):
    assert len(table) == len(reference)
    assert table.is_empty == (not reference)
    assert table.is_full == (len(reference) >= capacity)
    keys = table.sorted_items()
    assert keys.dtype == np.int64
    assert keys.tolist() == sorted(reference)


class TestMemtableAgainstASet:
    """The sorted key list beside the set never drifts from it."""

    @given(steps=_STEPS, intervals=st.lists(st.tuples(_BOUNDS, _BOUNDS), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_put_and_clear(self, steps, intervals):
        capacity = 5
        table, reference = Memtable(capacity), set()
        holds = table.holds  # bound once, as the replay loop binds it
        for step, key in steps:
            if step == "clear":
                table.clear()
                reference.clear()
            else:
                table.put(key)
                reference.add(key)
            _assert_equals_the_set(table, reference, capacity)
            assert holds(key) == (key in reference)
        for start, end in intervals:
            keys = table.scan_items(start, end)
            assert keys.dtype == np.int64
            assert keys.tolist() == sorted(key for key in reference if start <= key <= end)

    @given(
        steps=_STEPS,
        probes=st.lists(st.one_of(_KEYS, st.integers(INT64_MIN, INT64_MAX)), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_lookup_many_is_holds_per_key(self, steps, probes):
        """Random and repeated keys and an empty buffer (no steps, or a clear
        last) among them."""
        table = Memtable(5)
        for step, key in steps:
            table.clear() if step == "clear" else table.put(key)
        found = table.lookup_many(np.array(probes, dtype=np.int64))
        assert found.dtype == bool
        assert found.tolist() == [table.holds(key) for key in probes]

    def test_a_re_put_key_keeps_its_place_in_the_key_order(self):
        table = Memtable(4)
        for key in (3, -2, -2, 3):
            table.put(key)
        assert len(table) == 2 and not table.is_full
        assert table.scan_items(-5, 5).tolist() == [-2, 3]
        assert table.lookup_many(np.array([-2, 3, 0], dtype=np.int64)).tolist() == [
            True, True, False
        ]

    def test_a_scan_of_nothing_buffered_in_range_is_not_writable(self):
        table = Memtable(4)
        table.put(10)
        for interval in [(0, 9), (11, 50), (12, 3)]:
            keys = table.scan_items(*interval)
            assert keys.size == 0 and keys.dtype == np.int64
            assert not keys.flags.writeable

    def test_a_cleared_buffer_forgets_its_key_order(self):
        table = Memtable(4)
        for key in (5, 1, 9):
            table.put(key)
        table.clear()
        table.put(4)
        assert table.scan_items(0, 10).tolist() == [4]
        assert table.sorted_items().tolist() == [4]
