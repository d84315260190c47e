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
        present, tombstone = table.get(5)
        assert present and not tombstone

    def test_get_missing_key(self):
        table = Memtable(10)
        assert table.get(99) == (False, False)

    def test_delete_records_tombstone(self):
        table = Memtable(10)
        table.put(5)
        table.delete(5)
        present, tombstone = table.get(5)
        assert present and tombstone

    def test_update_overwrites_previous_entry(self):
        table = Memtable(10)
        table.delete(5)
        table.put(5)
        assert table.get(5) == (True, False)
        assert len(table) == 1

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

    def test_scan_returns_sorted_live_keys(self):
        table = Memtable(10)
        for key in (9, 3, 7, 5):
            table.put(key)
        table.delete(7)
        keys, tombstones = table.scan_items(0, 100)
        assert keys[~tombstones].tolist() == [3, 5, 9]

    def test_scan_respects_bounds(self):
        table = Memtable(10)
        for key in range(10):
            table.put(key)
        assert table.scan_items(3, 6)[0].tolist() == [3, 4, 5, 6]

    def test_sorted_items_returns_keys_and_tombstones(self):
        table = Memtable(10)
        table.put(4)
        table.delete(2)
        keys, tombstones = table.sorted_items()
        assert keys.tolist() == [2, 4]
        assert tombstones.tolist() == [True, False]

    def test_sorted_items_empty(self):
        keys, tombstones = Memtable(4).sorted_items()
        assert keys.size == 0
        assert tombstones.size == 0

    def test_len_counts_unique_keys(self):
        table = Memtable(10)
        table.put(1)
        table.put(1)
        table.put(2)
        assert len(table) == 2


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: Few distinct keys, so puts, deletes and overwrites of one key interleave;
#: negative keys and both ends of the key type among them.
_KEYS = st.sampled_from(
    [INT64_MIN, INT64_MIN + 1, -40, -3, -1, 0, 1, 2, 7, 8, 30, INT64_MAX - 1, INT64_MAX]
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["put", "delete"]), _KEYS),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=60,
)
_BOUNDS = st.one_of(_KEYS, st.integers(-50, 50))


def _assert_equals_the_dict(table: Memtable, reference: dict[int, bool], capacity: int):
    assert len(table) == len(reference)
    assert table.is_empty == (not reference)
    assert table.is_full == (len(reference) >= capacity)
    keys, tombstones = table.sorted_items()
    assert keys.dtype == np.int64 and tombstones.dtype == bool
    assert keys.tolist() == sorted(reference)
    assert tombstones.tolist() == [reference[key] for key in sorted(reference)]
    for key, tombstone in reference.items():
        assert table.get(key) == (True, tombstone)


class TestMemtableAgainstADict:
    """The sorted key list beside the dict never drifts from it."""

    @given(steps=_STEPS, intervals=st.lists(st.tuples(_BOUNDS, _BOUNDS), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_of_put_delete_and_clear(self, steps, intervals):
        capacity = 5
        table, reference = Memtable(capacity), {}
        holds = table.holds  # bound once, as the replay loop binds it
        for step, key in steps:
            if step == "clear":
                table.clear()
                reference.clear()
            else:
                getattr(table, step)(key)
                reference[key] = step == "delete"
            _assert_equals_the_dict(table, reference, capacity)
            assert holds(key) == (key in reference)
        for start, end in intervals:
            inside = sorted(key for key in reference if start <= key <= end)
            keys, tombstones = table.scan_items(start, end)
            assert keys.dtype == np.int64 and tombstones.dtype == bool
            assert keys.tolist() == inside
            assert tombstones.tolist() == [reference[key] for key in inside]

    @given(
        steps=_STEPS,
        probes=st.lists(st.one_of(_KEYS, st.integers(INT64_MIN, INT64_MAX)), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_lookup_many_is_get_per_key(self, steps, probes):
        """Random and repeated keys, buffered tombstones and an empty buffer
        (no steps, or a clear last) among them."""
        table = Memtable(5)
        for step, key in steps:
            table.clear() if step == "clear" else getattr(table, step)(key)
        found, tombstone = table.lookup_many(np.array(probes, dtype=np.int64))
        assert found.dtype == tombstone.dtype == bool
        assert list(zip(found.tolist(), tombstone.tolist())) == [table.get(key) for key in probes]

    def test_a_tombstone_overwritten_by_a_put_reads_live(self):
        table = Memtable(4)
        table.put(3)
        table.delete(-2)
        table.put(-2)
        assert len(table) == 2 and not table.is_full
        assert table.get(-2) == (True, False)
        keys, tombstones = table.scan_items(-5, 5)
        assert keys.tolist() == [-2, 3] and tombstones.tolist() == [False, False]
        assert table.sorted_items()[1].tolist() == [False, False]

    def test_a_scan_of_nothing_buffered_in_range_is_not_writable(self):
        table = Memtable(4)
        table.put(10)
        for interval in [(0, 9), (11, 50), (12, 3)]:
            keys, tombstones = table.scan_items(*interval)
            assert keys.size == tombstones.size == 0
            assert keys.dtype == np.int64 and tombstones.dtype == bool
            assert not keys.flags.writeable and not tombstones.flags.writeable

    def test_a_cleared_buffer_forgets_its_key_order(self):
        table = Memtable(4)
        for key in (5, 1, 9):
            table.put(key)
        table.clear()
        table.put(4)
        assert table.scan_items(0, 10)[0].tolist() == [4]
        assert table.sorted_items()[0].tolist() == [4]
