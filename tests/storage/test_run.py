"""Tests for immutable sorted runs (fence pointers, filters, merging)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.storage import LSMTree, SortedRun
from repro.storage.persistent import SSTable
from repro.storage.run import consolidate_versions, unique_sorted


def make_run(keys, bits=8.0, entries_per_page=4, tombstones=None, seed=0):
    return SortedRun(
        keys=np.asarray(keys, dtype=np.int64),
        entries_per_page=entries_per_page,
        bits_per_entry=bits,
        tombstones=None if tombstones is None else np.asarray(tombstones, dtype=bool),
        seed=seed,
    )


class TestConstruction:
    def test_basic_properties(self):
        run = make_run(range(0, 40, 2))
        assert run.num_entries == 20
        assert run.num_pages == 5
        assert run.min_key == 0
        assert run.max_key == 38

    def test_rejects_unsorted_keys(self):
        with pytest.raises(ValueError):
            make_run([3, 1, 2])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            make_run([1, 1, 2])

    @pytest.mark.parametrize(
        "keys",
        [[1, 1], [5, 5, 6, 7], [1, 2, 3, 3], [2, 1, 3, 4], [1, 2, 4, 3], [1, 3, 3, 5, 7]],
        ids=["two equal", "equal at the front", "equal at the back",
             "descending at the front", "descending at the back", "equal inside"],
    )
    def test_the_one_comparison_validation_rejects_what_the_diff_did(self, keys):
        """``(keys[1:] > keys[:-1]).all()`` is ``np.diff(keys) > 0`` everywhere:
        same check, same error, on either run kind's shared constructor."""
        with pytest.raises(ValueError, match="^keys must be strictly increasing$"):
            make_run(keys)

    @given(st.lists(st.integers(-(2**61), 2**61), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_what_the_diff_expression_accepted(self, keys):
        """The old check is the reference wherever its subtraction cannot wrap."""
        array = np.asarray(keys, dtype=np.int64)
        if array.size > 1 and np.any(np.diff(array) <= 0):
            with pytest.raises(ValueError, match="strictly increasing"):
                make_run(array)
        else:
            assert make_run(array).num_entries == array.size

    @pytest.mark.parametrize("keys", [[], [7], [-(2**63), 2**63 - 1]])
    def test_sizes_zero_and_one_and_the_int64_extremes_are_accepted(self, keys):
        # The one difference: a comparison cannot overflow, where ``np.diff``
        # of two keys more than 2^63 apart wrapped negative and was refused.
        assert make_run(keys).keys.tolist() == keys

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            SortedRun(np.array([1, 2]), entries_per_page=0)

    def test_rejects_mismatched_tombstones(self):
        with pytest.raises(ValueError):
            make_run([1, 2, 3], tombstones=[True])

    def test_empty_run(self):
        run = make_run([])
        assert run.num_entries == 0
        assert run.num_pages == 0
        with pytest.raises(ValueError):
            _ = run.min_key

    def test_keys_view_is_read_only(self):
        run = make_run([1, 2, 3])
        with pytest.raises(ValueError):
            run.keys[0] = 99

    def test_filter_sized_by_bits_per_entry(self):
        small = make_run(range(100), bits=2.0)
        large = make_run(range(100), bits=16.0)
        assert large.filter_size_bits > small.filter_size_bits


class TestPointLookups:
    def test_lookup_finds_existing_key(self):
        run = make_run(range(0, 100, 2))
        found, tombstone, pages = run.lookup(42)
        assert found and not tombstone
        assert pages == 1

    def test_lookup_of_missing_key_out_of_range_costs_nothing(self):
        run = make_run(range(10, 20))
        found, _, pages = run.lookup(1_000)
        assert not found
        assert pages == 0

    def test_lookup_of_missing_key_in_range_costs_at_most_one_page(self):
        run = make_run(range(0, 100, 2), bits=0.0)  # no filter: always probes
        found, _, pages = run.lookup(41)
        assert not found
        assert pages == 1

    def test_bloom_filter_skips_most_missing_keys(self):
        run = make_run(range(0, 4_000, 2), bits=12.0)
        probes = range(1, 4_001, 2)
        total_pages = sum(run.lookup(key)[2] for key in probes)
        assert total_pages < 0.05 * len(list(probes))

    def test_tombstoned_key_reported(self):
        run = make_run([1, 2, 3], tombstones=[False, True, False])
        found, tombstone, _ = run.lookup(2)
        assert found and tombstone

    def test_page_of_uses_fence_pointers(self):
        run = make_run(range(0, 40), entries_per_page=10)
        assert run.page_of(0) == 0
        assert run.page_of(9) == 0
        assert run.page_of(10) == 1
        assert run.page_of(39) == 3

    @pytest.mark.parametrize("key", [-(2**63), -5, -1, 0, 2**63 - 1])
    def test_scalar_lookup_of_extreme_and_negative_keys_matches_batched(self, key):
        # ``lookup`` used to raise OverflowError on a negative key while
        # ``lookup_many`` answered: the filter probe now wraps both alike.
        keys = np.array([-(2**63), -5, -1, 3, 9, 2**63 - 1], dtype=np.int64)
        for bits in (0.0, 2.0, 8.0):
            run = SortedRun(keys, 2, bits, seed=1)
            found, tombstone, pages = run.lookup_many(np.array([key], dtype=np.int64))
            assert run.lookup(key) == (bool(found[0]), bool(tombstone[0]), pages)

    def test_may_contain_respects_key_range(self):
        run = make_run(range(10, 20))
        assert not run.may_contain(5)
        assert not run.may_contain(100)


def live_scan(run, start, end):
    """Live keys of ``scan_entries`` and the pages it charges."""
    keys, tombstones, pages = run.scan_entries(start, end)
    return keys[~tombstones], pages


class TestRangeScans:
    def test_scan_returns_keys_in_interval(self):
        run = make_run(range(0, 100, 2))
        keys, pages = live_scan(run, 10, 20)
        assert keys.tolist() == [10, 12, 14, 16, 18, 20]
        assert pages >= 1

    def test_scan_excludes_tombstones(self):
        run = make_run([1, 2, 3, 4], tombstones=[False, True, False, False])
        keys, _ = live_scan(run, 1, 4)
        assert keys.tolist() == [1, 3, 4]

    def test_scan_outside_range_costs_nothing(self):
        run = make_run(range(10, 20))
        keys, pages = live_scan(run, 100, 200)
        assert keys.size == 0
        assert pages == 0

    def test_scan_page_count_scales_with_interval(self):
        run = make_run(range(0, 1_000), entries_per_page=10)
        _, small = live_scan(run, 0, 9)
        _, large = live_scan(run, 0, 499)
        assert small == 1
        assert large == 50

    def test_empty_interval_with_no_matching_keys_still_seeks_one_page(self):
        run = make_run(range(0, 100, 10))
        keys, pages = live_scan(run, 41, 49)
        assert keys.size == 0
        assert pages == 1

    def test_inverted_interval_returns_nothing(self):
        run = make_run(range(10))
        keys, pages = live_scan(run, 5, 1)
        assert keys.size == 0
        assert pages == 0

    def test_scan_entries_against_a_brute_force_reference(self):
        # Slice and page count of every interval over a gappy run: the pages
        # are those of the entries inside, or — when none is — the one seek
        # page holding the predecessor of ``start``.
        keys = np.array([-40, -7, -6, 0, 3, 4, 5, 19, 20, 21, 22, 50, 90], dtype=np.int64)
        tombstones = np.arange(keys.size) % 3 == 0
        for entries_per_page in (1, 2, 4, 5, 32):
            run = make_run(keys, entries_per_page=entries_per_page, tombstones=tombstones)
            for start in range(-45, 96):
                for end in (start - 1, start, start + 1, start + 6, start + 60):
                    inside = np.flatnonzero((keys >= start) & (keys <= end))
                    if end < start or end < keys[0] or start > keys[-1]:
                        pages = 0
                    elif inside.size:
                        pages = inside[-1] // entries_per_page - inside[0] // entries_per_page + 1
                    else:
                        pages = 1
                    got_keys, got_tombstones, got_pages = run.scan_entries(start, end)
                    assert got_keys.tolist() == keys[inside].tolist()
                    assert got_tombstones.tolist() == tombstones[inside].tolist()
                    assert got_pages == pages


@pytest.fixture(params=["SortedRun", "SSTable"])
def run_of(request, tmp_path):
    """Builds either run kind from the same entries (4 per page, 8 bits)."""
    tables = []

    def build(keys, tombstones):
        keys = np.asarray(keys, dtype=np.int64)
        tombstones = np.asarray(tombstones, dtype=bool)
        if request.param == "SortedRun":
            return SortedRun(keys, 4, 8.0, tombstones)
        tables.append(
            SSTable.create(tmp_path / f"{len(tables)}.sst", keys, tombstones, 4, 8.0)
        )
        return tables[-1]

    yield build
    for table in tables:
        table.close()


class TestRunArraysAreImmutable:
    """A scan hands out views of the run, so nobody may write through them."""

    def test_nothing_a_run_hands_out_can_be_written(self, run_of):
        keys = np.arange(0, 60, 3)
        run = run_of(keys, keys % 2 == 0)
        scanned = run.scan_entries(10, 40)
        assert scanned[0].tolist() == list(range(12, 40, 3)) and scanned[2] == 3
        handed_out = [*scanned[:2], *run.entries(), run.keys, run.tombstones]
        for array in handed_out:
            assert array.size and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert run.keys.tolist() == keys.tolist()
        assert run.tombstones.tolist() == (keys % 2 == 0).tolist()

    @pytest.mark.parametrize(
        "interval,pages",
        [((100, 200), 0), ((-9, -1), 0), ((13, 14), 1), ((11, 11), 1), ((7, 3), 0)],
        ids=["above", "below", "gap-in-a-page", "gap-between-pages", "inverted"],
    )
    def test_a_scan_that_returns_nothing_returns_nothing_writable(
        self, run_of, interval, pages
    ):
        run = run_of(np.arange(0, 60, 3), np.zeros(20, dtype=bool))
        keys, tombstones, got_pages = run.scan_entries(*interval)
        assert got_pages == pages
        assert keys.dtype == np.int64 and tombstones.dtype == bool
        for array in (keys, tombstones):
            assert array.size == 0 and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 0

    def test_an_empty_run_scans_to_nothing_writable(self, run_of):
        run = run_of([], [])
        keys, tombstones, pages = run.scan_entries(-5, 5)
        assert (keys.size, tombstones.size, pages) == (0, 0, 0)
        assert not keys.flags.writeable and not tombstones.flags.writeable


def lexsort_reference(key_parts, tombstone_parts, drop_tombstones):
    """Newest-wins consolidation with an explicit recency rank per entry."""
    all_keys = np.concatenate(key_parts)
    all_tombstones = np.concatenate(tombstone_parts)
    recency = np.concatenate(
        [np.full(part.size, rank) for rank, part in enumerate(key_parts)]
    )
    order = np.lexsort((recency, all_keys))
    sorted_keys, sorted_tombstones = all_keys[order], all_tombstones[order]
    keep = np.ones(sorted_keys.size, dtype=bool)
    keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
    sorted_keys, sorted_tombstones = sorted_keys[keep], sorted_tombstones[keep]
    if drop_tombstones:
        return sorted_keys[~sorted_tombstones], sorted_tombstones[~sorted_tombstones]
    return sorted_keys, sorted_tombstones


class TestConsolidateVersions:
    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("drop_tombstones", [False, True])
    def test_equals_the_recency_ranked_reference(self, num_parts, drop_tombstones):
        rng = np.random.default_rng(100 * num_parts + drop_tombstones)
        for _ in range(25):
            # Forty possible keys, up to thirty per part: most keys have
            # several versions, a third of them tombstones.
            key_parts = [
                np.unique(rng.integers(-20, 20, size=rng.integers(0, 31)))
                for _ in range(num_parts)
            ]
            tombstone_parts = [rng.random(part.size) < 0.35 for part in key_parts]
            keys, tombstones = consolidate_versions(
                key_parts, tombstone_parts, drop_tombstones=drop_tombstones
            )
            want_keys, want_tombstones = lexsort_reference(
                key_parts, tombstone_parts, drop_tombstones
            )
            assert keys.dtype == want_keys.dtype and tombstones.dtype == bool
            assert keys.tolist() == want_keys.tolist()
            assert tombstones.tolist() == want_tombstones.tolist()

    def test_scan_versions_is_the_consolidation_of_the_collected_parts(self):
        system = simulator_system(num_entries=2_000)
        tree = LSMTree(LSMTuning(4.0, 6.0, Policy.TIERING), system)
        rng = np.random.default_rng(9)
        tree.bulk_load(np.arange(0, 4_000, 2))
        for key in rng.integers(0, 4_000, size=1_500).tolist():
            (tree.delete if key % 3 == 0 else tree.put)(key)
        assert sum(len(runs) for runs in tree.levels) > 3 and len(tree.memtable)
        for start, end in [(0, 4_000), (100, 160), (1_001, 1_001), (3_990, 5_000), (7, 3)]:
            parts = [tree.memtable.scan_items(start, end)] + [
                run.scan_entries(start, end)[:2] for runs in tree.levels for run in runs
            ]
            want_keys, want_tombstones = lexsort_reference(
                [keys for keys, _ in parts], [flags for _, flags in parts], False
            )
            before = tree.disk.counters.total
            keys, tombstones = tree.scan_versions(start, end)
            assert keys.tolist() == want_keys.tolist()
            assert tombstones.tolist() == want_tombstones.tolist()
            assert tree.disk.counters.total - before == sum(
                run.scan_entries(start, end)[2] for runs in tree.levels for run in runs
            )
            assert tree.range_query(start, end) == int(np.count_nonzero(~want_tombstones))


def consolidate_as_before(key_parts, tombstone_parts, drop_tombstones=False):
    """``consolidate_versions`` as it was before it learnt to skip work: every
    part concatenated, sorted, masked and copied, however many there are."""
    if not key_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    all_keys = np.concatenate(key_parts)
    all_tombstones = np.concatenate(tombstone_parts)
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    sorted_tombstones = all_tombstones[order]
    if sorted_keys.size:
        keep = np.ones(sorted_keys.size, dtype=bool)
        keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
        sorted_keys = sorted_keys[keep]
        sorted_tombstones = sorted_tombstones[keep]
    if drop_tombstones:
        live = ~sorted_tombstones
        sorted_keys = sorted_keys[live]
        sorted_tombstones = sorted_tombstones[live]
    return sorted_keys, sorted_tombstones


def _assert_consolidates_as_before(key_parts, tombstone_parts):
    for drop_tombstones in (False, True):
        keys, tombstones = consolidate_versions(
            key_parts, tombstone_parts, drop_tombstones=drop_tombstones
        )
        want_keys, want_tombstones = consolidate_as_before(
            key_parts, tombstone_parts, drop_tombstones
        )
        assert keys.dtype == np.int64 and tombstones.dtype == bool
        assert keys.tolist() == want_keys.tolist()
        assert tombstones.tolist() == want_tombstones.tolist()


def _part(entries: dict[int, bool]) -> tuple[np.ndarray, np.ndarray]:
    keys = sorted(entries)
    return (
        np.array(keys, dtype=np.int64),
        np.array([entries[key] for key in keys], dtype=bool),
    )


#: One sorted, unique part with tombstones; an empty dict is an empty part.
#: A narrow key range makes parts overlap, a wide one leaves them disjoint.
_PARTS = st.one_of(
    st.dictionaries(st.integers(-15, 15), st.booleans(), max_size=20),
    st.dictionaries(st.integers(-(2**63), 2**63 - 1), st.booleans(), max_size=6),
)


class TestConsolidationAgainstItsOldBody:
    @given(parts=st.lists(_PARTS, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_newest_first_parts_consolidate_as_before(self, parts):
        key_parts, tombstone_parts = zip(*(_part(part) for part in parts))
        _assert_consolidates_as_before(list(key_parts), list(tombstone_parts))

    def test_no_parts(self):
        keys, tombstones = consolidate_versions([], [])
        assert keys.dtype == np.int64 and tombstones.dtype == bool
        assert keys.size == tombstones.size == 0
        assert not keys.flags.writeable and not tombstones.flags.writeable

    def test_a_single_part_is_handed_back_as_it_is(self):
        keys, tombstones = _part({-3: False, 0: True, 8: False, 9: True})
        _assert_consolidates_as_before([keys], [tombstones])
        got_keys, got_tombstones = consolidate_versions([keys], [tombstones])
        assert got_keys is keys and got_tombstones is tombstones
        # Dropping tombstones filters into new arrays: a run's view stays whole.
        live_keys, live_tombstones = consolidate_versions(
            [keys], [tombstones], drop_tombstones=True
        )
        assert live_keys.tolist() == [-3, 8] and not live_tombstones.any()
        assert keys.size == 4

    def test_a_single_read_only_run_slice_goes_through(self):
        run = make_run([1, 2, 3, 4], tombstones=[False, True, False, True])
        keys, tombstones, _ = run.scan_entries(2, 4)
        _assert_consolidates_as_before([keys], [tombstones])

    def test_parts_without_a_common_key_interleave(self):
        parts = [_part({5: True, 1: False}), _part({}), _part({3: False, 2: True, 9: False})]
        key_parts, tombstone_parts = map(list, zip(*parts))
        _assert_consolidates_as_before(key_parts, tombstone_parts)
        keys, tombstones = consolidate_versions(key_parts, tombstone_parts)
        assert keys.tolist() == [1, 2, 3, 5, 9]
        assert tombstones.tolist() == [False, True, False, True, False]

    def test_one_shared_key_keeps_only_its_newest_version(self):
        parts = [_part({4: True, 7: False}), _part({4: False, 6: False})]
        key_parts, tombstone_parts = map(list, zip(*parts))
        _assert_consolidates_as_before(key_parts, tombstone_parts)
        keys, tombstones = consolidate_versions(key_parts, tombstone_parts)
        assert keys.tolist() == [4, 6, 7] and tombstones.tolist() == [True, False, False]

    def test_only_empty_parts(self):
        _assert_consolidates_as_before(*map(list, zip(_part({}), _part({}))))


_EDGE_KEYS = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])


class TestUniqueSorted:
    """The sort-and-mask dedupe is ``np.unique``, value for value and dtype for dtype."""

    @given(
        keys=st.lists(st.integers(-4, 4) | _EDGE_KEYS | st.integers(-(2**63), 2**63 - 1)),
        presorted=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique(self, keys, presorted):
        keys = np.array(sorted(keys) if presorted else keys, dtype=np.int64)
        given_keys = keys.copy()
        got, want = unique_sorted(keys), np.unique(keys)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()
        assert np.array_equal(keys, given_keys)  # the input is left as it was

    def test_empty_and_page_indices(self):
        for empty in (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp)):
            got = unique_sorted(empty)
            assert got.dtype == empty.dtype and got.size == 0
        pages = np.array([3, 3, 0, 7, 0, 3], dtype=np.intp)
        assert unique_sorted(pages).tolist() == [0, 3, 7]


def _consolidate(runs, drop_tombstones=False):
    """Newest-first consolidation of whole runs, as a compaction does it."""
    return consolidate_versions(
        [run.entries()[0] for run in runs],
        [run.entries()[1] for run in runs],
        drop_tombstones=drop_tombstones,
    )


class TestMerging:
    def test_consolidation_keeps_the_newest_version_of_a_duplicate(self):
        newer = make_run([1, 2, 3], tombstones=[False, True, False])
        older = make_run([2, 3, 4])
        keys, tombstones = _consolidate([newer, older])
        assert keys.tolist() == [1, 2, 3, 4]
        # Key 2 keeps the newer (tombstoned) version.
        assert tombstones.tolist() == [False, True, False, False]

    def test_consolidation_drops_tombstones_on_request(self):
        newer = make_run([1, 2], tombstones=[False, True])
        older = make_run([2, 3])
        keys, tombstones = _consolidate([newer, older], drop_tombstones=True)
        assert keys.tolist() == [1, 3]
        assert not tombstones.any()

    def test_consolidation_of_disjoint_runs_preserves_all_keys(self):
        keys, _ = _consolidate([make_run(range(0, 10)), make_run(range(10, 20))])
        assert keys.tolist() == list(range(20))

    def test_consolidation_of_nothing_is_empty(self):
        for parts in ([], [make_run([])]):
            keys, tombstones = _consolidate(parts)
            assert keys.dtype == np.int64 and keys.size == 0
            assert tombstones.dtype == bool and tombstones.size == 0

    def test_consolidation_is_sorted_unique_and_a_valid_run(self):
        rng = np.random.default_rng(5)
        runs = []
        for seed in range(4):
            keys = np.unique(rng.integers(0, 500, size=100))
            runs.append(make_run(keys, seed=seed))
        keys, tombstones = _consolidate(runs)
        assert np.all(np.diff(keys) > 0)
        merged = SortedRun(keys, entries_per_page=8, tombstones=tombstones)
        assert merged.num_entries == keys.size

    def test_constructor_takes_any_sorted_key_sequence(self):
        run = SortedRun([1, 5, 9], entries_per_page=2)
        assert run.num_entries == 3 and run.keys.dtype == np.int64


class TestBatchedLookup:
    def test_lookup_many_matches_scalar_lookups(self):
        rng = np.random.default_rng(9)
        keys = np.unique(rng.integers(0, 2_000, size=400))
        tombstones = rng.random(keys.size) < 0.2
        run = make_run(keys, tombstones=tombstones.tolist(), seed=4)
        probe = rng.integers(-50, 2_050, size=300).astype(np.int64)
        found, tombstone, pages = run.lookup_many(probe)
        scalar = [run.lookup(int(key)) for key in probe]
        assert found.tolist() == [s[0] for s in scalar]
        assert tombstone.tolist() == [s[1] for s in scalar]
        assert pages == sum(s[2] for s in scalar)

    def test_pages_charged_per_probe_not_per_unique_page(self):
        # Two gets landing on the same page must charge two reads, exactly
        # like two scalar lookups would.
        run = make_run(range(0, 8), entries_per_page=4, bits=64.0)
        _, _, pages = run.lookup_many(np.array([1, 2], dtype=np.int64))
        assert pages == 2

    def test_lookup_many_empty_inputs(self):
        run = make_run(range(10))
        found, tombstone, pages = run.lookup_many(np.array([], dtype=np.int64))
        assert found.size == 0 and tombstone.size == 0 and pages == 0
        empty = make_run([])
        found, tombstone, pages = empty.lookup_many(np.array([1, 2], dtype=np.int64))
        assert not found.any() and not tombstone.any() and pages == 0

    def test_out_of_bounds_probes_charge_nothing(self):
        run = make_run(range(100, 200))
        found, _, pages = run.lookup_many(np.array([5, 500], dtype=np.int64))
        assert not found.any()
        assert pages == 0
