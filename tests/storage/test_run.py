"""Tests for immutable sorted runs (fence pointers, filters, merging)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.storage import LSMTree, SortedRun
from repro.storage.persistent import SSTable
from repro.storage.run import consolidate_versions, unique_sorted


def make_run(keys, bits=8.0, entries_per_page=4, seed=0):
    return SortedRun(
        keys=np.asarray(keys, dtype=np.int64),
        entries_per_page=entries_per_page,
        bits_per_entry=bits,
        seed=seed,
    )


class TestConstruction:
    def test_basic_properties(self):
        run = make_run(range(0, 40, 2))
        assert run.num_entries == 20
        assert run.num_pages == 5
        assert (run.keys[0], run.keys[-1]) == (0, 38)

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

    def test_rejects_keys_that_are_not_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            make_run(np.arange(6).reshape(2, 3))

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            SortedRun(np.array([1, 2]), entries_per_page=0)

    def test_empty_run(self):
        run = make_run([])
        assert run.num_entries == 0
        assert run.num_pages == 0
        assert run.keys.size == 0 and not run.may_contain(0)

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
        found, pages = run.lookup(42)
        assert found
        assert pages == 1

    @pytest.mark.parametrize("bits", [0.0, 8.0])
    def test_every_key_is_found_at_one_page(self, bits):
        run = make_run(range(-30, 30, 3), bits=bits)
        assert [run.lookup(int(key)) for key in run.keys] == [(True, 1)] * run.num_entries

    def test_lookup_of_missing_key_out_of_range_costs_nothing(self):
        run = make_run(range(10, 20))
        found, pages = run.lookup(1_000)
        assert not found
        assert pages == 0

    def test_lookup_of_missing_key_in_range_costs_at_most_one_page(self):
        run = make_run(range(0, 100, 2), bits=0.0)  # no filter: always probes
        found, pages = run.lookup(41)
        assert not found
        assert pages == 1

    def test_bloom_filter_skips_most_missing_keys(self):
        run = make_run(range(0, 4_000, 2), bits=12.0)
        probes = range(1, 4_001, 2)
        total_pages = sum(run.lookup(key)[1] for key in probes)
        assert total_pages < 0.05 * len(list(probes))

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
            found, pages = run.lookup_many(np.array([key], dtype=np.int64))
            assert run.lookup(key) == (bool(found[0]), pages)

    def test_may_contain_respects_key_range(self):
        run = make_run(range(10, 20))
        assert not run.may_contain(5)
        assert not run.may_contain(100)


class TestRangeScans:
    def test_scan_returns_keys_in_interval(self):
        run = make_run(range(0, 100, 2))
        keys, pages = run.scan_entries(10, 20)
        assert keys.tolist() == [10, 12, 14, 16, 18, 20]
        assert pages >= 1

    def test_scan_outside_range_costs_nothing(self):
        run = make_run(range(10, 20))
        keys, pages = run.scan_entries(100, 200)
        assert keys.size == 0
        assert pages == 0

    def test_scan_page_count_scales_with_interval(self):
        run = make_run(range(0, 1_000), entries_per_page=10)
        _, small = run.scan_entries(0, 9)
        _, large = run.scan_entries(0, 499)
        assert small == 1
        assert large == 50

    def test_empty_interval_with_no_matching_keys_still_seeks_one_page(self):
        run = make_run(range(0, 100, 10))
        keys, pages = run.scan_entries(41, 49)
        assert keys.size == 0
        assert pages == 1

    def test_inverted_interval_returns_nothing(self):
        run = make_run(range(10))
        keys, pages = run.scan_entries(5, 1)
        assert keys.size == 0
        assert pages == 0

    def test_scan_entries_against_a_brute_force_reference(self):
        # Slice and page count of every interval over a gappy run: the pages
        # are those of the entries inside, or — when none is — the one seek
        # page holding the predecessor of ``start``.
        keys = np.array([-40, -7, -6, 0, 3, 4, 5, 19, 20, 21, 22, 50, 90], dtype=np.int64)
        for entries_per_page in (1, 2, 4, 5, 32):
            run = make_run(keys, entries_per_page=entries_per_page)
            for start in range(-45, 96):
                for end in (start - 1, start, start + 1, start + 6, start + 60):
                    inside = np.flatnonzero((keys >= start) & (keys <= end))
                    if end < start or end < keys[0] or start > keys[-1]:
                        pages = 0
                    elif inside.size:
                        pages = inside[-1] // entries_per_page - inside[0] // entries_per_page + 1
                    else:
                        pages = 1
                    got_keys, got_pages = run.scan_entries(start, end)
                    assert got_keys.tolist() == keys[inside].tolist()
                    assert got_pages == pages


@pytest.fixture(params=["SortedRun", "SSTable"])
def run_of(request, tmp_path):
    """Builds either run kind from the same keys (4 per page, 8 bits)."""
    tables = []

    def build(keys):
        keys = np.asarray(keys, dtype=np.int64)
        if request.param == "SortedRun":
            return SortedRun(keys, 4, 8.0)
        tables.append(SSTable.create(tmp_path / f"{len(tables)}.sst", keys, 4, 8.0))
        return tables[-1]

    yield build
    for table in tables:
        table.close()


class TestRunArraysAreImmutable:
    """A scan hands out views of the run, so nobody may write through them."""

    def test_nothing_a_run_hands_out_can_be_written(self, run_of):
        keys = np.arange(0, 60, 3)
        run = run_of(keys)
        scanned, pages = run.scan_entries(10, 40)
        assert scanned.tolist() == list(range(12, 40, 3)) and pages == 3
        for array in (scanned, run.keys):
            assert array.size and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert run.keys.tolist() == keys.tolist()

    @pytest.mark.parametrize(
        "interval,pages",
        [((100, 200), 0), ((-9, -1), 0), ((13, 14), 1), ((11, 11), 1), ((7, 3), 0)],
        ids=["above", "below", "gap-in-a-page", "gap-between-pages", "inverted"],
    )
    def test_a_scan_that_returns_nothing_returns_nothing_writable(
        self, run_of, interval, pages
    ):
        run = run_of(np.arange(0, 60, 3))
        keys, got_pages = run.scan_entries(*interval)
        assert got_pages == pages
        assert keys.dtype == np.int64
        assert keys.size == 0 and not keys.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            keys[:] = 0

    def test_an_empty_run_scans_to_nothing_writable(self, run_of):
        run = run_of([])
        keys, pages = run.scan_entries(-5, 5)
        assert (keys.size, pages) == (0, 0)
        assert not keys.flags.writeable


def union_reference(key_parts):
    """Every key of the parts once, sorted: ``np.unique`` of their union."""
    return np.unique(np.concatenate(key_parts)) if key_parts else np.empty(0, dtype=np.int64)


#: Keys a part is drawn from: forty, so most keys have several versions; or
#: the whole ``int64`` range, its two ends in every draw.
_SPANS = {
    "dense": lambda rng, size: rng.integers(-20, 20, size=size),
    "int64": lambda rng, size: np.concatenate(
        [[-(2**63), 2**63 - 1], rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64)]
    ),
}


class TestConsolidateVersions:
    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("span", sorted(_SPANS))
    def test_equals_the_unique_union(self, num_parts, span):
        rng = np.random.default_rng(100 * num_parts)
        for _ in range(25):
            key_parts = [
                np.unique(_SPANS[span](rng, rng.integers(0, 31))) for _ in range(num_parts)
            ]
            keys = consolidate_versions(key_parts)
            want = union_reference(key_parts)
            assert keys.dtype == want.dtype
            assert keys.tolist() == want.tolist()

    def test_scan_versions_is_the_consolidation_of_the_collected_parts(self):
        system = simulator_system(num_entries=2_000)
        tree = LSMTree(LSMTuning(4.0, 6.0, Policy.TIERING), system)
        rng = np.random.default_rng(9)
        tree.bulk_load(np.arange(0, 4_000, 2))
        for key in rng.integers(0, 4_000, size=1_500).tolist():
            tree.put(key)
        assert sum(len(runs) for runs in tree.levels) > 3 and len(tree.memtable)
        for start, end in [(0, 4_000), (100, 160), (1_001, 1_001), (3_990, 5_000), (7, 3)]:
            parts = [tree.memtable.scan_items(start, end)] + [
                run.scan_entries(start, end)[0] for runs in tree.levels for run in runs
            ]
            want = union_reference(parts)
            before = tree.disk.counters.total
            assert tree.scan_versions(start, end).tolist() == want.tolist()
            assert tree.disk.counters.total - before == sum(
                run.scan_entries(start, end)[1] for runs in tree.levels for run in runs
            )
            assert tree.range_query(start, end) == want.size


def consolidate_as_before(key_parts):
    """``consolidate_versions`` as it was before it learnt to skip work: every
    part concatenated, sorted, masked and copied, however many there are."""
    if not key_parts:
        return np.empty(0, dtype=np.int64)
    all_keys = np.concatenate(key_parts)
    sorted_keys = all_keys[np.argsort(all_keys, kind="stable")]
    if sorted_keys.size:
        keep = np.ones(sorted_keys.size, dtype=bool)
        keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
        sorted_keys = sorted_keys[keep]
    return sorted_keys


def _assert_consolidates_as_before(key_parts):
    keys = consolidate_versions(key_parts)
    want = consolidate_as_before(key_parts)
    assert keys.dtype == np.int64
    assert keys.tolist() == want.tolist()


def _part(keys) -> np.ndarray:
    return np.array(sorted(keys), dtype=np.int64)


#: One sorted, unique part; an empty set is an empty part.  A narrow key
#: range makes parts overlap, a wide one leaves them disjoint.
_PARTS = st.one_of(
    st.sets(st.integers(-15, 15), max_size=20),
    st.sets(st.integers(-(2**63), 2**63 - 1), max_size=6),
)


class TestConsolidationAgainstItsOldBody:
    @given(parts=st.lists(_PARTS, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_newest_first_parts_consolidate_as_before(self, parts):
        _assert_consolidates_as_before([_part(part) for part in parts])

    def test_no_parts(self):
        keys = consolidate_versions([])
        assert keys.dtype == np.int64 and keys.size == 0
        assert not keys.flags.writeable

    def test_a_single_part_is_handed_back_as_it_is(self):
        keys = _part({-3, 0, 8, 9})
        _assert_consolidates_as_before([keys])
        assert consolidate_versions([keys]) is keys

    def test_a_single_read_only_run_slice_goes_through(self):
        keys, _ = make_run([1, 2, 3, 4]).scan_entries(2, 4)
        _assert_consolidates_as_before([keys])
        assert consolidate_versions([keys]) is keys

    def test_parts_without_a_common_key_interleave(self):
        key_parts = [_part({5, 1}), _part(()), _part({3, 2, 9})]
        _assert_consolidates_as_before(key_parts)
        assert consolidate_versions(key_parts).tolist() == [1, 2, 3, 5, 9]

    def test_one_shared_key_is_kept_once(self):
        key_parts = [_part({4, 7}), _part({4, 6})]
        _assert_consolidates_as_before(key_parts)
        assert consolidate_versions(key_parts).tolist() == [4, 6, 7]

    def test_only_empty_parts(self):
        _assert_consolidates_as_before([_part(()), _part(())])


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


def _consolidate(runs):
    """Consolidation of whole runs, as a compaction does it."""
    return consolidate_versions([run.keys for run in runs])


class TestMerging:
    def test_consolidation_keeps_a_duplicate_once(self):
        keys = _consolidate([make_run([1, 2, 3]), make_run([2, 3, 4])])
        assert keys.tolist() == [1, 2, 3, 4]

    def test_consolidation_does_not_depend_on_the_order_of_the_runs(self):
        rng = np.random.default_rng(6)
        runs = [make_run(np.unique(rng.integers(0, 60, size=30))) for _ in range(4)]
        want = _consolidate(runs).tolist()
        for order in ([3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
            assert _consolidate([runs[index] for index in order]).tolist() == want

    def test_consolidation_of_disjoint_runs_preserves_all_keys(self):
        keys = _consolidate([make_run(range(0, 10)), make_run(range(10, 20))])
        assert keys.tolist() == list(range(20))

    def test_consolidation_of_nothing_is_empty(self):
        for parts in ([], [make_run([])]):
            keys = _consolidate(parts)
            assert keys.dtype == np.int64 and keys.size == 0

    def test_consolidation_is_sorted_unique_and_a_valid_run(self):
        rng = np.random.default_rng(5)
        runs = []
        for seed in range(4):
            keys = np.unique(rng.integers(0, 500, size=100))
            runs.append(make_run(keys, seed=seed))
        keys = _consolidate(runs)
        assert np.all(np.diff(keys) > 0)
        merged = SortedRun(keys, entries_per_page=8)
        assert merged.num_entries == keys.size

    def test_constructor_takes_any_sorted_key_sequence(self):
        run = SortedRun([1, 5, 9], entries_per_page=2)
        assert run.num_entries == 3 and run.keys.dtype == np.int64


class TestBatchedLookup:
    def test_lookup_many_matches_scalar_lookups(self):
        rng = np.random.default_rng(9)
        keys = np.unique(rng.integers(0, 2_000, size=400))
        run = make_run(keys, seed=4)
        probe = rng.integers(-50, 2_050, size=300).astype(np.int64)
        found, pages = run.lookup_many(probe)
        scalar = [run.lookup(int(key)) for key in probe]
        assert found.tolist() == [s[0] for s in scalar]
        assert pages == sum(s[1] for s in scalar)

    def test_pages_charged_per_probe_not_per_unique_page(self):
        # Two gets landing on the same page must charge two reads, exactly
        # like two scalar lookups would.
        run = make_run(range(0, 8), entries_per_page=4, bits=64.0)
        _, pages = run.lookup_many(np.array([1, 2], dtype=np.int64))
        assert pages == 2

    def test_lookup_many_empty_inputs(self):
        run = make_run(range(10))
        found, pages = run.lookup_many(np.array([], dtype=np.int64))
        assert found.size == 0 and pages == 0
        empty = make_run([])
        found, pages = empty.lookup_many(np.array([1, 2], dtype=np.int64))
        assert not found.any() and pages == 0

    def test_out_of_bounds_probes_charge_nothing(self):
        run = make_run(range(100, 200))
        found, pages = run.lookup_many(np.array([5, 500], dtype=np.int64))
        assert not found.any()
        assert pages == 0
