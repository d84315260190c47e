"""Tests for the simulated LSM tree (structure, queries, compaction, I/O).

What a tree answers on random streams — ``get``, ``get_many`` against per-key
``get``, ``range_query`` — ``tests/test_engine_machine.py`` checks against an
oracle; the cases here pin those reads on small hand-built trees.
"""

import itertools
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import MigrationPlan
from repro.storage import LSMTree, MemoryStore
from repro.storage.persistent import FileStore


def make_tree(policy=Policy.LEVELING, size_ratio=4.0, bits=6.0, num_entries=4_000):
    system = simulator_system(num_entries=num_entries)
    tuning = LSMTuning(size_ratio=size_ratio, bits_per_entry=bits, policy=policy)
    return LSMTree(tuning, system)


class TestConstruction:
    def test_size_ratio_is_rounded_for_deployment(self):
        system = simulator_system(num_entries=2_000)
        tuning = LSMTuning(size_ratio=4.6, bits_per_entry=3.0, policy=Policy.LEVELING)
        tree = LSMTree(tuning, system)
        assert tree.size_ratio == 5

    def test_buffer_holds_at_least_one_page(self):
        tree = make_tree()
        assert tree.buffer_entries >= tree.entries_per_page

    def test_level_capacities_grow_exponentially(self):
        tree = make_tree(size_ratio=4.0)
        assert tree.level_capacity_entries(3) == 4 * tree.level_capacity_entries(2)

    def test_level_capacity_rejects_level_zero(self):
        with pytest.raises(ValueError):
            make_tree().level_capacity_entries(0)


class TestWritesAndCompaction:
    def test_puts_accumulate_in_memtable_until_full(self):
        tree = make_tree()
        for key in range(tree.buffer_entries - 1):
            tree.put(key)
        assert tree.disk.counters.total == 0  # nothing flushed yet
        assert len(tree.memtable) == tree.buffer_entries - 1

    def test_flush_writes_pages_and_empties_memtable(self):
        tree = make_tree()
        for key in range(tree.buffer_entries):
            tree.put(key)
        assert tree.memtable.is_empty
        assert tree.disk.counters.flush_writes > 0

    def test_leveling_keeps_at_most_one_run_per_level(self):
        tree = make_tree(policy=Policy.LEVELING, size_ratio=3.0)
        for key in range(12 * tree.buffer_entries):
            tree.put(key * 7)
        assert all(len(runs) <= 1 for runs in tree.levels)

    def test_tiering_keeps_fewer_than_t_runs_per_level(self):
        tree = make_tree(policy=Policy.TIERING, size_ratio=4.0)
        for key in range(20 * tree.buffer_entries):
            tree.put(key * 3)
        assert all(len(runs) < tree.size_ratio for runs in tree.levels)

    def test_no_entries_lost_through_compactions(self):
        tree = make_tree(policy=Policy.LEVELING, size_ratio=3.0)
        keys = [int(k) for k in np.random.default_rng(1).permutation(3_000)]
        for key in keys:
            tree.put(key)
        assert tree.num_entries == len(set(keys))

    def test_tiering_writes_fewer_compaction_pages_than_leveling(self):
        leveled = make_tree(policy=Policy.LEVELING, size_ratio=4.0)
        tiered = make_tree(policy=Policy.TIERING, size_ratio=4.0)
        for key in range(8_000):
            leveled.put(key)
            tiered.put(key)
        leveled_io = leveled.disk.counters.compaction_writes
        tiered_io = tiered.disk.counters.compaction_writes
        assert tiered_io < leveled_io

    def test_an_update_survives_flush(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 1_000))
        tree.put(500)
        tree.flush()
        assert tree.get(500)
        assert tree.range_query(0, 999) == 1_000

    def test_updates_through_compactions_count_each_key_once(self):
        tree = make_tree(policy=Policy.TIERING, size_ratio=3.0)
        keys = np.random.default_rng(2).integers(0, 400, size=3_000).tolist()
        for key in keys:
            tree.put(key)
        assert tree.disk.counters.compaction_writes > 0
        assert tree.range_query(0, 400) == len(set(keys))
        assert tree.get_many(np.array(sorted(set(keys)), dtype=np.int64)).all()

    def test_explicit_flush_of_empty_memtable_is_noop(self):
        tree = make_tree()
        tree.flush()
        assert tree.disk.counters.total == 0


class TestReads:
    def test_get_finds_bulk_loaded_keys(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 2_000, 2))
        assert tree.get(100)
        assert tree.get(1_998)

    def test_get_missing_key_returns_false(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 2_000, 2))
        assert not tree.get(101)

    def test_get_reads_at_most_one_page_per_run(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 2_000, 2))
        tree.disk.reset()
        tree.get(100)
        total_runs = sum(len(runs) for runs in tree.levels)
        assert tree.disk.counters.query_reads <= total_runs

    def test_memtable_hits_cost_no_io(self):
        tree = make_tree()
        tree.put(7)
        tree.disk.reset()
        assert tree.get(7)
        assert tree.disk.counters.total == 0

    def test_bloom_filters_save_io_on_empty_reads(self):
        with_filters = make_tree(bits=10.0)
        without_filters = make_tree(bits=0.0)
        keys = np.arange(0, 4_000, 2)
        with_filters.bulk_load(keys)
        without_filters.bulk_load(keys)
        with_filters.disk.reset()
        without_filters.disk.reset()
        probes = range(1, 2_001, 2)
        for key in probes:
            with_filters.get(key)
            without_filters.get(key)
        assert (
            with_filters.disk.counters.query_reads
            < without_filters.disk.counters.query_reads
        )

    def test_range_query_returns_live_key_count(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 1_000))
        assert tree.range_query(100, 149) == 50

    def test_range_query_counts_recent_writes(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 1_000, 2))
        tree.put(501)
        assert tree.range_query(500, 502) == 3

    def test_range_query_charges_io(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 2_000))
        tree.disk.reset()
        tree.range_query(0, 400)
        assert tree.disk.counters.query_reads >= 400 // tree.entries_per_page

    def test_inverted_range_is_empty(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 100))
        assert tree.range_query(50, 10) == 0

    def test_updated_key_remains_visible_once(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 100))
        tree.put(50)  # update existing key
        assert tree.get(50)
        assert tree.range_query(50, 50) == 1

    def test_range_query_counts_buffered_updates_of_deeper_keys_once(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 1_000))
        tree.put(100)
        tree.put(105)
        assert tree.range_query(100, 109) == 10

    def test_scan_versions_holds_each_key_once(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 100, 2))
        tree.put(10)
        tree.put(11)
        assert tree.scan_versions(10, 12).tolist() == [10, 11, 12]


class TestScanVersionsEdges:
    """Dedup under hostile layouts: versions of one key spread across the
    memtable and several runs, point intervals (``start_key == end_key``),
    and intervals overlapping no run."""

    def _interleaved_tree(self):
        """Four on-disk runs plus a live memtable, with keys 10/11/12 written
        again at different depths:

        * key 10 — in bulk, updated in run A and again in run B;
        * key 11 — absent from bulk, put in run A, updated in the memtable;
        * key 12 — in bulk, updated in run B.
        """
        tree = make_tree(policy=Policy.TIERING, size_ratio=4.0)
        tree.bulk_load(np.arange(0, 200, 2))
        tree.put(10)
        tree.put(11)
        tree.flush()  # run A
        tree.put(10)
        tree.put(12)
        tree.flush()  # run B, newer than A
        tree.put(11)  # memtable, newest of all
        assert sum(len(runs) for runs in tree.levels) >= 4
        return tree

    def test_interleaved_versions_count_once(self):
        tree = self._interleaved_tree()
        assert tree.scan_versions(8, 14).tolist() == [8, 10, 11, 12, 14]
        assert tree.range_query(8, 14) == 5

    def test_point_interval_returns_the_key_once(self):
        tree = self._interleaved_tree()
        for key in (10, 11, 12):
            assert tree.scan_versions(key, key).tolist() == [key]
            assert tree.range_query(key, key) == 1

    def test_point_interval_on_missing_key_is_empty(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 100, 2))
        assert tree.scan_versions(13, 13).size == 0

    def test_interval_overlapping_no_run_is_empty_and_free(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 1_000))
        tree.disk.reset()
        assert tree.scan_versions(50_000, 60_000).size == 0
        assert tree.disk.counters.total == 0

    def test_memtable_only_tree_scans_without_io(self):
        tree = make_tree()
        for key in (7, 3, 5):
            tree.put(key)
        assert tree.scan_versions(0, 10).tolist() == [3, 5, 7]
        assert tree.disk.counters.total == 0


class TestBulkLoadAndStats:
    def test_bulk_load_places_all_entries(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 3_000))
        assert tree.num_entries == 3_000

    def test_bulk_load_charges_no_io(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 3_000))
        assert tree.disk.counters.total == 0

    def test_bulk_load_deduplicates(self):
        tree = make_tree()
        tree.bulk_load(np.array([1, 1, 2, 2, 3]))
        assert tree.num_entries == 3

    def test_stats_reflect_structure(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 3_000))
        stats = tree.stats()
        assert stats.num_entries == 3_000
        assert stats.num_levels == len(tree.levels)
        assert sum(stats.entries_per_level) + stats.memtable_entries == 3_000

    def test_stats_report_filter_memory(self):
        tree = make_tree(bits=8.0)
        tree.bulk_load(np.arange(0, 3_000))
        assert tree.stats().filter_memory_bits > 0

    def test_deeper_levels_hold_more_entries(self):
        tree = make_tree()
        tree.bulk_load(np.arange(0, 4_000))
        entries = [e for e in tree.stats().entries_per_level if e > 0]
        assert entries == sorted(entries)

    def test_fill_fractions_follow_the_merge_behaviour(self):
        """Leveled levels load with headroom, run-stacking levels full."""

        def loads_full(policy, level, deepest=4):
            tree = make_tree(policy=policy)
            capacity = tree.level_capacity_entries(level)
            loaded = tree._bulk_load_level_capacity(level, deepest)
            assert loaded in (capacity, int(tree.BULK_LOAD_FILL_FRACTION * capacity))
            return loaded == capacity

        assert not loads_full(Policy.LEVELING, 1)
        assert loads_full(Policy.TIERING, 1)
        assert loads_full(Policy.LAZY_LEVELING, 2)
        assert not loads_full(Policy.LAZY_LEVELING, 4)


class TestLazyLeveling:
    def test_largest_level_keeps_a_single_run(self):
        tree = make_tree(policy=Policy.LAZY_LEVELING, size_ratio=4.0)
        for key in range(20 * tree.buffer_entries):
            tree.put(key * 3)
        occupied = [i for i, runs in enumerate(tree.levels) if runs]
        assert occupied, "the tree should hold disk-resident data"
        assert len(tree.levels[occupied[-1]]) == 1

    def test_upper_levels_stack_runs_like_tiering(self):
        tree = make_tree(policy=Policy.LAZY_LEVELING, size_ratio=4.0)
        max_upper_runs = 0
        for key in range(20 * tree.buffer_entries):
            tree.put(key * 3)
            for runs in tree.levels[:-1]:
                max_upper_runs = max(max_upper_runs, len(runs))
        assert max_upper_runs > 1  # genuinely tiered above the last level
        assert all(len(runs) < tree.size_ratio for runs in tree.levels)

    def test_no_entries_lost_through_compactions(self):
        tree = make_tree(policy=Policy.LAZY_LEVELING, size_ratio=3.0)
        keys = [int(k) for k in np.random.default_rng(3).permutation(3_000)]
        for key in keys:
            tree.put(key)
        assert tree.num_entries == len(set(keys))

    def test_compaction_traffic_sits_between_the_classical_policies(self):
        trees = {
            policy: make_tree(policy=policy, size_ratio=4.0)
            for policy in (Policy.LEVELING, Policy.TIERING, Policy.LAZY_LEVELING)
        }
        for key in range(10_000):
            for tree in trees.values():
                tree.put(key)
        writes = {
            policy: tree.disk.counters.compaction_writes
            for policy, tree in trees.items()
        }
        assert writes[Policy.LAZY_LEVELING] > 0
        assert (
            writes[Policy.TIERING]
            < writes[Policy.LAZY_LEVELING]
            < writes[Policy.LEVELING]
        )

    def test_reads_behave(self):
        tree = make_tree(policy=Policy.LAZY_LEVELING)
        tree.bulk_load(np.arange(0, 2_000, 2))
        assert tree.get(100)
        assert not tree.get(101)
        assert tree.range_query(200, 299) == 50

    def test_bulk_load_matches_policy_steady_state(self):
        tree = make_tree(policy=Policy.LAZY_LEVELING, size_ratio=4.0)
        tree.bulk_load(np.arange(0, 6_000))
        occupied = [i for i, runs in enumerate(tree.levels) if runs]
        assert len(tree.levels[occupied[-1]]) == 1  # leveled largest level
        assert tree.num_entries == 6_000

    def test_single_level_tree_behaves_like_leveling(self):
        lazy = make_tree(policy=Policy.LAZY_LEVELING, size_ratio=50.0, num_entries=2_000)
        leveled = make_tree(policy=Policy.LEVELING, size_ratio=50.0, num_entries=2_000)
        for key in range(4 * lazy.buffer_entries):
            lazy.put(key)
            leveled.put(key)
        assert lazy.stats().runs_per_level == leveled.stats().runs_per_level
        assert (
            lazy.disk.counters.compaction_writes
            == leveled.disk.counters.compaction_writes
        )


class TestBloomSeedAllocation:
    """Every run — built or merged away before it was — takes the next id.

    Regression: ``_merge_runs`` used to read ``_seed + _run_counter`` before
    incrementing, while a flushed run incremented first — so a merged run
    reused the Bloom hash seed of the most recently created run, correlating
    the two filters' false positives.
    """

    def test_consecutive_runs_get_distinct_seeds(self):
        store = _RecordingStore(lambda: tree)
        system = simulator_system(num_entries=4_000)
        tree = LSMTree(LSMTuning(4.0, 6.0, Policy.LEVELING), system, seed=40, store=store)
        for key in range(2 * tree.buffer_entries):
            tree.put(key)
        built = [call[1:] for call in store.calls if call[0] == "create_run"]
        # The second flush merged into the first run: its memtable took id 2
        # without being built, and the merge's output is run 3, seeded as 3.
        assert built == [(1, 41), (3, 43)]
        assert tree._run_counter == 3
        assert [run._filter.seed for run in tree.levels[0]] == [43]

    def test_all_live_run_seeds_are_pairwise_distinct(self):
        tree = make_tree(policy=Policy.TIERING, size_ratio=3.0, num_entries=2_000)
        for key in range(0, 6_000, 2):
            tree.put(key)
        seeds = [
            run._filter.seed for runs in tree.levels for run in runs
        ]
        assert len(tree.levels) >= 2  # compactions actually cascaded
        assert len(seeds) == len(set(seeds))


class _RecordingStore(MemoryStore):
    """In-memory store that writes down every call the tree makes."""

    def __init__(self, tree_of):
        self.calls, self.tree_of = [], tree_of

    def create_run(self, keys, run_id, entries_per_page, bits_per_entry, seed):
        self.calls.append(("create_run", run_id, seed))
        return super().create_run(keys, run_id, entries_per_page, bits_per_entry, seed)

    def log(self, key):
        self.calls.append(("log", key, self.tree_of().memtable.holds(key)))

    def commit(self, levels, run_counter, buffered):
        tree = self.tree_of()
        assert levels is tree.levels and run_counter == tree._run_counter
        self.calls.append(("commit", None if buffered is None else list(buffered)))


class TestRunStoreProtocol:
    """What the tree asks of its store, observed through a fake."""

    def test_calls_of_writes_structure_changes_and_reads(self):
        system = simulator_system(num_entries=4_000)
        store = _RecordingStore(lambda: tree)
        tree = LSMTree(LSMTuning(4.0, 6.0, Policy.LEVELING), system, seed=40, store=store)
        tree.put(5)
        tree.put(5)
        # One log per write, made before the memtable changed.
        assert store.calls == [("log", 5, False), ("log", 5, True)]
        store.calls.clear()
        tree.flush()
        tree.install_bulk_run(np.arange(10, 20), level=2)
        tree.bulk_load(np.arange(100, 110))
        # Run ids count 1, 2, 3 … and seed the filter with ``seed + run_id``;
        # every structure change commits once (a bulk load, once for all the
        # runs it places), saying what the log must hold.
        assert store.calls == [
            ("create_run", 1, 41), ("commit", []),
            ("create_run", 2, 42), ("commit", None),
            ("create_run", 3, 43), ("commit", []),
        ]
        store.calls.clear()
        tree.get(5), tree.get_many(np.arange(0, 200)), tree.range_query(0, 200)
        assert store.calls == []


class TestBatchedGets:
    def test_get_many_matches_scalar_gets_and_io(self):
        rng = np.random.default_rng(17)
        scalar = make_tree(num_entries=2_000)
        batched = make_tree(num_entries=2_000)
        resident = np.arange(0, 4_000, 2)
        updates = rng.choice(resident, size=30, replace=False)
        puts = rng.integers(10_000, 12_000, size=200)
        for tree in (scalar, batched):
            tree.bulk_load(resident)
            for key in updates:
                tree.put(int(key))
            for key in puts:
                tree.put(int(key))
            tree.disk.reset()
        probe = np.concatenate(
            [rng.choice(resident, size=60), rng.integers(1, 4_000, size=40) * 2 - 1]
        ).astype(np.int64)
        expected = np.array([scalar.get(int(key)) for key in probe])
        answers = batched.get_many(probe)
        assert np.array_equal(answers, expected)
        assert batched.disk.counters == scalar.disk.counters

    def test_get_many_empty_batch_is_free(self):
        tree = make_tree()
        tree.bulk_load(np.arange(100))
        tree.disk.reset()
        assert tree.get_many(np.array([], dtype=np.int64)).size == 0
        assert tree.disk.counters.total == 0

    def test_memtable_hits_charge_no_io(self):
        tree = make_tree()
        tree.put(7)
        tree.disk.reset()
        answers = tree.get_many(np.array([7, 9], dtype=np.int64))
        assert answers.tolist() == [True, False]
        assert tree.disk.counters.total == 0


_SMALL_KEY = st.integers(-12, 12)
#: One part's keys: a run's, or the buffer's.
_VERSIONS = st.sets(_SMALL_KEY, max_size=10)
#: Levels of up to three runs each; a level may be empty, and so may the tree.
_LEVELS = st.lists(st.lists(_VERSIONS, max_size=3), max_size=3)
#: Interval ends: among the keys, between them, past them, and int64's own.
_BOUND = _SMALL_KEY | st.sampled_from([-(2**63), 2**63 - 1])


def _install(tree: LSMTree, levels: list, buffered: dict) -> None:
    """Give ``tree`` runs of ``levels``' versions, created on its own store,
    and a buffer holding ``buffered``."""
    run_ids = itertools.count(1)
    tree.levels = []
    for runs in levels:
        tree.levels.append([])
        for versions in runs:
            keys = np.array(sorted(versions), dtype=np.int64)
            tree.levels[-1].append(tree.store.create_run(keys, next(run_ids), 2, 0.0, 0))
    for key in buffered:
        tree.memtable.put(key)


class TestRangeCharge:
    """A replayed range is charged its pages and nothing else: one batch, one
    range at a time and the answering ``range_query`` charge the same."""

    @pytest.mark.parametrize("kind", ["memory", "files", "mid-migration"])
    @given(
        levels=_LEVELS,
        source_levels=_LEVELS,
        buffered=_VERSIONS,
        intervals=st.lists(st.tuples(_BOUND, _BOUND), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_path_charges_the_scans_pages(
        self, kind, levels, source_levels, buffered, intervals
    ):
        """Inverted and empty intervals, ends at int64's bounds, empty levels
        and runs, a tree with none: each path is charged exactly what
        ``scan_entries`` counts, run by run and range by range."""
        with tempfile.TemporaryDirectory() as root:
            store = FileStore(root) if kind == "files" else None
            system = simulator_system(4_000)
            tree = LSMTree(LSMTuning(4.0, 6.0, Policy.TIERING), system, store=store)
            try:
                _install(tree, levels, buffered)
                engine, trees = tree, [tree]
                if kind == "mid-migration":
                    source = LSMTree(LSMTuning(6.0, 6.0, Policy.LEVELING), system, tree.disk)
                    _install(source, source_levels, set())
                    engine = MigrationPlan(source, tree)
                    trees.append(source)
                    assert not engine.completed
                want = sum(
                    run.scan_entries(start, end)[1]
                    for start, end in intervals
                    for each in trees
                    for runs in each.levels
                    for run in runs
                )
                starts = np.array([start for start, _ in intervals], dtype=np.int64)
                ends = np.array([end for _, end in intervals], dtype=np.int64)
                paths = [
                    lambda: engine.charge_ranges(starts, ends),
                    lambda: [engine.charge_range(*each) for each in intervals],
                    lambda: [engine.range_query(*each) for each in intervals],
                ]
                for charge in paths:
                    before = tree.disk.snapshot()
                    charge()
                    delta = tree.disk.counters.delta(before)
                    assert delta.query_reads == delta.total == want
            finally:
                tree.close()
