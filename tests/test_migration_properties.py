"""Property tests for the incremental migration plan.

Three invariants pin the tentpole of the online-migration work:

* **I/O parity** — an incremental migration moves exactly the pages a full
  migration moves (reads sum to the source's resident pages, writes to the
  rebuilt tree's pages), for every step bound; incremental migration spreads
  the spike, it does not discount it.
* **Byte identity** — after the final step the migrated tree is
  indistinguishable from a fresh bulk load of the checkpoint under the same
  seed: level structure, per-run keys *and* per-run Bloom filter bits.
* **Interruptibility** — a plan stopped mid-flight (drift firing again, an
  operator pausing it) leaves a queryable mixed state that answers point and
  range lookups correctly — including writes applied *during* the
  migration — and resumes to the same final state.
"""

from __future__ import annotations

from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import CompactionPolicy, LSMTuning, Policy, simulator_system
from repro.online import MigrationInvariantError, MigrationPlan
from repro.storage import LSMTree
from repro.workloads import KeySpace

_SYSTEM = simulator_system(num_entries=3_000)
_KEYS = KeySpace.build(_SYSTEM.num_entries, seed=11).existing

#: (source tuning, target tuning) pairs crossing policies and size ratios.
_TUNING_PAIRS = [
    (LSMTuning(20.0, 8.0, Policy.LEVELING), LSMTuning(4.0, 6.0, Policy.TIERING)),
    (LSMTuning(6.0, 6.0, Policy.TIERING), LSMTuning(10.0, 8.0, Policy.LEVELING)),
    (
        LSMTuning(8.0, 7.0, Policy.LAZY_LEVELING),
        LSMTuning(5.0, 5.0, CompactionPolicy.fluid((3,), 1)),
    ),
    (
        LSMTuning(12.0, 8.0, Policy.LEVELING),
        LSMTuning(6.0, 7.0, Policy.LAZY_LEVELING),
    ),
    # Vector-bound target: migrating onto a per-level K_i ladder must hold
    # the same I/O-parity and byte-identity invariants as any scalar target.
    (
        LSMTuning(10.0, 8.0, Policy.LEVELING),
        LSMTuning(5.0, 6.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)),
    ),
]


def _loaded_tree(tuning: LSMTuning, seed: int = 5) -> LSMTree:
    tree = LSMTree(tuning, _SYSTEM, seed=seed)
    tree.bulk_load(_KEYS)
    tree.disk.reset()
    return tree


def _plan(source: LSMTree, target_tuning: LSMTuning, max_step_pages, seed=33):
    """A plan from a :func:`_loaded_tree`, whose checkpoint is every loaded key."""
    target = LSMTree(target_tuning, _SYSTEM, disk=source.disk, seed=seed)
    plan = MigrationPlan(source, target, max_step_pages=max_step_pages)
    assert np.array_equal(plan.checkpoint_keys, _KEYS)
    return plan, _KEYS


class TestIOParity:
    """Summed incremental I/O equals the full migration's, exactly."""

    @pytest.mark.parametrize("source_tuning,target_tuning", _TUNING_PAIRS)
    @pytest.mark.parametrize("max_step_pages", [None, 4, 16, 64])
    def test_step_totals_match_full_migration(
        self, source_tuning, target_tuning, max_step_pages
    ):
        source = _loaded_tree(source_tuning)
        plan, checkpoint = _plan(source, target_tuning, max_step_pages)

        # The full migration reads every resident source page and writes
        # every page of the freshly rebuilt tree.
        fresh = LSMTree(target_tuning, _SYSTEM, seed=33)
        fresh.bulk_load(checkpoint)
        assert plan.total_read_pages == source.resident_pages
        assert plan.total_write_pages == fresh.resident_pages

        # And the per-step charges on the live disk sum to those totals.
        before = source.disk.snapshot()
        plan.run_to_completion()
        delta = source.disk.counters.delta(before)
        assert delta.compaction_reads == plan.total_read_pages
        assert delta.compaction_writes == plan.total_write_pages

    @given(max_step_pages=st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_parity_holds_for_any_step_bound(self, max_step_pages):
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        target_tuning = LSMTuning(4.0, 6.0, Policy.TIERING)
        plan, checkpoint = _plan(source, target_tuning, max_step_pages)
        fresh = LSMTree(target_tuning, _SYSTEM, seed=33)
        fresh.bulk_load(checkpoint)
        assert plan.total_read_pages == source.resident_pages
        assert plan.total_write_pages == fresh.resident_pages
        # Every step respects the page bound on writes (reads are allocated
        # proportionally and may exceed it only by the rounding of one page).
        assert all(
            step.write_pages <= max_step_pages for step in plan.steps
        )


class TestByteIdentity:
    """The finished migration equals a fresh bulk load, run for run."""

    @pytest.mark.parametrize("source_tuning,target_tuning", _TUNING_PAIRS)
    @pytest.mark.parametrize("max_step_pages", [None, 8])
    def test_final_state_matches_fresh_bulk_load(
        self, source_tuning, target_tuning, max_step_pages
    ):
        source = _loaded_tree(source_tuning)
        plan, checkpoint = _plan(source, target_tuning, max_step_pages)
        plan.run_to_completion()

        fresh = LSMTree(target_tuning, _SYSTEM, seed=33)
        fresh.bulk_load(checkpoint)

        migrated = plan.target
        assert len(migrated.levels) == len(fresh.levels)
        for level_index, (got, want) in enumerate(zip(migrated.levels, fresh.levels)):
            assert len(got) == len(want), f"run count differs at level {level_index + 1}"
            for got_run, want_run in zip(got, want):
                assert np.array_equal(got_run.keys, want_run.keys)
                assert got_run.filter_size_bits == want_run.filter_size_bits
                assert np.array_equal(
                    got_run._filter.bit_table, want_run._filter.bit_table
                ), "Bloom assignments must be byte-identical"
        assert np.array_equal(migrated.memtable.sorted_items(), fresh.memtable.sorted_items())

    def test_checkpoint_invariant_guards_against_lost_keys(self):
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, _ = _plan(source, LSMTuning(4.0, 6.0, Policy.TIERING), None)
        # Simulate a planning bug: drop one placement's keys.
        level, piece = plan._placements[0]
        plan._placements = ((level, piece[:-1]),) + plan._placements[1:]
        with pytest.raises(MigrationInvariantError):
            plan.run_to_completion()


class TestInterruptibility:
    """A paused plan keeps serving correctly and resumes to the same end."""

    def _reference(self, checkpoint: np.ndarray) -> dict[int, bool]:
        return {int(k): True for k in checkpoint}

    def test_mixed_state_serves_reads_and_writes(self):
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, checkpoint = _plan(source, LSMTuning(4.0, 6.0, Policy.TIERING), 8)
        reference = self._reference(checkpoint)

        # Interrupt mid-flight: run only a third of the steps (a drift firing
        # mid-migration leaves the plan exactly like this).
        for _ in range(plan.num_steps // 3):
            plan.run_next_step()
        assert not plan.completed

        rng = np.random.default_rng(7)
        present = checkpoint.copy()
        # Writes during the pause — updates and new keys — land in the mixed
        # state.
        for key in rng.choice(present, size=50, replace=False):
            plan.put(int(key))
        fresh_keys = [int(2 * _SYSTEM.num_entries + i) for i in range(50)]
        for key in fresh_keys:
            plan.put(key)
            reference[key] = True

        probes = list(rng.choice(present, size=100, replace=False)) + fresh_keys[:10]
        for key in probes:
            assert plan.get(int(key)) == reference[int(key)], f"key {key}"

        # Range queries agree with the reference on live-key counts.
        for start in (int(checkpoint[0]), int(checkpoint[checkpoint.size // 2])):
            end = start + 400
            expected = sum(
                1 for key, live in reference.items() if live and start <= key <= end
            )
            assert plan.range_query(start, end) == expected

        # Resume to completion: the surviving tree still answers correctly.
        plan.run_to_completion()
        assert plan.completed
        migrated = plan.target
        for key in probes:
            assert migrated.get(int(key)) == reference[int(key)], f"key {key}"

    def test_interrupted_plan_is_resumable_to_byte_identity(self):
        """Pausing and resuming (without interleaved writes) converges to the
        same final state an uninterrupted plan reaches."""
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, checkpoint = _plan(source, LSMTuning(4.0, 6.0, Policy.TIERING), 8)
        plan.run_next_step()
        assert not plan.completed
        remaining = plan.run_to_completion()
        assert remaining == plan.num_steps - 1

        fresh = LSMTree(LSMTuning(4.0, 6.0, Policy.TIERING), _SYSTEM, seed=33)
        fresh.bulk_load(checkpoint)
        for got, want in zip(plan.target.levels, fresh.levels):
            assert len(got) == len(want)
            for got_run, want_run in zip(got, want):
                assert np.array_equal(got_run.keys, want_run.keys)

    def test_put_during_migration_wins_over_checkpoint_copy(self):
        """A key overwritten mid-migration must surface the new version even
        after its (older) checkpoint copy is installed by a later step."""
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, checkpoint = _plan(source, LSMTuning(4.0, 6.0, Policy.TIERING), 8)
        plan.run_next_step()
        victim = int(checkpoint[-1])  # placed by the deepest (first) steps
        survivor = int(checkpoint[0])  # placed by the very last steps
        plan.put(victim)
        plan.put(survivor)
        assert plan.get(victim) and plan.get(survivor)
        plan.run_to_completion()
        target = plan.target
        versions = np.concatenate(
            [target.memtable.sorted_items()] + [run.keys for runs in target.levels for run in runs]
        )
        for key in (victim, survivor):
            assert target.get(key)
            assert np.count_nonzero(versions == key) == 1

    def test_stale_checkpoint_copy_of_a_dirty_key_is_never_installed(self):
        """A key written mid-migration may have cascaded *below* the level
        its checkpoint copy is planned for; installing the stale copy above
        it would shadow the new version.  The plan drops the obsolete copy
        at install time instead, so it appears in no installed run."""
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, checkpoint = _plan(source, LSMTuning(4.0, 6.0, Policy.TIERING), 8)
        plan.run_next_step()
        # checkpoint[0] belongs to the shallowest placement — the very last
        # steps — so a write now precedes its install by the whole plan.
        dirty = int(checkpoint[0])
        plan.put(dirty)
        plan.run_to_completion()
        copies_in_runs = sum(
            int(np.count_nonzero(run.keys == dirty))
            for runs in plan.target.levels
            for run in runs
        )
        assert copies_in_runs == 0, "stale checkpoint copy must be dropped"
        assert plan.target.get(dirty)  # the mid-migration write survives

    def test_interrupted_vector_target_plan_serves_and_resumes(self):
        """The mixed state and resumability hold when the *target* carries a
        per-level K_i vector: reads and writes served mid-flight,
        then byte-identity against a fresh bulk load on completion."""
        target_tuning = LSMTuning(
            5.0, 6.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)
        )
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, checkpoint = _plan(source, target_tuning, 8)
        reference = self._reference(checkpoint)

        for _ in range(plan.num_steps // 2):
            plan.run_next_step()
        assert not plan.completed

        rng = np.random.default_rng(13)
        for key in rng.choice(checkpoint, size=30, replace=False):
            plan.put(int(key))
        fresh_keys = [int(2 * _SYSTEM.num_entries + i) for i in range(20)]
        for key in fresh_keys:
            plan.put(key)
            reference[key] = True
        probes = list(rng.choice(checkpoint, size=60, replace=False)) + fresh_keys
        for key in probes:
            assert plan.get(int(key)) == reference[int(key)], f"key {key}"

        plan.run_to_completion()
        migrated = plan.target
        for key in probes:
            assert migrated.get(int(key)) == reference[int(key)], f"key {key}"
        # The deployed tuning is the vector tuning, serialisable as such.
        assert migrated.tuning.k_bounds == (4.0, 2.0, 1.0)
        payload = migrated.tuning.to_dict()
        assert (payload["k_bounds"], payload["z_bound"]) == ([4.0, 2.0, 1.0], 1.0)

    def test_empty_checkpoint_plan_still_finalises(self):
        """A never-loaded tree migrates through one step that moves nothing
        and finalises the plan."""
        source = LSMTree(LSMTuning(6.0, 6.0, Policy.TIERING), _SYSTEM, seed=11)
        target_tuning = LSMTuning(4.0, 6.0, Policy.TIERING)
        target = LSMTree(target_tuning, _SYSTEM, disk=source.disk, seed=33)
        plan = MigrationPlan(source, target, max_step_pages=8)
        assert plan.checkpoint_keys.size == 0
        assert plan.num_steps == 1
        assert not plan.completed
        assert plan.total_read_pages == plan.total_write_pages == 0
        plan.run_to_completion()
        assert plan.completed
        assert source.disk.counters.total == 0
        assert target.num_entries == 0


class TestMixedStateScanEdges:
    """scan_versions edge shapes observed *through* a paused migration: point
    intervals, intervals overlapping no run on either side, and updates
    interleaved between the frozen source and the live target."""

    def _paused_plan(self):
        source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
        plan, checkpoint = _plan(source, LSMTuning(4.0, 6.0, Policy.TIERING), 8)
        for _ in range(plan.num_steps // 3):
            plan.run_next_step()
        assert not plan.completed
        return plan, checkpoint

    def test_point_interval_tracks_mid_plan_writes(self):
        plan, checkpoint = self._paused_plan()
        victim = int(checkpoint[checkpoint.size // 2])
        fresh = int(checkpoint[-1]) + 1_000
        assert plan.range_query(victim, victim) == 1
        assert plan.range_query(fresh, fresh) == 0
        plan.put(victim)  # the target's copy and the source's count once
        plan.put(fresh)
        assert plan.range_query(victim, victim) == 1
        assert plan.range_query(fresh, fresh) == 1

    def test_a_key_flushed_into_a_target_run_counts_once_through_point_interval(self):
        """The newer copy in a run of the target, the older in the source."""
        plan, checkpoint = self._paused_plan()
        victim = int(checkpoint[checkpoint.size // 4])
        plan.put(victim)
        fresh = count(int(checkpoint[-1]) + 1)
        while plan.target.memtable.holds(victim):
            plan.put(next(fresh))
        assert any(np.isin(victim, run.keys) for runs in plan.target.levels for run in runs)
        assert plan.range_query(victim, victim) == 1 and plan.get(victim)

    def test_interval_overlapping_neither_tree_is_empty(self):
        plan, checkpoint = self._paused_plan()
        beyond = int(checkpoint[-1]) + 10_000
        plan.source.disk.reset()
        assert plan.range_query(beyond, beyond + 500) == 0
        assert plan.source.disk.counters.total == 0

    def test_interleaved_updates_across_source_and_target(self):
        """A window where some keys are only in the source, some were updated
        in the target, and one twice — the count is the union, each key
        counted once."""
        plan, checkpoint = self._paused_plan()
        mid = checkpoint.size // 2
        window = checkpoint[mid : mid + 20]
        start, end = int(window[0]), int(window[-1])
        expected = int(
            np.count_nonzero((checkpoint >= start) & (checkpoint <= end))
        )
        updated = [int(window[1]), int(window[5]), int(window[9])]
        for key in updated + updated[:1]:
            plan.put(key)
        assert plan.range_query(start, end) == expected
        assert all(plan.get(key) for key in updated)

    def test_range_count_equals_a_brute_force_set_count(self):
        """Target-side updates — buffered and already flushed into target
        runs — over migrated and unmigrated source keys, repeated puts and
        brand-new keys: every window counts what a set of the keys counts."""
        plan, checkpoint = self._paused_plan()
        rng = np.random.default_rng(17)
        live = set(checkpoint.tolist())
        low, high = int(checkpoint[0]), int(checkpoint[-1])
        victims = rng.choice(checkpoint, size=400, replace=False).tolist()
        for key in victims + victims[::3] + rng.integers(low - 50, high + 50, size=150).tolist():
            plan.put(key)
            live.add(key)
        target = plan.target
        assert len(target.memtable) and any(
            np.isin(run.keys, victims).any() for runs in target.levels for run in runs
        )
        windows = [(low - 100, high + 100), (victims[0], victims[0]), (high + 60, high + 90)]
        for start in rng.integers(low, high, size=40).tolist():
            windows.append((start, start + int(rng.integers(0, (high - low) // 20))))
        for start, end in windows:
            want = sum(1 for key in live if start <= key <= end)
            assert plan.range_query(start, end) == want, (start, end)

