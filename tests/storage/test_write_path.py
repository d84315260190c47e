"""A flush builds the one run its cascade ends in — and nothing else moved.

``LSMTree.flush`` plans its whole cascade on entries, builds what comes to
rest and only then touches the levels.  Two things are pinned here: that no
run is created which the flush does not leave resident (*created ==
resident*), and that the runs which are created are exactly the ones the
build-everything-on-the-way engine left — same ids, same file names, same
page counters, same contents — and that every key then reads as the trace
last wrote it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.lsm import CompactionPolicy, LSMTuning, Policy, simulator_system
from repro.storage import FileStore, LSMTree, MemoryStore, VirtualDisk
from repro.storage.executor import tree_fingerprint

_SYSTEM = simulator_system(num_entries=2_000)

#: The four named policies and one fluid k-vector, each with what the trace
#: of :func:`_writes` leaves: the final run counter (every merge on the way
#: takes an id, built or not), the five ``IOCounters``, the run ids level by
#: level, the first 16 hex digits of ``tree_fingerprint`` and those of
#: :func:`_filter_digest`.  The tiering and
#: 1-leveling rows keep the tombstones a merge into a level that keeps older
#: runs beside it must not drop (they read 18 and 15 keys wrongly before).
_GOLDEN = {
    "leveling": (
        LSMTuning(5.0, 5.0, Policy.LEVELING),
        295, (0, 0, 1723, 1568, 298), [[295], [290], [261]], "bcae1e00914b45e1",
        "2df4f2634273efd3",
    ),
    "tiering": (
        LSMTuning(5.0, 5.0, Policy.TIERING),
        184, (0, 0, 654, 508, 298),
        [[184, 183, 182, 181], [180, 174, 168, 162], [], [156]], "c5bff69e0173a88a",
        "526a3e333d3a298e",
    ),
    "lazy-leveling": (
        LSMTuning(4.0, 6.0, Policy.LAZY_LEVELING),
        198, (0, 0, 889, 725, 298), [[], [198], [], [193]], "243db9ed3144fca6",
        "2f68fba947c1de36",
    ),
    "one-leveling": (
        LSMTuning(4.0, 6.0, Policy.ONE_LEVELING),
        272, (0, 0, 993, 872, 298), [[], [272], [265], [236, 119]], "58f1c8b9c98a3563",
        "97a92631a2b6abd3",
    ),
    "fluid-kvec": (
        LSMTuning(5.0, 5.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1)),
        191, (0, 0, 950, 796, 298), [[191, 190, 189], [188], [169]], "abc4d6af38957a96",
        "97f067d802af07f0",
    ),
}

#: Flushes the trace triggers (the buffer holds six entries here).
_FLUSHES = 149


def _writes(seed: int = 20, num_ops: int = 900) -> list[tuple[bool, int]]:
    """``(is_delete, key)`` rows over a small key domain: updates abound."""
    rng = np.random.default_rng(seed)
    deletes = rng.random(num_ops) < 0.15
    keys = rng.integers(0, 1_200, size=num_ops)
    return list(zip(deletes.tolist(), keys.tolist()))


def _filter_digest(tree: LSMTree) -> str:
    """sha256 of every resident run's packed bit table, level by level.

    Pins the filters the engine builds — per-level Monkey bits, ``seed + run
    id`` and merged contents — which no page counter reads when no query ran.
    """
    digest = hashlib.sha256()
    for runs in tree.levels:
        digest.update(b"level")
        for run in runs:
            digest.update(run.bloom_filter.bit_table.tobytes())
    return digest.hexdigest()


def _apply(tree: LSMTree, is_delete: bool, key: int) -> None:
    (tree.delete if is_delete else tree.put)(key)


class _CountingStore(MemoryStore):
    """In-memory store that keeps every run it creates and counts commits."""

    def __init__(self) -> None:
        self.created: list = []
        self.commits = 0

    def create_run(self, *args, **kwargs):
        run = super().create_run(*args, **kwargs)
        self.created.append(run)
        return run

    def commit(self, levels, run_counter, buffered) -> None:
        self.commits += 1


@pytest.mark.parametrize("policy", _GOLDEN)
class TestCreatedIsResident:
    def test_every_run_a_flush_creates_is_in_the_levels_when_it_returns(self, policy):
        tuning, run_counter, *_ = _GOLDEN[policy]
        store = _CountingStore()
        tree = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=3, store=store)
        for is_delete, key in _writes():
            before = len(store.created)
            _apply(tree, is_delete, key)
            resident = {id(run) for runs in tree.levels for run in runs}
            assert all(id(run) in resident for run in store.created[before:])
        # One run per flush — under leveling and, as the cascade only ever
        # carries one run down, under every other policy too — while the
        # counter advanced past every run the old engine built on the way.
        assert store.commits == _FLUSHES
        assert len(store.created) == _FLUSHES
        assert tree._run_counter == run_counter

    def test_compaction_off_builds_what_it_installs(self, policy):
        tuning = _GOLDEN[policy][0]
        store = _CountingStore()
        tree = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=3, store=store)
        tree.compaction_enabled = False
        for is_delete, key in _writes(num_ops=120):
            _apply(tree, is_delete, key)
        assert tree.levels == [store.created[::-1]]  # newest first, all at level 1
        assert tree._run_counter == len(store.created) == store.commits
        assert tree.disk.counters.compaction_reads == 0


@pytest.mark.parametrize("policy", _GOLDEN)
class TestNothingObservableMoved:
    def test_counters_ids_and_contents_equal_the_parents(self, policy, tmp_path):
        tuning, run_counter, counters, run_ids, fingerprint, filters = _GOLDEN[policy]
        memory = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=3)
        files = LSMTree(
            tuning, _SYSTEM, disk=VirtualDisk(), seed=3, store=FileStore(tmp_path / "db")
        )
        live = {}
        for is_delete, key in _writes():
            _apply(memory, is_delete, key)
            _apply(files, is_delete, key)
            live[key] = not is_delete
        names = [[f"run-{run_id:08d}.sst" for run_id in level] for level in run_ids]
        for tree in (memory, files):
            assert dataclasses.astuple(tree.disk.counters) == counters
            assert tree_fingerprint(tree)[:16] == fingerprint
            assert _filter_digest(tree)[:16] == filters
            assert tree._run_counter == run_counter
        # A run's filter seed is ``seed + run id``: the ids are the filters.
        assert [
            [run.bloom_filter.seed - 3 for run in runs] for runs in memory.levels
        ] == run_ids
        for in_memory, on_file in zip(
            (run for runs in memory.levels for run in runs),
            (run for runs in files.levels for run in runs),
        ):
            assert np.array_equal(in_memory.bloom_filter.bit_table, on_file.bloom_filter.bit_table)
        # Every key answers what the trace wrote last: a deleted key stays deleted.
        for tree in (memory, files):
            assert [tree.get(key) for key in range(1_200)] == [
                live.get(key, False) for key in range(1_200)
            ]
        files.close()
        listing = {path.name for path in (tmp_path / "db").iterdir()}
        assert listing == {"MANIFEST.json", "wal.log", *(n for level in names for n in level)}
        manifest = (tmp_path / "db" / "MANIFEST.json").read_text()
        assert manifest.count("\n") == 1  # closing rolled the log to one record
        assert json.loads(manifest) == {"version": 3, "run_counter": run_counter, "levels": names}
