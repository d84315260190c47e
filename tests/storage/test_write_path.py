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
from repro.storage.persistent.store import MANIFEST_VERSION

_SYSTEM = simulator_system(num_entries=2_000)

#: The four named policies and one fluid k-vector, each with what the trace
#: of :func:`_writes` leaves: the final run counter (every merge on the way
#: takes an id, built or not), the five ``IOCounters``, the run ids level by
#: level, the first 16 hex digits of ``tree_fingerprint`` and those of
#: :func:`_filter_digest`.
_GOLDEN = {
    "leveling": (
        LSMTuning(5.0, 5.0, Policy.LEVELING),
        295, (0, 0, 1767, 1643, 298), [[295], [288], [249]],
        "e0e7390c36cb3609", "b45c82f96b7f7153",
    ),
    "tiering": (
        LSMTuning(5.0, 5.0, Policy.TIERING),
        184, (0, 0, 666, 547, 298), [[184, 183, 182, 181], [180, 174, 168, 162], [], [156]],
        "c9b4b89f3ff1d3f0", "6992dd107aa263f8",
    ),
    "lazy-leveling": (
        LSMTuning(4.0, 6.0, Policy.LAZY_LEVELING),
        197, (0, 0, 841, 715, 298), [[197], [196], [191], [170]],
        "7366e23c298a6044", "2053538299c544cd",
    ),
    "one-leveling": (
        LSMTuning(4.0, 6.0, Policy.ONE_LEVELING),
        271, (0, 0, 996, 894, 298), [[271], [270], [263], [234, 117]],
        "5436cfb3da1b1aa8", "c2cd6bf3087c4d4e",
    ),
    "fluid-kvec": (
        LSMTuning(5.0, 5.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1)),
        190, (0, 0, 963, 843, 298), [[190, 189, 188, 187], [186, 180], [161]],
        "6af6f292fc719008", "b497811ce8fbd0e9",
    ),
}

#: Flushes the trace triggers (the buffer holds six entries here).
_FLUSHES = 149


def _writes(seed: int = 20, num_ops: int = 900) -> list[int]:
    """Put keys over a small key domain: updates abound."""
    return np.random.default_rng(seed).integers(0, 1_200, size=num_ops).tolist()


def _filter_digest(tree: LSMTree) -> str:
    """sha256 of every resident run's packed bit table, level by level.

    Pins the filters the engine builds — per-level Monkey bits, ``seed + run
    id`` and merged contents — which no page counter reads when no query ran.
    """
    digest = hashlib.sha256()
    for runs in tree.levels:
        digest.update(b"level")
        for run in runs:
            digest.update(run._filter.bit_table.tobytes())
    return digest.hexdigest()


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
        for key in _writes():
            before = len(store.created)
            tree.put(key)
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
        for key in _writes(num_ops=120):
            tree.put(key)
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
        written = set()
        for key in _writes():
            memory.put(key)
            files.put(key)
            written.add(key)
        names = [[f"run-{run_id:08d}.sst" for run_id in level] for level in run_ids]
        for tree in (memory, files):
            assert dataclasses.astuple(tree.disk.counters) == counters
            assert tree_fingerprint(tree)[:16] == fingerprint
            assert _filter_digest(tree)[:16] == filters
            assert tree._run_counter == run_counter
        # A run's filter seed is ``seed + run id``: the ids are the filters.
        assert [
            [run._filter.seed - 3 for run in runs] for runs in memory.levels
        ] == run_ids
        for in_memory, on_file in zip(
            (run for runs in memory.levels for run in runs),
            (run for runs in files.levels for run in runs),
        ):
            assert np.array_equal(in_memory._filter.bit_table, on_file._filter.bit_table)
        # Every key the trace wrote is held, and no other.
        for tree in (memory, files):
            assert [tree.get(key) for key in range(1_200)] == [
                key in written for key in range(1_200)
            ]
        files.close()
        listing = {path.name for path in (tmp_path / "db").iterdir()}
        assert listing == {"MANIFEST.json", "wal.log", *(n for level in names for n in level)}
        manifest = (tmp_path / "db" / "MANIFEST.json").read_text()
        assert manifest.count("\n") == 1  # closing rolled the log to one record
        assert json.loads(manifest) == {
            "version": MANIFEST_VERSION, "run_counter": run_counter, "levels": names
        }


#: What each policy's tree reports after :func:`_writes` and then sixty fresh
#: puts, each followed by a read below them: the ``IOCounters``, recorded with
#: filters hashed at build.
_FRESH_COUNTERS = {
    "leveling": (28, 0, 2027, 1882, 318),
    "tiering": (37, 0, 726, 599, 318),
    "lazy-leveling": (29, 0, 857, 727, 318),
    "one-leveling": (29, 0, 1037, 930, 318),
    "fluid-kvec": (29, 0, 1161, 1018, 318),
}


@pytest.mark.parametrize("policy", _GOLDEN)
def test_a_run_no_read_reaches_never_hashes_its_filter(policy):
    """Fresh inserts sit above every read key, as the trace generator's do, so
    the runs they fill are ruled out by their bounds and never hash a key."""
    tuning, _, counters, *_ = _GOLDEN[policy]
    tree = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=3)
    written = _writes()
    for key in written:
        tree.put(key)
    assert dataclasses.astuple(tree.disk.counters) == counters
    runs = [run for level in tree.levels for run in level]
    assert all(run._filter._bytes is None for run in runs)  # nothing asked yet
    reads = np.random.default_rng(5).integers(0, 1_200, size=60).tolist()
    answers = []
    for offset, key in enumerate(reads):
        tree.put(2_400 + offset)
        answers.append(tree.get(key))
    assert answers == [key in set(written) for key in reads]
    assert dataclasses.astuple(tree.disk.counters) == _FRESH_COUNTERS[policy]
    runs = [run for level in tree.levels for run in level]
    unreached = [run for run in runs if run._min_key > max(reads)]
    assert unreached
    assert all(run._filter._bytes is None for run in unreached)
    assert any(run._filter._bytes is not None for run in runs)
