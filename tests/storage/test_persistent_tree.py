"""The tree on a ``FileStore``: conformance with memory, durability, files.

The tree on files must be observationally identical to the one in memory:
same answers, same virtual-disk counters, same tree shape.  The
conformance cases here pin that on one fixed stream per policy;
``tests/test_engine_machine.py`` checks it on random streams with kills,
reopens, migrations and batched reads.  Pinned here by hand besides: WAL
replay and torn records, a kill at every point of a commit, failed writes,
orphan sweeping, garbage collection, what a flush syncs, the SSTable format
and the on-disk layout.  Trees are built as
``LSMTree(..., store=FileStore(dir))``; one test pins the
``PersistentLSMTree`` name the benchmark harness uses.
"""
from __future__ import annotations

import errno
import fnmatch
import json
import os
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import CompactionPolicy, LSMTuning, Policy, simulator_system
from repro.online import MigrationPlan
from repro.storage import LSMTree, PersistentLSMTree, SortedRun, VirtualDisk
from repro.storage.persistent import FileStore, SSTable, WriteAheadLog
from repro.storage.persistent import store as persistent_store
from repro.storage.persistent.sstable import _TRAILER
from repro.storage.persistent.store import MANIFEST_VERSION
from repro.storage.run import RunIndex, locate_many

_SYSTEM = simulator_system(num_entries=2_000)

#: One tuning per structural regime the compaction machinery distinguishes.
_TUNINGS = [
    LSMTuning(8.0, 6.0, Policy.LEVELING),
    LSMTuning(5.0, 5.0, Policy.TIERING),
    LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING),
    LSMTuning(6.0, 6.0, Policy.ONE_LEVELING),
    LSMTuning(5.0, 5.0, CompactionPolicy.fluid((3,), 2)),
    LSMTuning(5.0, 5.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1)),
]

_TUNING_IDS = [
    "leveling", "tiering", "lazy-leveling", "one-leveling", "fluid", "fluid-kvec"
]


def _mixed_trace(seed: int, num_ops: int = 600):
    """A deterministic mixed put/get/range stream; puts update keys too."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["put", "get", "range"], size=num_ops, p=[0.6, 0.3, 0.1])
    keys = rng.integers(0, 60_000, size=num_ops)
    return list(zip(kinds.tolist(), keys.tolist()))


def _drive(tree, trace):
    """Replay a trace, returning every query answer."""
    answers = []
    for kind, key in trace:
        if kind == "put":
            tree.put(key)
        elif kind == "get":
            answers.append(tree.get(key))
        else:
            answers.append(tree.range_query(key, key + 700))
    return answers


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to list descriptors"
)


def _descriptors_under(directory) -> list[str]:
    """Targets of this process's open descriptors inside ``directory``."""
    targets = []
    for entry in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:  # the descriptor of the listing itself
            continue
        if target.startswith(str(directory)):
            targets.append(target)
    return sorted(targets)


def _persistent_pair(tuning, tmp_path, seed=3):
    """A (memory, files) tree pair with identical seeds and disks."""
    sim = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=seed)
    per = LSMTree(
        tuning, _SYSTEM, disk=VirtualDisk(), seed=seed,
        store=FileStore(tmp_path / "db"),
    )
    return sim, per


@pytest.mark.parametrize("tuning", _TUNINGS, ids=_TUNING_IDS)
class TestBackendConformance:
    """Trees in memory and on files are observationally identical."""

    def test_identical_answers_counters_and_shape(self, tuning, tmp_path):
        sim, per = _persistent_pair(tuning, tmp_path)
        load = np.arange(0, 40_000, 13)
        sim.bulk_load(load)
        per.bulk_load(load)
        trace = _mixed_trace(seed=11)
        assert _drive(sim, trace) == _drive(per, trace)
        assert sim.disk.counters == per.disk.counters
        assert sim.stats() == per.stats()
        per.dispose()

    def test_batched_reads_match_across_backends(self, tuning, tmp_path):
        sim, per = _persistent_pair(tuning, tmp_path)
        load = np.arange(0, 30_000, 7)
        sim.bulk_load(load)
        per.bulk_load(load)
        rng = np.random.default_rng(23)
        for tree in (sim, per):
            for key in rng.integers(0, 35_000, 150).tolist():
                tree.put(key)
            rng = np.random.default_rng(23)  # same writes for both trees
        batch = np.r_[load[:50], np.arange(1, 400, 3), load[:10]]
        assert np.array_equal(sim.get_many(batch), per.get_many(batch))
        assert sim.disk.counters == per.disk.counters
        per.dispose()

    def test_scan_versions_match_across_backends(self, tuning, tmp_path):
        sim, per = _persistent_pair(tuning, tmp_path)
        load = np.arange(0, 20_000, 5)
        sim.bulk_load(load)
        per.bulk_load(load)
        for tree in (sim, per):
            for key in range(100, 400, 5):  # updates of loaded keys
                tree.put(key)
            for key in range(1_000, 1_300, 3):
                tree.put(key)
        for interval in [(0, 2_000), (150, 150), (99_000, 99_500), (395, 1_001)]:
            assert np.array_equal(sim.scan_versions(*interval), per.scan_versions(*interval))
        assert sim.disk.counters == per.disk.counters
        per.dispose()

    def test_reopen_recovers_answers_and_shape(self, tuning, tmp_path):
        """Close + reopen (clean restart) preserves the whole tree state:
        installed runs via the manifest, buffered writes via WAL replay."""
        sim, per = _persistent_pair(tuning, tmp_path)
        load = np.arange(0, 25_000, 9)
        sim.bulk_load(load)
        per.bulk_load(load)
        trace = _mixed_trace(seed=31)
        _drive(sim, trace)
        _drive(per, trace)
        stats_before = per.stats()
        per.close()
        reopened = LSMTree(
            per.tuning, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        assert reopened.stats() == stats_before
        probe = np.arange(0, 60_000, 17)
        assert np.array_equal(sim.get_many(probe), reopened.get_many(probe))
        reopened.dispose()


class _FlushCrash(RuntimeError):
    """Injected failure standing in for a process kill."""


class _StoppableStore(FileStore):
    """File store whose next commit can be killed at a named point."""

    POINTS = (
        "tables written",  # nothing of the commit has happened yet
        "manifest appended",
        "log rewritten",  # reached by commits that rewrite the log
        "before garbage collection",
    )
    stop_at = None

    def _reach(self, point: str) -> None:
        if self.stop_at == point:
            self.stop_at = None
            raise _FlushCrash(f"killed at: {point}")

    def _append_manifest(self, manifest) -> None:
        self._reach("tables written")
        super()._append_manifest(manifest)
        self._reach("manifest appended")

    def _rewrite_log(self, buffered) -> None:
        super()._rewrite_log(buffered)
        self._reach("log rewritten")

    def _collect_garbage(self) -> None:
        self._reach("before garbage collection")
        super()._collect_garbage()


def _assert_no_orphan_files(tree: LSMTree) -> None:
    """The directory's run files are exactly the recovered tree's runs."""
    referenced = {run.path.name for runs in tree.levels for run in runs}
    assert {p.name for p in tree.store.data_dir.glob("run-*")} == referenced


def _assert_same_answers(reference: LSMTree, recovered: LSMTree, probe) -> None:
    assert np.array_equal(reference.get_many(probe), recovered.get_many(probe))


class TestCrashRecovery:
    """Recovery from crashes at every point of the flush sequence."""

    _TUNING = LSMTuning(5.0, 5.0, Policy.TIERING)

    def _filled_tree(self, tmp_path):
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        tree.bulk_load(np.arange(0, 20_000, 11))
        return tree

    def _reference_tree(self, writes, tuning=_TUNING):
        sim = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=3)
        sim.bulk_load(np.arange(0, 20_000, 11))
        for key in writes:
            sim.put(key)
        return sim

    def test_crash_before_any_flush_replays_the_wal(self, tmp_path):
        tree = self._filled_tree(tmp_path)
        writes = list(range(50_000, 50_000 + tree.buffer_entries // 2))
        for key in writes:
            tree.put(key)
        assert tree.memtable.is_empty is False
        tree.store.abandon()
        recovered = self._filled_tree(tmp_path)
        assert recovered.stats().memtable_entries == len(writes)
        assert all(recovered.get(key) for key in writes)
        recovered.dispose()

    @pytest.mark.parametrize("point", _StoppableStore.POINTS)
    def test_kill_inside_a_flush_commit_loses_no_acknowledged_write(
        self, tmp_path, point
    ):
        """Whatever step of the commit order (tables, manifest, log, garbage)
        the kill lands on, the reopened tree answers like a reference that
        saw every write, and every file left behind belongs to it."""
        store = _StoppableStore(tmp_path / "db")
        # Leveling: the flush merges into the resident run, so the commit
        # has replaced tables to collect as well as new ones to publish.
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        tree = LSMTree(tuning, _SYSTEM, disk=VirtualDisk(), seed=3, store=store)
        tree.bulk_load(np.arange(0, 20_000, 11))
        writes = []
        key = 50_000
        # Fill to one below the flush trigger, then let the next put be
        # killed mid-flush (its log append lands before the flush).
        while len(tree.memtable) < tree.buffer_entries - 1:
            tree.put(key)
            writes.append(key)
            key += 1
        store.stop_at = point
        with pytest.raises(_FlushCrash, match=point):
            tree.put(key)
        writes.append(key)
        store.abandon()

        recovered = LSMTree(
            tuning, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        # Before the append the flush rolled back (every write is back in the
        # memtable); after it the stale log re-applies what the flushed run
        # holds, until the rewrite empties it.
        replayed = 0 if point in self._LOG_IS_REWRITTEN else len(writes)
        assert recovered.stats().memtable_entries == replayed
        _assert_no_orphan_files(recovered)
        _assert_same_answers(
            self._reference_tree(writes, tuning),
            recovered,
            np.r_[np.arange(0, 22_000, 7), np.array(writes)],
        )
        recovered.dispose()

    _LOG_IS_REWRITTEN = ("log rewritten", "before garbage collection")

    @pytest.mark.parametrize(
        "point", [p for p in _StoppableStore.POINTS if p != "log rewritten"]
    )
    def test_kill_inside_a_migration_step_commit(self, tmp_path, point):
        """``install_bulk_run`` of an incremental migration commits while the
        target's memtable holds acknowledged writes of the mixed state; its
        commit leaves the log alone, so a kill anywhere in it keeps them."""
        disk = VirtualDisk()
        checkpoint = np.arange(0, 20_000, 11)
        source = LSMTree(_TUNINGS[0], _SYSTEM, disk=disk, seed=3)
        source.bulk_load(checkpoint)
        new_tuning = self._TUNING  # three placements for this checkpoint
        writes = list(range(50_000, 50_003))  # fewer than the buffer holds

        def migrate(store, installs, stop_at=None):
            """Two installs, the mixed state's writes, then the rest."""
            target = LSMTree(new_tuning, _SYSTEM, disk=disk, seed=17, store=store)
            plan = MigrationPlan(source, target)

            def install(count):
                while count:
                    count -= plan.run_next_step().installs_run

            install(2)
            for written in writes:
                plan.put(written)
            store.stop_at = stop_at
            install(installs - 2)
            return target

        store = _StoppableStore(tmp_path / "target")
        with pytest.raises(_FlushCrash, match=point):
            migrate(store, installs=3, stop_at=point)
        store.abandon()

        recovered = LSMTree(
            new_tuning, _SYSTEM, disk=disk, seed=17,
            store=FileStore(tmp_path / "target"),
        )
        assert recovered.stats().memtable_entries == len(writes)
        _assert_no_orphan_files(recovered)
        # The third run is installed exactly when its record was appended.
        installed = 2 if point == "tables written" else 3
        assert sum(len(runs) for runs in recovered.levels) == installed
        reference = migrate(FileStore(tmp_path / "reference"), installs=installed)
        _assert_same_answers(
            reference, recovered, np.r_[np.arange(0, 22_000, 7), np.array(writes)]
        )
        reference.dispose()
        recovered.dispose()

    def test_a_kill_after_the_last_migration_step_keeps_the_leftover_keys(
        self, tmp_path
    ):
        """Regression: finalisation re-homed the checkpoint keys no placement
        took into the target's memtable without logging them."""
        disk = VirtualDisk()
        checkpoint = np.arange(0, 20_000, 11)
        source = LSMTree(_TUNINGS[0], _SYSTEM, disk=disk, seed=3)
        source.bulk_load(checkpoint)
        target = LSMTree(
            self._TUNING, _SYSTEM, disk=disk, seed=17,
            store=FileStore(tmp_path / "target"),
        )
        plan = MigrationPlan(source, target)
        # No checkpoint of this size leaves keys over by itself (the plan
        # deepens the tree until everything fits), so take three out of the
        # last placement by hand.
        assert plan._leftover.size == 0
        level, piece = plan._placements[-1]
        plan._placements = plan._placements[:-1] + ((level, piece[3:]),)
        plan._leftover = piece[:3]
        kept, overwritten, also_kept = piece[:3].tolist()
        plan.put(overwritten)  # a newer version: the leftover copy is obsolete
        plan.run_to_completion()
        assert target.memtable.holds(kept)
        target.store.abandon()

        recovered = LSMTree(
            self._TUNING, _SYSTEM, disk=disk, seed=17,
            store=FileStore(tmp_path / "target"),
        )
        assert recovered.stats().memtable_entries == 3
        assert recovered.get(kept) and recovered.get(also_kept) and recovered.get(overwritten)
        assert recovered.get_many(checkpoint).all()
        recovered.dispose()


class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(7)
        wal.append(-3)
        wal.append(2**40)
        assert wal.replay() == [7, -3, 2**40]
        assert len(wal.replay()) == 3
        wal.reset()
        assert wal.replay() == []
        wal.close()

    def test_torn_trailing_record_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(1)
        wal.append(2)
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-4])  # tear the last record mid-write
        torn = WriteAheadLog(path)
        assert torn.replay() == [1]
        torn.close()

    def test_sync_mode_appends_survive(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", sync=True)
        wal.append(5)
        assert wal.replay() == [5]
        wal.close()

    _GROUP = [7, -3, 2**40, 0, 12]

    def test_append_many_is_byte_identical_to_repeated_append(self, tmp_path):
        scalar = WriteAheadLog(tmp_path / "scalar.log")
        for key in self._GROUP:
            scalar.append(key)
        grouped = WriteAheadLog(tmp_path / "grouped.log")
        grouped.append_many(self._GROUP)
        scalar.close()
        grouped.close()
        assert (tmp_path / "grouped.log").read_bytes() == (
            tmp_path / "scalar.log"
        ).read_bytes()
        replayed = WriteAheadLog(tmp_path / "grouped.log")
        assert replayed.replay() == self._GROUP
        replayed.close()

    def test_append_many_of_nothing_is_a_no_op(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", sync=True)
        wal.append_many([])
        assert wal.replay() == []
        assert (tmp_path / "wal.log").stat().st_size == 0
        wal.close()

    def test_crash_mid_group_keeps_the_complete_prefix(self, tmp_path):
        """A torn group commit must replay every record before the tear."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append_many(self._GROUP)
        wal.close()
        record_size = 8  # struct "<q"
        data = path.read_bytes()
        assert len(data) == record_size * len(self._GROUP)
        path.write_bytes(data[: 3 * record_size + 4])  # tear inside record 4
        torn = WriteAheadLog(path)
        assert torn.replay() == self._GROUP[:3]
        # The log stays appendable after a torn tail was truncated away.
        torn.append(99)
        assert torn.replay() == self._GROUP[:3] + [99]
        torn.close()

    def test_append_many_pays_a_single_fsync(self, tmp_path, monkeypatch):
        syncs = {"count": 0}
        real_fsync = os.fsync

        def counting_fsync(fd):
            syncs["count"] += 1
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        wal = WriteAheadLog(tmp_path / "wal.log", sync=True)
        wal.append_many(self._GROUP)
        assert syncs["count"] == 1
        for key in self._GROUP:
            wal.append(key)
        assert syncs["count"] == 1 + len(self._GROUP)
        wal.close()


class TestSSTable:
    """The on-disk table answers exactly like an in-memory sorted run."""

    def _pair(self, tmp_path, keys, bits=5.0, seed=9):
        keys = np.asarray(keys, dtype=np.int64)
        run = SortedRun(keys, entries_per_page=4, bits_per_entry=bits, seed=seed)
        table = SSTable.create(
            tmp_path / "t.sst", keys, entries_per_page=4, bits_per_entry=bits, seed=seed
        )
        return run, table

    def test_lookup_parity_including_page_charges(self, tmp_path):
        run, table = self._pair(tmp_path, np.arange(0, 1_000, 3))
        for key in range(-5, 1_010):
            assert run.lookup(key) == table.lookup(key)
        table.close()

    def test_lookup_many_parity(self, tmp_path):
        keys = np.arange(0, 2_000, 7)
        run, table = self._pair(tmp_path, keys)
        probe = np.r_[keys[::5], np.arange(1, 500, 2), keys[:3], keys[:3]]
        run_found, run_pages = run.lookup_many(probe)
        table_found, table_pages = table.lookup_many(probe)
        assert np.array_equal(run_found, table_found)
        assert run_pages == table_pages
        table.close()

    def test_scan_parity_over_every_interval_shape(self, tmp_path):
        run, table = self._pair(tmp_path, np.arange(0, 400, 5))
        intervals = [
            (0, 399), (-50, -1), (401, 900), (3, 4), (100, 100),
            (101, 104), (0, 0), (395, 395), (17, 230),
        ]
        for start, end in intervals:
            run_keys, run_pages = run.scan_entries(start, end)
            table_keys, table_pages = table.scan_entries(start, end)
            assert np.array_equal(run_keys, table_keys)
            assert run_pages == table_pages
        table.close()

    def test_a_charged_page_is_a_read_page(self, tmp_path, monkeypatch):
        """Bytes ``pread`` by a scan are the pages it returns, clamped to the
        record region: a hit reads its span, an interval between two keys
        reads the one seek page it charges, a miss reads nothing.  A charge
        (``scan_pages``) reads the same one span and decodes none of it."""
        keys = np.arange(0, 150, 5)  # 30 entries: seven full pages and a half
        run, table = self._pair(tmp_path, keys)
        page_bytes, data_bytes = 4 * 8, 30 * 8
        reads: list[tuple[int, int]] = []
        real_pread = os.pread

        def pread(descriptor, length, offset):
            reads.append((offset, length))
            return real_pread(descriptor, length, offset)

        monkeypatch.setattr(os, "pread", pread)
        cases = {
            "hit": ((22, 61), 3),
            "hit on the partial last page": ((135, 400), 2),
            "gap inside a page": ((21, 24), 1),
            "gap between two pages": ((16, 19), 1),
            "gap on the partial last page": ((141, 144), 1),
            "above the table": ((150, 900), 0),
            "below the table": ((-30, -1), 0),
            "inverted": ((60, 20), 0),
        }

        def frombuffer(*args, **kwargs):
            raise AssertionError("a page charge decoded the bytes it read")

        for name, ((start, end), pages) in cases.items():
            reads.clear()
            first_page, last_page = table._locate(start, end)
            assert not reads, name  # the sparse index is resident
            first_byte = first_page * page_bytes
            want_bytes = min(first_byte + pages * page_bytes, data_bytes) - first_byte
            want_reads = [(first_byte, want_bytes)] if pages else []
            with monkeypatch.context() as undecoded:
                undecoded.setattr(np, "frombuffer", frombuffer)
                charged = table.scan_pages(start, end), run.scan_pages(start, end)
            assert charged == (pages, pages), name
            assert reads == want_reads, name
            reads.clear()
            got_keys, got_pages = table.scan_entries(start, end)
            want_keys, want_pages = run.scan_entries(start, end)
            assert got_keys.tolist() == want_keys.tolist(), name
            assert got_pages == want_pages == pages == last_page - first_page + 1, name
            assert reads == want_reads, name
        table.close()

    def test_a_batch_charge_reads_the_spans_it_charges(self, tmp_path, monkeypatch):
        """``charge_ranges`` on files: one run at a time, each charged span is
        ``pread`` once and none is decoded; the pages and the reads are those
        of a ``charge_range`` per range."""
        tree = LSMTree(
            LSMTuning(5.0, 5.0, Policy.TIERING), _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        tree.bulk_load(np.arange(0, 20_000, 11))
        for key in range(5, 2 * tree.buffer_entries * 11, 11):
            tree.put(key)
        runs = [run for level in tree.levels for run in level]
        assert len(runs) >= 3
        intervals = [
            (0, 19_999), (3, 9), (16, 19), (500, 1_700), (7_000, 7_000),
            (-30, -1), (30_000, 40_000), (900, 100), (19_990, 2**63 - 1),
        ]
        starts = np.array([start for start, _ in intervals], dtype=np.int64)
        ends = np.array([end for _, end in intervals], dtype=np.int64)
        want_reads = []
        for run in runs:
            page_bytes = run.entries_per_page * 8
            for start, end in intervals:
                first, last = run._locate(start, end)
                if first <= last:
                    length = min((last + 1) * page_bytes, 8 * run.num_entries) - first * page_bytes
                    want_reads.append((first * page_bytes, length))
        reads: list[tuple[int, int]] = []
        real_pread = os.pread

        def pread(descriptor, length, offset):
            reads.append((offset, length))
            return real_pread(descriptor, length, offset)

        def frombuffer(*args, **kwargs):
            raise AssertionError("a page charge decoded the bytes it read")

        monkeypatch.setattr(os, "pread", pread)
        before = tree.disk.counters.query_reads
        with monkeypatch.context() as undecoded:
            undecoded.setattr(np, "frombuffer", frombuffer)
            tree.charge_ranges(starts, ends)
            batch_reads, batch_pages = list(reads), tree.disk.counters.query_reads - before
            reads.clear()
            for start, end in intervals:
                tree.charge_range(start, end)
        scalar_pages = tree.disk.counters.query_reads - before - batch_pages
        assert batch_reads == want_reads
        assert sorted(reads) == sorted(want_reads)
        assert batch_pages == scalar_pages > 0
        tree.close()

    def test_a_short_read_raises_eio_naming_the_table(self, tmp_path):
        """A file cut under an open table: every read that reaches the lost
        bytes raises, where it used to answer from the records it got."""
        keys = np.arange(0, 150, 5)  # 30 entries: seven full pages and a half
        run, table = self._pair(tmp_path, keys)
        os.truncate(tmp_path / "t.sst", 26 * 8)  # page 6 ends short, page 7 is gone
        reads = {
            "scan_entries": lambda: table.scan_entries(100, 200),
            "scan_pages": lambda: table.scan_pages(100, 200),
            "lookup": lambda: table.lookup(140),
            "lookup_many": lambda: table.lookup_many(keys[-5:]),
            "keys": lambda: table.keys,
        }
        for name, read in reads.items():
            with pytest.raises(OSError, match="short read of an SSTable") as raised:
                read()
            assert raised.value.errno == errno.EIO, name
            assert raised.value.filename == str(tmp_path / "t.sst"), name
        # The pages the cut left whole still read as they did.
        assert table.scan_entries(0, 100)[0].tolist() == run.scan_entries(0, 100)[0].tolist()
        assert table.scan_pages(0, 100) == run.scan_pages(0, 100)
        table.close()

    def test_num_pages_is_integer_arithmetic_on_both_run_kinds(self, tmp_path):
        for count in range(0, 14):
            keys = np.arange(count)
            run, table = self._pair(tmp_path, keys)
            assert run.num_pages == table.num_pages == -(-count // 4)
            assert type(run.num_pages) is type(table.num_pages) is int
            table.delete_files()
        # One definition for both kinds; past 2**53 a float quotient would
        # lose the last entry's page.
        assert SortedRun.num_pages is SSTable.num_pages is RunIndex.num_pages
        huge = 2**53 + 1
        assert RunIndex.num_pages.fget(SimpleNamespace(_size=huge, entries_per_page=1)) == huge

    @pytest.mark.parametrize("count", [0, 3, 150], ids=["empty", "one-partial-page", "many"])
    def test_open_round_trips_all_state(self, tmp_path, count):
        keys = np.arange(0, 2 * count, 2)
        run, table = self._pair(tmp_path, keys)
        table.close()
        reopened = SSTable.open(tmp_path / "t.sst")
        assert reopened.num_entries == count
        assert reopened.num_pages == run.num_pages == -(-count // 4)
        assert reopened.entries_per_page == 4
        assert np.array_equal(reopened.keys, keys)
        # The resident state is the created table's, bit for bit.
        for name in ("_fences", "_page_max"):
            created, read = getattr(table, name), getattr(reopened, name)
            assert created.dtype == read.dtype == np.int64
            assert created.tobytes() == read.tobytes()
        created, read = table._filter, reopened._filter
        for name in ("expected_entries", "bits_per_entry", "seed", "count"):
            assert getattr(created, name) == getattr(read, name)
        assert created.bit_table.tobytes() == read.bit_table.tobytes()
        # So every probe answers, and charges, like the in-memory run.
        for key in range(-3, 2 * count + 3):
            assert reopened.lookup(key) == run.lookup(key)
            scans = reopened.scan_entries(key, key + 9), run.scan_entries(key, key + 9)
            for got, want in zip(*scans):
                assert np.array_equal(got, want)
        reopened.close()

    def test_empty_table(self, tmp_path):
        run, table = self._pair(tmp_path, np.empty(0, dtype=np.int64))
        assert table.num_pages == 0
        assert table.lookup(5) == (False, 0)
        assert table.scan_entries(0, 10)[1] == 0
        assert table.keys.size == 0 and not table.may_contain(0)
        table.close()

    def test_reads_on_the_final_partial_page_stop_at_the_footer(self, tmp_path):
        """The records of the last page are followed by the footer, not by
        end-of-file: a read that took a whole page there would unpack fence
        pointers as entries."""
        keys = np.arange(0, 60, 2)  # 30 entries: seven full pages and a half
        run, table = self._pair(tmp_path, keys)
        assert table._read_pages(7, 7).tolist() == [56, 58]
        assert np.array_equal(table.keys, keys)
        for key in (55, 56, 57, 58, 59):
            assert table.lookup(key) == run.lookup(key)
        for start, end in [(50, 200), (56, 56), (57, 57), (58, 300), (0, 59)]:
            got, want = table.scan_entries(start, end), run.scan_entries(start, end)
            assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])
        found, pages = table.lookup_many(keys[-3:])
        assert found.all() and pages == run.lookup_many(keys[-3:])[1]
        # Offsets did not move: the file starts with the bare record array.
        raw = (tmp_path / "t.sst").read_bytes()[: 30 * 8]
        assert np.array_equal(np.frombuffer(raw, dtype="<i8"), keys)
        table.close()

    def _table_bytes(self, tmp_path):
        _, table = self._pair(tmp_path, np.arange(0, 100, 2))
        table.close()
        return (tmp_path / "t.sst").read_bytes()

    @pytest.mark.parametrize(
        "cut", [0, 8 * 20, 8 * 50, 8 * 50 + 8 * 13 + 3, -40, -1],
        ids=[
            "empty", "in-the-records", "bare-records-of-the-old-layout",
            "in-the-footer", "in-the-trailer", "in-the-magic",
        ],
    )
    def test_open_rejects_a_file_without_the_trailer_magic(self, tmp_path, cut):
        """Truncated anywhere, or what the three-file layout called
        ``run-N.sst``, a file does not end in the magic."""
        path = tmp_path / "t.sst"
        path.write_bytes(self._table_bytes(tmp_path)[:cut])
        with pytest.raises(ValueError, match="does not end in an SSTable trailer"):
            SSTable.open(path)

    def test_open_rejects_a_file_whose_length_the_trailer_does_not_imply(self, tmp_path):
        """A record lost (or bytes gained) ahead of an intact trailer."""
        path = tmp_path / "t.sst"
        raw = self._table_bytes(tmp_path)
        for damaged in (raw[8:], b"\0" * 8 + raw):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=f"holds {len(damaged)} bytes"):
                SSTable.open(path)

    def test_open_refuses_a_table_of_9_byte_records(self, tmp_path):
        """The format before version 4 followed each key with a flag byte:
        such a table is longer than its trailer says, by one byte a record."""
        path = tmp_path / "t.sst"
        raw = self._table_bytes(tmp_path)
        records = np.frombuffer(raw[: 8 * 50], dtype="<i8")
        old = np.zeros(50, dtype=[("key", "<i8"), ("flag", "u1")])
        old["key"] = records
        path.write_bytes(old.tobytes() + raw[8 * 50 :])
        with pytest.raises(ValueError, match=f"holds {len(raw) + 50} bytes but its trailer"):
            SSTable.open(path)

    @needs_proc
    @pytest.mark.parametrize("delta", [-1, 1], ids=["one-byte-short", "one-byte-long"])
    def test_a_filter_length_its_parameters_do_not_imply_is_refused(self, tmp_path, delta):
        """The trailer's filter length rewritten, and the file resized to
        match it: the length check passes, ``BloomFilter.from_state`` does not."""
        path = tmp_path / "t.sst"
        raw = self._table_bytes(tmp_path)
        trailer = list(_TRAILER.unpack(raw[-_TRAILER.size :]))
        filter_bytes = trailer[7]
        trailer[7] += delta
        body = raw[: -_TRAILER.size]
        body = body[:delta] if delta < 0 else body + b"\0"
        path.write_bytes(body + _TRAILER.pack(*trailer))
        before = _descriptors_under(tmp_path)
        with pytest.raises(
            ValueError, match=f"{filter_bytes + delta} bytes .* imply {filter_bytes}$"
        ):
            SSTable.open(path)
        assert _descriptors_under(tmp_path) == before

    @needs_proc
    @pytest.mark.parametrize("per_page", [0, 2, 8])
    def test_a_page_geometry_its_entry_count_does_not_imply_is_refused(
        self, tmp_path, per_page
    ):
        """The trailer's page size rewritten: 50 entries in 13 pages of 4 are
        not 13 pages of 2 or of 8, and no page holds 0 entries."""
        path = tmp_path / "t.sst"
        raw = self._table_bytes(tmp_path)
        trailer = list(_TRAILER.unpack(raw[-_TRAILER.size :]))
        trailer[1] = per_page
        path.write_bytes(raw[: -_TRAILER.size] + _TRAILER.pack(*trailer))
        before = _descriptors_under(tmp_path)
        with pytest.raises(
            ValueError, match=f"^{path} describes 13 pages of {per_page} entries for 50"
        ):
            SSTable.open(path)
        assert _descriptors_under(tmp_path) == before

    @needs_proc
    def test_a_rejected_file_leaves_no_descriptor_open(self, tmp_path):
        path = tmp_path / "t.sst"
        path.write_bytes(self._table_bytes(tmp_path)[:-1])
        before = _descriptors_under(tmp_path)
        with pytest.raises(ValueError):
            SSTable.open(path)
        assert _descriptors_under(tmp_path) == before

    def test_delete_files_removes_the_table(self, tmp_path):
        _, table = self._pair(tmp_path, np.arange(0, 40))
        table.delete_files()
        assert list(tmp_path.iterdir()) == []


_INT64 = np.iinfo(np.int64)
_ANY_KEY = st.integers(_INT64.min, _INT64.max)


@st.composite
def _run_and_probes(draw):
    """``(keys, bits_per_entry, probe)`` for a run of 4-entry pages.

    Sizes cover the empty run, one entry, one page, a last partial page and
    many pages; keys are clustered, or anywhere in ``int64``.  Probe batches
    are empty, all on one page, one per page, or a mix of resident keys (with
    duplicates), their neighbours in the gaps, and keys anywhere — below,
    above and between — in the order drawn or sorted.
    """
    size = draw(st.sampled_from([0, 1, 3, 4, 5, 8, 13, 30]))
    domain = draw(st.sampled_from([st.integers(-60, 60), _ANY_KEY]))
    keys = sorted(draw(st.lists(domain, min_size=size, max_size=size, unique=True)))
    shape = draw(st.sampled_from(["empty", "one page", "every page", "mixed"]))
    if shape == "empty" or (not keys and shape != "mixed"):
        probe = []
    elif shape == "one page":
        page = draw(st.integers(0, (size - 1) // 4))
        probe = draw(st.lists(st.sampled_from(keys[4 * page : 4 * page + 4]), min_size=1))
    elif shape == "every page":
        probe = draw(st.permutations(keys[::4] + keys[3::4]))
    else:
        near = [min(max(key + d, _INT64.min), _INT64.max) for key in keys for d in (-1, 0, 0, 1)]
        probe = draw(st.lists(st.sampled_from(near) if near else _ANY_KEY, max_size=40))
        probe += draw(st.lists(_ANY_KEY | st.integers(-70, 70), max_size=10))
    if draw(st.booleans()):  # in key order, as a drain hands a batch over
        probe = sorted(probe)
    bits = draw(st.sampled_from([0.0, 3.0, 10.0]))
    return keys, bits, probe


class TestSSTableLookupMany:
    """A batched probe on files answers and charges as one in memory, one read a page."""

    @given(case=_run_and_probes())
    @settings(max_examples=150, deadline=None)
    def test_answers_charges_and_reads(self, case):
        keys, bits, probe = case
        keys = np.array(keys, dtype=np.int64)
        probe = np.array(probe, dtype=np.int64)
        run = SortedRun(keys, entries_per_page=4, bits_per_entry=bits, seed=9)
        with tempfile.TemporaryDirectory() as root:
            table = SSTable.create(
                Path(root) / "t.sst", keys, entries_per_page=4, bits_per_entry=bits, seed=9
            )
            reads: list[tuple[int, int]] = []
            real_pread = os.pread

            def pread(descriptor, length, offset):
                reads.append((offset, length))
                return real_pread(descriptor, length, offset)

            try:
                with mock.patch.object(os, "pread", pread):
                    found, pages = table.lookup_many(probe)
                want_found, want_pages = run.lookup_many(probe)
                assert found.tolist() == want_found.tolist()
                assert pages == want_pages
                scalar = [table.lookup(int(key)) for key in probe]
                assert found.tolist() == [s[0] for s in scalar]
                assert pages == sum(s[1] for s in scalar)
                # One pread per distinct candidate page, a page long, except
                # the last: it ends where the records do.
                candidates = sorted(
                    {table.page_of(int(key)) for key in probe if table.may_contain(int(key))}
                )
                data_bytes = 8 * keys.size
                assert reads == [
                    (32 * page, min(32, data_bytes - 32 * page)) for page in candidates
                ]
            finally:
                table.close()

    def test_a_closed_table_refuses_to_read(self, tmp_path):
        keys = np.arange(0, 40, 2)
        table = SSTable.create(tmp_path / "t.sst", keys, entries_per_page=4)
        table.close()
        with pytest.raises(ValueError, match="is closed"):
            table.lookup_many(keys[:5])
        # Nothing to read, nothing refused: the resident index rules these out.
        assert table.lookup_many(np.array([-3, 99]))[1] == 0


@st.composite
def _run_and_intervals(draw):
    """``(keys, intervals)`` for a run of 4-entry pages.

    Run sizes and key domains as in :func:`_run_and_probes`; interval batches
    are empty, or mix intervals anchored on the run's keys and their
    neighbours — whole run, single keys, gaps, duplicates, overlaps — with
    intervals anywhere: below, above, inverted.
    """
    keys, _, _ = draw(_run_and_probes())
    near = [min(max(key + d, _INT64.min), _INT64.max) for key in keys for d in (-1, 0, 1)]
    bound = (st.sampled_from(near) if near else _ANY_KEY) | _ANY_KEY | st.integers(-70, 70)
    intervals = draw(st.lists(st.tuples(bound, bound), max_size=30))
    if keys and draw(st.booleans()):
        intervals += [(keys[0], keys[-1]), (_INT64.min, _INT64.max)] + intervals[:3]
    return keys, intervals


class TestLocateMany:
    """The batched locate is ``_locate``, and so ``scan_entries``, on both run kinds."""

    @given(case=_run_and_intervals(), runs_in_batch=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_slices_and_pages_of_every_interval(self, case, runs_in_batch):
        keys, intervals = case
        keys = np.array(keys, dtype=np.int64)
        starts = np.array([start for start, _ in intervals], dtype=np.int64)
        ends = np.array([end for _, end in intervals], dtype=np.int64)
        run = SortedRun(keys, entries_per_page=4)
        with tempfile.TemporaryDirectory() as root:
            table = SSTable.create(Path(root) / "t.sst", keys, entries_per_page=4)
            try:
                other = SortedRun(keys[::2], entries_per_page=3)
                runs = [run, table, other, run][: runs_in_batch + 1]
                first, last, pages = locate_many(runs, starts, ends)
                assert first.shape == last.shape == pages.shape == (len(runs), len(intervals))
                for row, each in enumerate(runs):
                    run_keys = each.keys
                    per_page = each.entries_per_page
                    for column, (start, end) in enumerate(intervals):
                        span = first[row, column], last[row, column]
                        assert span == each._locate(start, end)
                        want_keys, want_pages = each.scan_entries(start, end)
                        assert pages[row, column] == want_pages == max(span[1] - span[0] + 1, 0)
                        # The located pages, trimmed to the interval, are the scan.
                        read = slice(span[0] * per_page, (span[1] + 1) * per_page)
                        span_keys = run_keys[read]
                        inside = (span_keys >= start) & (span_keys <= end)
                        assert span_keys[inside].tolist() == want_keys.tolist()
                        if each is table:
                            in_memory = run.scan_entries(start, end)
                            assert want_keys.tolist() == in_memory[0].tolist()
                            assert want_pages == in_memory[1]
            finally:
                table.close()


@needs_proc
class TestFailedTableWrite:
    """A table whose one ``write`` fails is not there at all — and neither is
    anything else of the flush that wanted it: the run is built before the
    levels, the memtable or the counters are touched."""

    _TUNING = LSMTuning(5.0, 5.0, Policy.LEVELING)

    #: Flushed buffers before the failing flush -> the level shape it meets.
    #: One: the flush merges into the resident level-1 run.  Nine: level 1 is
    #: at capacity, so the merge overfills it and cascades into the occupied
    #: level 2 (two merges planned, one table written).
    _SCENARIOS = {"merges into level 1": (1, [1]), "cascades into level 2": (9, [1, 1])}

    @pytest.mark.parametrize("fault", ["ENOSPC", "short write"])
    @pytest.mark.parametrize("scenario", _SCENARIOS)
    def test_no_file_no_descriptor_and_the_tree_goes_on(
        self, tmp_path, monkeypatch, fault, scenario
    ):
        flushed, shape = self._SCENARIOS[scenario]
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        writes = list(range((flushed + 1) * tree.buffer_entries - 1))
        for key in writes:  # one put short of the next flush
            tree.put(key)
        assert [len(runs) for runs in tree.levels] == shape
        levels = [list(runs) for runs in tree.levels]
        buffered = tree.memtable.sorted_items().tolist()
        run_counter = tree._run_counter
        files = sorted(path.name for path in tree.store.data_dir.iterdir())
        descriptors = _descriptors_under(tmp_path)
        counters = tree.disk.counters.snapshot()
        real_write = os.write

        def failing_write(descriptor, data):
            if fault == "ENOSPC":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(descriptor, data[: len(data) // 2])

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", failing_write)
            with pytest.raises(OSError, match="No space left|short write"):
                tree.put(writes[-1] + 1)
        writes.append(writes[-1] + 1)  # logged and buffered before the flush was tried
        assert [list(runs) for runs in tree.levels] == levels  # the same run objects
        assert tree.memtable.sorted_items().tolist() == buffered + writes[-1:]
        assert tree._run_counter == run_counter
        assert tree.disk.counters.snapshot() == counters
        assert sorted(path.name for path in tree.store.data_dir.iterdir()) == files
        assert _descriptors_under(tmp_path) == descriptors
        # Still usable: the buffer answers for what the flush did not
        # persist, and the next put flushes it — charged once, not twice.
        assert all(tree.get(key) for key in writes)
        tree.put(writes[-1] + 1)
        writes.append(writes[-1] + 1)
        assert tree.memtable.is_empty
        flushed_pages = -(-(len(buffered) + 2) // tree.entries_per_page)
        assert tree.disk.counters.flush_writes == counters.flush_writes + flushed_pages
        tree.store.abandon()
        recovered = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        assert all(recovered.get(key) for key in writes)
        _assert_no_orphan_files(recovered)
        recovered.dispose()


def _failing(real_write, fault: str):
    """A ``write`` that raises ``ENOSPC``, or lands half its bytes."""

    def write(*args):
        *descriptor, data = args
        if fault == "ENOSPC":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(*descriptor, data[: len(data) // 2])

    return write


@needs_proc
@pytest.mark.parametrize("fault", ["ENOSPC", "short write"])
class TestFailedManifestAndLogWrite:
    """A manifest or log write that fails or comes up short raises and leaves
    the previous file as it was, and no descriptor behind."""

    _TUNING = LSMTuning(5.0, 5.0, Policy.LEVELING)

    def test_the_previous_manifest_survives(self, tmp_path, monkeypatch, fault):
        tree = LSMTree(self._TUNING, _SYSTEM, seed=3, store=FileStore(tmp_path / "db"))
        for key in range(2 * tree.buffer_entries):
            tree.put(key)
        manifest = (tree.store.data_dir / "MANIFEST.json").read_bytes()
        files = sorted(path.name for path in tree.store.data_dir.iterdir())
        descriptors = _descriptors_under(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", _failing(os.write, fault))
            with pytest.raises(OSError, match="No space left|short write of the manifest"):
                tree.store.commit(tree.levels, tree._run_counter + 1, None)
        assert (tree.store.data_dir / "MANIFEST.json").read_bytes() == manifest
        assert sorted(path.name for path in tree.store.data_dir.iterdir()) == files
        assert _descriptors_under(tmp_path) == descriptors
        # What closing rolls the log down to is the last *committed* record.
        tree.close()
        last = manifest[manifest.rfind(b"\n", 0, -1) + 1 :]
        assert (tree.store.data_dir / "MANIFEST.json").read_bytes() == last

    def test_the_logged_records_survive_and_the_next_append_lines_up(
        self, tmp_path, monkeypatch, fault
    ):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append_many([-7, 2**63 - 1])
        wal.append(11)
        logged = (tmp_path / "wal.log").read_bytes()
        descriptors = _descriptors_under(tmp_path)
        for append in (lambda: wal.append(12), lambda: wal.append_many([13] * 3)):
            with monkeypatch.context() as patch:
                patch.setattr(wal._file, "write", _failing(wal._file.write, fault))
                with pytest.raises(OSError, match="No space left|short write of the write-ahead"):
                    append()
            assert (tmp_path / "wal.log").read_bytes() == logged
            assert _descriptors_under(tmp_path) == descriptors
        wal.append(14)
        assert wal.replay() == [-7, 2**63 - 1, 11, 14]
        wal.close()

    def test_a_put_the_log_refused_is_not_buffered(self, tmp_path, monkeypatch, fault):
        tree = LSMTree(self._TUNING, _SYSTEM, seed=3, store=FileStore(tmp_path / "db"))
        tree.put(1)
        wal = tree.store._wal
        with monkeypatch.context() as patch:
            patch.setattr(wal._file, "write", _failing(wal._file.write, fault))
            with pytest.raises(OSError):
                tree.put(2)
        assert tree.memtable.sorted_items().tolist() == [1]
        assert wal.replay() == [1]
        tree.dispose()


class TestPersistentHousekeeping:
    _TUNING = LSMTuning(5.0, 5.0, Policy.LEVELING)

    def test_compaction_deletes_superseded_files(self, tmp_path):
        """After a flush's manifest sync, on-disk files are exactly the
        live runs — compaction inputs do not accumulate."""
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        for key in range(6 * tree.buffer_entries):
            tree.put(key)
        live = {run.path.name for runs in tree.levels for run in runs}
        # A table is one file: nothing else named after a run exists.
        on_disk = {p.name for p in (tmp_path / "db").glob("run-*")}
        assert on_disk == live
        tree.dispose()
        assert not (tmp_path / "db").exists()

    @needs_proc
    def test_compaction_closes_the_tables_it_replaces(self, tmp_path):
        """Regression: the tables a compaction dropped kept their descriptor
        open on the deleted file for the life of the process."""
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        for key in range(12 * tree.buffer_entries):
            tree.put(key)
        assert tree.disk.counters.compaction_writes > 0  # runs were replaced
        leaked = [t for t in _descriptors_under(tmp_path) if t.endswith(" (deleted)")]
        assert leaked == []
        tree.dispose()

    @needs_proc
    def test_a_failed_recovery_closes_the_tables_it_opened(self, tmp_path):
        """The last table the manifest names is cut short: reopening raises,
        and the tables opened before it, and the log, are closed again."""
        tuning = LSMTuning(4.0, 5.0, Policy.TIERING)
        tree = LSMTree(tuning, _SYSTEM, store=FileStore(tmp_path / "db"))
        tree.bulk_load(np.arange(2_000))
        for key in range(2_000, 2_150):
            tree.put(key)
        names = [run.path.name for runs in tree.levels for run in runs]
        assert len(names) > 2
        tree.close()
        os.truncate(tmp_path / "db" / names[-1], (tmp_path / "db" / names[-1]).stat().st_size - 1)
        assert _descriptors_under(tmp_path) == []
        with pytest.raises(ValueError, match=names[-1]):
            LSMTree(tuning, _SYSTEM, store=FileStore(tmp_path / "db"))
        assert _descriptors_under(tmp_path) == []

    def test_compaction_disabled_stacks_runs(self, tmp_path):
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        tree.compaction_enabled = False
        for key in range(4 * tree.buffer_entries):
            tree.put(key)
        assert len(tree.levels[0]) >= 4
        assert tree.disk.counters.compaction_reads == 0
        # Reads stay correct: newest-wins consolidation is structural.
        assert tree.get(1)
        assert not tree.get(4 * tree.buffer_entries + 5)
        tree.dispose()

    def test_sync_writes_mode_round_trips(self, tmp_path):
        """Through ``PersistentLSMTree``, the constructor sugar the benchmark
        harness builds trees with: the one test that pins it."""
        tree = PersistentLSMTree(
            self._TUNING, _SYSTEM, data_dir=tmp_path / "db",
            disk=VirtualDisk(), seed=3, sync_writes=True,
        )
        assert tree.data_dir == tmp_path / "db" and tree.store.sync_writes
        tree.put(42)
        tree.put(7)
        tree.simulate_crash()
        recovered = PersistentLSMTree(
            self._TUNING, _SYSTEM, data_dir=tmp_path / "db",
            disk=VirtualDisk(), seed=3,
        )
        assert recovered.get(42)
        assert recovered.memtable.sorted_items().tolist() == [7, 42]
        recovered.destroy()
        assert not (tmp_path / "db").exists()


class _SyscallRecorder:
    """Records ``os.write`` and ``os.fsync`` (by the path they hit) and
    ``os.replace`` calls as ``events``, and the name of every file ``os.open``
    creates as ``created``."""

    def __init__(self, monkeypatch) -> None:
        self.events: list[tuple[str, str]] = []
        self.created: list[str] = []
        real_write, real_fsync = os.write, os.fsync
        real_replace, real_open = os.replace, os.open

        def on(call, descriptor):
            path = os.readlink(f"/proc/self/fd/{descriptor}")
            self.events.append((call, os.path.basename(path)))

        def write(descriptor, data):
            on("write", descriptor)
            return real_write(descriptor, data)

        def fsync(descriptor):
            on("fsync", descriptor)
            return real_fsync(descriptor)

        def replace(source, target):
            self.events.append(("replace", os.path.basename(target)))
            return real_replace(source, target)

        def open_(path, flags, *args, **kwargs):
            if flags & os.O_CREAT:
                self.created.append(os.path.basename(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "open", open_)

    @property
    def syncs(self) -> list[tuple[str, str]]:
        """The ``fsync`` and ``replace`` events, in order."""
        return [event for event in self.events if event[0] != "write"]


@needs_proc
class TestFlushDurability:
    """What one flush syncs, and in which order, under each ``sync_writes``;
    what a bulk load and a close sync."""

    _TUNING = LSMTuning(5.0, 5.0, Policy.LEVELING)

    def _flush_recorder(self, tmp_path, monkeypatch, sync_writes):
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db", sync_writes=sync_writes),
        )
        for key in range(tree.buffer_entries):  # a first run for the flush to merge
            tree.put(key)
        for key in range(100, 100 + tree.buffer_entries - 1):
            tree.put(key)
        recorder = _SyscallRecorder(monkeypatch)
        tree.flush()
        tree.store.abandon()
        return recorder

    def test_sync_writes_syncs_every_table_file_before_the_manifest_names_it(
        self, tmp_path, monkeypatch
    ):
        """Regression: the log was synced and truncated, the manifest synced
        — but never the table the flush replaced the log's records with, nor
        that table's directory entry."""
        recorder = self._flush_recorder(tmp_path, monkeypatch, sync_writes=True)
        # One table per flush: the merge's output.  The memtable took run id
        # 2 on its way into the merge and was never a file.  The table, then
        # its directory entry, are synced before the record naming it is
        # appended; then the log is truncated.
        assert recorder.syncs == [
            ("fsync", "run-00000003.sst"), ("fsync", "db"),
            ("fsync", "MANIFEST.json"), ("fsync", "wal.log"),
        ]
        assert fnmatch.filter(recorder.created, "run-*.sst") == ["run-00000003.sst"]
        # The new record is one write to the manifest, then its sync.
        manifest = [event for event in recorder.events if event[1].startswith("MANIFEST")]
        assert manifest == [("write", "MANIFEST.json"), ("fsync", "MANIFEST.json")]

    def test_without_sync_writes_a_flush_is_one_fsync(self, tmp_path, monkeypatch):
        recorder = self._flush_recorder(tmp_path, monkeypatch, sync_writes=False)
        assert recorder.syncs == [("fsync", "MANIFEST.json")]
        assert fnmatch.filter(recorder.created, "MANIFEST*") == []

    def test_a_bulk_load_commits_the_manifest_once(self, tmp_path, monkeypatch):
        """Regression: once per placed run, and once more at the end."""
        tree = LSMTree(
            LSMTuning(5.0, 5.0, Policy.TIERING), _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        recorder = _SyscallRecorder(monkeypatch)
        tree.bulk_load(np.arange(0, 20_000, 11))
        assert sum(len(runs) for runs in tree.levels) == 3
        assert recorder.syncs == [("fsync", "MANIFEST.json")]
        tree.dispose()

    @pytest.mark.parametrize("sync_writes", [False, True])
    def test_close_swaps_the_manifest_once(self, tmp_path, monkeypatch, sync_writes):
        """Closing rolls the log of one record per commit down to the last."""
        tree = LSMTree(
            self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db", sync_writes=sync_writes),
        )
        for key in range(3 * tree.buffer_entries):
            tree.put(key)
        path = tmp_path / "db" / "MANIFEST.json"
        assert path.read_bytes().count(b"\n") == 4  # its creation and three flushes
        recorder = _SyscallRecorder(monkeypatch)
        tree.close()
        directory = [("fsync", "db")] if sync_writes else []
        assert recorder.syncs == [("fsync", "MANIFEST.tmp"), ("replace", "MANIFEST.json")] + directory
        record = {"version": MANIFEST_VERSION, "run_counter": tree._run_counter, "levels": [
            [run.path.name for run in runs] for runs in tree.levels
        ]}
        assert path.read_bytes() == json.dumps(record).encode() + b"\n"
        assert not (tmp_path / "db" / "MANIFEST.tmp").exists()


class TestDiskLayout:
    """The bytes a fixed trace leaves on disk: names, manifest, log."""

    def test_directory_listing_manifest_and_log_after_a_fixed_trace(self, tmp_path):
        tree = LSMTree(
            LSMTuning(5.0, 5.0, Policy.LEVELING), _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        tree.bulk_load(np.arange(0, 2_000, 7))
        for key in range(5_000, 5_000 + 2 * tree.buffer_entries + 2):
            tree.put(key)
        tree.put(5_000)  # an update of a flushed key
        tree.close()
        runs = [[run.path.name for run in runs] for runs in tree.levels]
        assert runs == [["run-00000004.sst"], [], ["run-00000001.sst"]]
        files = {"MANIFEST.json", "wal.log", *(name for level in runs for name in level)}
        assert {path.name for path in (tmp_path / "db").iterdir()} == files
        manifest = (tmp_path / "db" / "MANIFEST.json").read_text()
        assert manifest.count("\n") == 1  # closing rolled the log to one record
        assert json.loads(manifest) == {
            "version": MANIFEST_VERSION, "run_counter": 4, "levels": runs
        }
        # A table file is 8-byte records (little-endian int64 keys)
        # from offset 0, two int64 per page of sparse index, the filter's bit
        # table and the 72-byte trailer.
        table = tree.levels[2][0]
        assert (table.num_entries, table.num_pages) == (286, 72)
        filter_bytes = (table.filter_size_bits + 7) // 8
        size = (tmp_path / "db" / "run-00000001.sst").stat().st_size
        assert size == 8 * 286 + 16 * 72 + filter_bytes + 72
        # The log holds exactly the writes since the last flush, in arrival
        # order and the same record format.
        last = 5_000 + 2 * tree.buffer_entries
        expected = b"".join(
            key.to_bytes(8, "little", signed=True) for key in [last, last + 1, 5_000]
        )
        assert (tmp_path / "db" / "wal.log").read_bytes() == expected


    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_a_directory_of_an_older_version_is_refused(self, tmp_path, monkeypatch, version):
        """Neither the three-file layout, nor a manifest swapped in whole at
        every commit (one JSON object and no newline in both), nor 9-byte
        records (a key and a deletion flag) in a manifest log of version 3 is
        read any more: the manifest says so before the log or a table is
        read, and the log is left as it was."""
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        tree = LSMTree(tuning, _SYSTEM, store=FileStore(tmp_path / "db"))
        for key in range(tree.buffer_entries + 3):
            tree.put(key)
        tree.close()
        manifest_path = tmp_path / "db" / "MANIFEST.json"
        manifest = json.dumps(json.loads(manifest_path.read_text()) | {"version": version})
        manifest_path.write_text(manifest + "\n" if version == 3 else manifest)
        # Three logged writes as version 3 wrote them: a torn record to this one.
        log = b"".join(key.to_bytes(8, "little") + b"\0" for key in range(3))
        (tmp_path / "db" / "wal.log").write_bytes(log)

        def unread(*args, **kwargs):
            raise AssertionError("an older directory's log or table was read")

        monkeypatch.setattr(WriteAheadLog, "replay", unread)
        monkeypatch.setattr(SSTable, "open", unread)
        with pytest.raises(ValueError, match=f"has version {version}, expected 4"):
            LSMTree(tuning, _SYSTEM, store=FileStore(tmp_path / "db"))
        assert (tmp_path / "db" / "wal.log").read_bytes() == log


    def test_a_log_without_a_manifest_is_dropped_by_the_open_that_ignores_it(self, tmp_path):
        """Regression: a directory holding a ``wal.log`` but no manifest opened
        as a fresh tree that ignored the log, and the next reopen replayed it
        (3 buffered keys, ``get(101)`` true)."""
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        (tmp_path / "db").mkdir()
        log = b"".join(key.to_bytes(8, "little") for key in (101, 102, 103))
        (tmp_path / "db" / "wal.log").write_bytes(log)
        tree = LSMTree(tuning, _SYSTEM, store=FileStore(tmp_path / "db"))
        assert len(tree.memtable) == 0 and not tree.get(101)
        tree.close()
        reopened = LSMTree(tuning, _SYSTEM, store=FileStore(tmp_path / "db"))
        assert len(reopened.memtable) == 0 and not reopened.get(101)
        reopened.close()

class TestManifestLog:
    """The manifest is an append-only log of whole-structure records: a torn
    last record is skipped and cut off, a log without a complete record is
    refused, and a log past ``MANIFEST_ROLL_BYTES`` rolls down to one record."""

    _TUNING = LSMTuning(5.0, 5.0, Policy.LEVELING)

    def _tree(self, directory, store=None) -> LSMTree:
        store = FileStore(directory) if store is None else store
        return LSMTree(self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3, store=store)

    @staticmethod
    def _levels(tree: LSMTree) -> list[list[str]]:
        return [[run.path.name for run in runs] for runs in tree.levels]

    def test_a_torn_last_record_recovers_the_previous_commit(self, tmp_path):
        """A kill mid-append, with the log not rewritten yet: the manifest is
        cut at every byte inside the record the flush was appending, and its
        last line is garbled instead."""
        store = _StoppableStore(tmp_path / "db")
        tree = self._tree(tmp_path / "db", store)
        tree.bulk_load(np.arange(0, 20_000, 11))
        # One flush, then a buffer one short of the next.
        writes = list(range(50_000, 50_000 + 2 * tree.buffer_entries - 1))
        for key in writes:
            tree.put(key)
        previous = self._levels(tree)
        store.stop_at = "manifest appended"
        writes.append(writes[-1] + 1)
        with pytest.raises(_FlushCrash):
            tree.put(writes[-1])
        store.abandon()
        reference = LSMTree(self._TUNING, _SYSTEM, disk=VirtualDisk(), seed=3)
        reference.bulk_load(np.arange(0, 20_000, 11))
        for key in writes:
            reference.put(key)
        probe = np.r_[np.arange(0, 22_000, 7), np.array(writes)]

        data = (tmp_path / "db" / "MANIFEST.json").read_bytes()
        torn = data.rfind(b"\n", 0, len(data) - 1) + 1  # where the last append began
        assert json.loads(data[torn:])["levels"] != previous
        images = [data[:cut] for cut in range(torn, len(data))]
        images.append(data[:-2] + b"\n")  # a newline, but no closing brace
        for number, image in enumerate(images):
            directory = tmp_path / f"image-{number}"
            shutil.copytree(tmp_path / "db", directory)
            (directory / "MANIFEST.json").write_bytes(image)
            recovered = self._tree(directory)
            assert self._levels(recovered) == previous
            _assert_no_orphan_files(recovered)
            _assert_same_answers(reference, recovered, probe)
            # The torn bytes were cut off: the next commit's record follows
            # the previous one.
            recovered.flush()
            appended = (directory / "MANIFEST.json").read_bytes()
            assert appended[:torn] == data[:torn]
            assert json.loads(appended[torn:]) == {
                "version": MANIFEST_VERSION,
                "run_counter": recovered._run_counter,
                "levels": self._levels(recovered),
            }
            recovered.store.abandon()
            reopened = self._tree(directory)
            _assert_same_answers(reference, reopened, probe)
            reopened.dispose()

    def test_a_manifest_of_only_a_torn_record_is_refused(self, tmp_path):
        """Never opened as an empty tree: such a log names no structure."""
        tree = self._tree(tmp_path / "db")
        for key in range(tree.buffer_entries):
            tree.put(key)
        tree.close()
        path = tmp_path / "db" / "MANIFEST.json"
        data = path.read_bytes()
        for cut in (0, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="holds no complete record"):
                self._tree(tmp_path / "db")

    @needs_proc
    def test_a_log_past_the_roll_bound_rolls_to_one_record(self, tmp_path, monkeypatch):
        bound = 400
        monkeypatch.setattr(persistent_store, "MANIFEST_ROLL_BYTES", bound)
        tree = self._tree(tmp_path / "db")
        recorder = _SyscallRecorder(monkeypatch)
        for key in range(12 * tree.buffer_entries):
            tree.put(key)
        # Every flush appends one record or, when that would pass the bound,
        # swaps the log for a file of its one record.
        commits = [
            event for event in recorder.syncs
            if event in (("fsync", "MANIFEST.json"), ("replace", "MANIFEST.json"))
        ]
        assert len(commits) == 12
        rolls = commits.count(("replace", "MANIFEST.json"))
        assert rolls >= 2
        data = (tmp_path / "db" / "MANIFEST.json").read_bytes()
        assert len(data) <= bound
        since_roll = commits[::-1].index(("replace", "MANIFEST.json"))
        assert data.count(b"\n") == 1 + since_roll and data.endswith(b"\n")
        assert json.loads(data.splitlines()[-1])["levels"] == self._levels(tree)
        tree.store.abandon()
        recovered = self._tree(tmp_path / "db")
        assert self._levels(recovered) == self._levels(tree)
        assert recovered.get_many(np.arange(12 * tree.buffer_entries)).all()
        recovered.dispose()


class TestExecutorIntegration:
    def test_persistent_backend_measurements_match_simulated(
        self, session_generator, w11
    ):
        """The measurement harness reports byte-identical numbers on both
        backends — the persistent substrate changes wall-clock time only."""
        from repro.storage import ExecutorConfig, WorkloadExecutor

        system = simulator_system(num_entries=2_000)
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        tuning = LSMTuning(5.0, 5.0, Policy.LEVELING)
        results = {}
        for backend in ("simulated", "persistent"):
            executor = WorkloadExecutor(
                system,
                ExecutorConfig(queries_per_workload=150, seed=5, backend=backend),
            )
            results[backend] = executor.run_sequence(tuning, sequence)
        assert results["simulated"] == results["persistent"]

    def test_persistent_trees_are_disposed_after_a_sequence(
        self, session_generator, w11, tmp_path
    ):
        from repro.storage import ExecutorConfig, WorkloadExecutor

        system = simulator_system(num_entries=2_000)
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        executor = WorkloadExecutor(
            system,
            ExecutorConfig(
                queries_per_workload=100, seed=5,
                backend="persistent", data_dir=str(tmp_path / "trees"),
            ),
        )
        executor.run_sequence(LSMTuning(5.0, 5.0, Policy.LEVELING), sequence)
        # A user-chosen data dir keeps the closed tree for inspection.
        kept = list((tmp_path / "trees").glob("tree-*"))
        assert len(kept) == 1
        assert (kept[0] / "MANIFEST.json").exists()

    def test_executor_config_rejects_unknown_backend(self):
        from repro.storage import ExecutorConfig

        with pytest.raises(ValueError, match="backend"):
            ExecutorConfig(backend="rocksdb")

    def test_adaptive_migration_stays_persistent(self, tmp_path):
        """The online controller's replacement trees come from the live
        tree's ``successor`` factory: a tree on files migrates to a tree on
        files in a fresh sibling directory, and ``dispose`` deletes a
        superseded tree's directory."""
        tree = LSMTree(
            LSMTuning(5.0, 5.0, Policy.LEVELING), _SYSTEM, disk=VirtualDisk(), seed=3,
            store=FileStore(tmp_path / "db"),
        )
        replacement = tree.successor(
            LSMTuning(4.0, 4.0, Policy.TIERING), seed=17
        )
        assert isinstance(replacement.store, FileStore)
        assert replacement.disk is tree.disk
        sibling_dir = replacement.store.data_dir
        assert sibling_dir != tree.store.data_dir
        assert sibling_dir.parent == tree.store.data_dir.parent
        assert (sibling_dir / "MANIFEST.json").exists()
        replaced_dir = tree.store.data_dir
        tree.dispose()
        assert not replaced_dir.exists()
        replacement.dispose()
        assert not sibling_dir.exists()
