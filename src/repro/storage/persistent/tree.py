"""A persistent LSM tree: the simulated engine's structure, on real files.

:class:`PersistentLSMTree` subclasses :class:`~repro.storage.lsm_tree.LSMTree`
and swaps only the storage substrate: runs become on-disk
:class:`~repro.storage.persistent.sstable.SSTable` files, writes are logged
to a :class:`~repro.storage.persistent.wal.WriteAheadLog` before touching the
memtable, and a JSON manifest records the installed runs so the tree survives
process restarts (and crashes — see :meth:`simulate_crash`).

Everything *above* the substrate — flush triggers, per-level run bounds,
compaction cascades, Monkey filter allocation, Bloom seeds, page accounting —
is inherited unchanged, which is the point: for any operation trace the
persistent tree holds the same runs with the same contents and charges the
same virtual-disk counters as the simulated tree, while its wall-clock time
now reflects real file I/O.  The benchmark harness leans on exactly this
pairing to check that the cost model's ranking of tunings matches measured
time.

Crash consistency follows the classic recipe.  A write is acknowledged only
after its WAL append.  A flush first materialises the new SSTables (the
flushed run plus any compaction outputs), then atomically replaces the
manifest, then truncates the WAL, then deletes the files the new manifest no
longer references.  A crash anywhere in that sequence recovers to a
consistent state: before the manifest swap the old manifest plus the intact
WAL reproduce the pre-flush tree (freshly written files are swept as
orphans); after it, the new manifest is authoritative and the WAL records it
obsoletes are redundant re-applications at worst — they were flushed, so
replaying them into the memtable is avoided by the truncation that follows,
and if the crash lands between swap and truncation the replayed entries are
duplicates of what the flushed run already holds, which newest-wins reads
absorb.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ...lsm.system import SystemConfig
from ...lsm.tuning import LSMTuning
from ..disk import VirtualDisk
from ..lsm_tree import LSMTree
from ..run import consolidate_versions
from .sstable import SSTable
from .wal import WriteAheadLog

#: Manifest schema version, bumped on incompatible layout changes.
MANIFEST_VERSION = 1


class PersistentLSMTree(LSMTree):
    """LSM tree whose runs are SSTable files under ``data_dir``.

    Parameters
    ----------
    tuning, system, disk, seed:
        As for :class:`~repro.storage.lsm_tree.LSMTree`; the virtual disk
        keeps recording page counts so model-vs-measurement comparisons stay
        byte-aligned with the simulated backend.
    data_dir:
        Directory holding the tree's files (created if missing).  If it
        already contains a manifest, the tree *recovers*: installed runs are
        reopened from their SSTables and un-flushed writes are replayed from
        the write-ahead log.
    sync_writes:
        Whether the WAL ``fsync``s every append (durability against OS
        crashes, at a steep wall-clock cost; the benchmark measures both).
    """

    MANIFEST_NAME = "MANIFEST.json"
    WAL_NAME = "wal.log"

    def __init__(
        self,
        tuning: LSMTuning,
        system: SystemConfig,
        data_dir: str | os.PathLike[str],
        disk: VirtualDisk | None = None,
        seed: int = 1,
        sync_writes: bool = False,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: Benchmark knob: when False, arriving runs stack without merging —
        #: the classic "compaction off" regime of engine benchmarks.  Reads
        #: stay correct (newest-wins consolidation is unconditional), only
        #: the structure degrades.  Leave True for backend-parity runs.
        self.compaction_enabled = True
        #: Every SSTable this tree holds a descriptor on, by file name — the
        #: installed runs plus those a compaction replaced since the last
        #: manifest swap.
        self._tables: dict[str, SSTable] = {}
        super().__init__(tuning=tuning, system=system, disk=disk, seed=seed)
        self._manifest_path = self.data_dir / self.MANIFEST_NAME
        self._wal = WriteAheadLog(self.data_dir / self.WAL_NAME, sync=sync_writes)
        if self._manifest_path.exists():
            self._recover()
        else:
            self._sync_manifest()

    # ------------------------------------------------------------------
    # Storage substrate overrides
    # ------------------------------------------------------------------
    def _sst_path(self, run_id: int) -> Path:
        return self.data_dir / f"run-{run_id:08d}.sst"

    def _new_run(self, keys: np.ndarray, tombstones: np.ndarray, level: int) -> SSTable:
        self._run_counter += 1
        return self._create_table(keys, tombstones, level)

    def _create_table(
        self, keys: np.ndarray, tombstones: np.ndarray, level: int
    ) -> SSTable:
        """Write the SSTable of run number ``_run_counter`` and track it."""
        table = SSTable.create(
            self._sst_path(self._run_counter),
            keys=keys,
            tombstones=tombstones,
            entries_per_page=self.entries_per_page,
            bits_per_entry=self._bits_for_level(level),
            seed=self._seed + self._run_counter,
        )
        self._tables[table.path.name] = table
        return table

    def _merged_run(
        self, runs: list[SSTable], target_level: int, drop_tombstones: bool
    ) -> SSTable:
        """Compact by reading the input SSTables and writing a new one.

        ``_merge_runs`` already bumped the run counter and owns the I/O
        accounting; the input tables become garbage once the caller installs
        the output, and are closed and deleted after the next manifest sync.
        """
        key_parts: list[np.ndarray] = []
        tombstone_parts: list[np.ndarray] = []
        for run in runs:
            run_keys, run_tombstones = run.entries()
            key_parts.append(run_keys)
            tombstone_parts.append(run_tombstones)
        keys, tombstones = consolidate_versions(
            key_parts, tombstone_parts, drop_tombstones=drop_tombstones
        )
        return self._create_table(keys, tombstones, target_level)

    def _install_run(self, run, level: int) -> None:
        if self.compaction_enabled:
            super()._install_run(run, level)
            return
        self._ensure_level(level)
        self.levels[level - 1].insert(0, run)

    # ------------------------------------------------------------------
    # Durability hooks
    # ------------------------------------------------------------------
    def put(self, key: int) -> None:
        """Insert or update a key, logging it before it is applied."""
        self._wal.append(key, tombstone=False)
        super().put(key)

    def delete(self, key: int) -> None:
        """Delete a key, logging the tombstone before it is applied."""
        self._wal.append(key, tombstone=True)
        super().delete(key)

    def flush(self) -> None:
        """Flush the memtable to an SSTable and persist the new structure."""
        if self.memtable.is_empty:
            return
        super().flush()
        self._sync_manifest()
        self._wal.reset()
        self._collect_garbage()

    def bulk_load(self, keys: np.ndarray) -> None:
        """Bulk load and persist; leftover memtable keys are re-logged."""
        super().bulk_load(keys)
        self._sync_manifest()
        # The base loader puts leftovers straight into the memtable; rebuild
        # the log from the memtable so those writes survive a crash too.
        self._wal.reset()
        buffered_keys, buffered_tombstones = self.memtable.sorted_items()
        self._wal.append_many(
            zip(buffered_keys.tolist(), buffered_tombstones.tolist())
        )
        self._collect_garbage()

    def install_bulk_run(self, keys: np.ndarray, level: int) -> None:
        """Install one bulk-planned run and persist it (migration step)."""
        super().install_bulk_run(keys, level)
        self._sync_manifest()
        self._collect_garbage()

    # ------------------------------------------------------------------
    # Manifest + recovery
    # ------------------------------------------------------------------
    def _sync_manifest(self) -> None:
        """Atomically replace the manifest with the current structure."""
        manifest = {
            "version": MANIFEST_VERSION,
            "run_counter": self._run_counter,
            "levels": [
                [run.path.name for run in runs] for runs in self.levels
            ],
        }
        tmp_path = self._manifest_path.with_suffix(".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._manifest_path)

    def _recover(self) -> None:
        """Rebuild the tree from the manifest and the write-ahead log."""
        with open(self._manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"manifest {self._manifest_path} has version "
                f"{manifest.get('version')!r}, expected {MANIFEST_VERSION}"
            )
        self._run_counter = int(manifest["run_counter"])
        self.levels = [
            [SSTable.open(self.data_dir / name) for name in level]
            for level in manifest["levels"]
        ]
        self._tables = {run.path.name: run for runs in self.levels for run in runs}
        # Un-flushed (acknowledged but not yet persisted) writes live in the
        # log; replaying them rebuilds the memtable the crash wiped out.
        for key, tombstone in self._wal.replay():
            if tombstone:
                self.memtable.delete(key)
            else:
                self.memtable.put(key)
        # Files a crash stranded between SSTable creation and manifest swap.
        self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Delete SSTable files the manifest no longer references.

        Called after a manifest swap.  Tables a compaction replaced are
        closed before their files go — an unlinked file keeps its blocks, and
        the process its descriptor, for as long as it stays open.  The glob
        sweep that follows catches files no table of this process owns:
        orphans of a crash between SSTable creation and manifest swap.
        """
        live = {run.path.name for runs in self.levels for run in runs}
        for name in self._tables.keys() - live:
            self._tables.pop(name).delete_files()
        for data_path in self.data_dir.glob("run-*.sst"):
            if data_path.name not in live:
                for stale in (
                    data_path,
                    data_path.with_suffix(".index.npz"),
                    data_path.with_suffix(".filter.npz"),
                ):
                    stale.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def successor(self, tuning: LSMTuning, seed: int) -> "PersistentLSMTree":
        """An empty persistent tree in a fresh sibling directory.

        Shares this tree's virtual disk (migration I/O lands on the stream's
        counters) and inherits the WAL sync setting.  The directory name is
        uniquified so repeated migrations never collide.
        """
        data_dir = Path(
            tempfile.mkdtemp(prefix=f"{self.data_dir.name}-gen", dir=self.data_dir.parent)
        )
        return PersistentLSMTree(
            tuning=tuning,
            system=self.system,
            data_dir=data_dir,
            disk=self.disk,
            seed=seed,
            sync_writes=self._wal.sync,
        )

    def dispose(self) -> None:
        """Close the superseded tree and delete its data directory."""
        self.destroy()

    def close(self) -> None:
        """Persist the current structure and release every file handle.

        The memtable is *not* flushed: its contents are covered by the WAL,
        so a reopened tree recovers them without perturbing the structure
        (and the disk counters) the trace produced.
        """
        self._sync_manifest()
        self._close_files()

    def _close_files(self) -> None:
        self._wal.close()
        for table in self._tables.values():
            table.close()

    def simulate_crash(self) -> None:
        """Drop every handle *without* syncing anything — a process kill.

        For recovery tests: unlike :meth:`close` the manifest is left as the
        last flush wrote it, so reopening the directory exercises the real
        recovery path (manifest + WAL replay + orphan sweep).
        """
        self._close_files()

    def destroy(self) -> None:
        """Close the tree and delete its entire data directory."""
        self.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
