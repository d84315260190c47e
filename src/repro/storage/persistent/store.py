"""The run store on real files: SSTables, a write-ahead log and a manifest.

:class:`FileStore` is what an :class:`~repro.storage.lsm_tree.LSMTree` owns
when its runs live in a directory (the calls are listed on
:class:`~repro.storage.run.MemoryStore`).  Nothing of the engine is here —
flush triggers, run bounds, compaction cascades, filter allocation, Bloom
seeds and page accounting are the tree's, identical on every store — which
is why time measured on files can be set against the cost model's ranking.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from ...lsm.system import SystemConfig
from ...lsm.tuning import LSMTuning
from ..disk import VirtualDisk
from ..lsm_tree import LSMTree
from .sstable import SSTable
from .wal import WriteAheadLog

#: Manifest schema version, bumped on incompatible layout changes.
MANIFEST_VERSION = 2


def _fsync_path(path: Path) -> None:
    """``fsync`` a file — or a directory, making its entries durable."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class FileStore:
    """Run store of one tree under ``data_dir`` (created if missing): runs are
    :class:`SSTable` files, writes go to a :class:`WriteAheadLog`, and a JSON
    manifest names the installed runs so the tree survives restarts and kills.

    **Acknowledgement point.**  ``log`` appends the write to the log before
    the tree buffers it; a write is acknowledged once ``log`` returns.

    **Commit order.**  The one table a flush adds (a bulk load: its tables) was
    written by ``create_run`` before ``commit`` is called; ``commit`` then (1)
    atomically replaces the manifest, (2) rewrites the log to the records the
    memtable still holds, (3) deletes the tables the new manifest no longer
    references.  A crash at any point recovers to a consistent tree: before
    (1) the old manifest and the intact log reproduce the previous structure
    and every acknowledged write, and the freshly written table is swept as
    an orphan; between (1) and (2) the new manifest is authoritative and the
    stale log re-applies writes the flushed run already holds, which
    newest-wins reads absorb; between (2) and (3) only unreferenced files are
    left over, and recovery sweeps them.

    ``sync_writes`` makes that hold across an *operating-system* crash too:
    the log ``fsync``s every append, the new table's file is synced before
    the manifest that names it is swapped in, and the directory is synced
    after the swap.  Without it (the default, and what the benchmark
    runs) only the manifest's contents are synced and a flush is one
    ``fsync``: everything survives a process kill, not a power cut.
    """

    MANIFEST_NAME = "MANIFEST.json"
    WAL_NAME = "wal.log"

    def __init__(
        self, data_dir: str | os.PathLike[str], sync_writes: bool = False
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.sync_writes = sync_writes
        #: Every SSTable this store holds a descriptor on, by file name — the
        #: installed runs plus, until the commit, those a flush's merges
        #: replaced.
        self._tables: dict[str, SSTable] = {}
        #: The structure as last committed; what ``close`` persists again.
        self._manifest = {"version": MANIFEST_VERSION, "run_counter": 0, "levels": []}
        self._manifest_path = self.data_dir / self.MANIFEST_NAME
        #: The swap's two names as strings: every commit opens and renames them.
        self._manifest_file = str(self._manifest_path)
        self._manifest_tmp = str(self._manifest_path.with_suffix(".tmp"))
        self._wal = WriteAheadLog(self.data_dir / self.WAL_NAME, sync=sync_writes)

    # ------------------------------------------------------------------
    # Runs and writes
    # ------------------------------------------------------------------
    def create_run(
        self,
        keys: np.ndarray,
        tombstones: np.ndarray,
        run_id: int,
        entries_per_page: int,
        bits_per_entry: float,
        seed: int,
    ) -> SSTable:
        """Write run number ``run_id`` as an SSTable and track it."""
        path = self.data_dir / f"run-{run_id:08d}.sst"
        table = SSTable.create(path, keys, tombstones, entries_per_page, bits_per_entry, seed)
        self._tables[table.path.name] = table
        if self.sync_writes:
            _fsync_path(table.path)
        return table

    def log(self, key: int, tombstone: bool) -> None:
        """Record one write; it is acknowledged when this returns."""
        self._wal.append(key, tombstone)

    # ------------------------------------------------------------------
    # Commit + recovery
    # ------------------------------------------------------------------
    def commit(
        self,
        levels: list[list[SSTable]],
        run_counter: int,
        buffered: Iterable[tuple[int, bool]] | None,
    ) -> None:
        """Make ``levels`` the durable structure (order: see the class docs)."""
        manifest = {
            "version": MANIFEST_VERSION,
            "run_counter": run_counter,
            "levels": [[run.path.name for run in runs] for runs in levels],
        }
        self._swap_manifest(manifest)
        self._manifest = manifest
        if buffered is not None:
            self._rewrite_log(buffered)
        self._collect_garbage()

    def _swap_manifest(self, manifest: dict) -> None:
        """Atomically replace the manifest file with ``manifest``.

        The new manifest is one ``write`` to a temporary file, synced, then
        renamed over the old one; a write that fails or comes up short leaves
        the old manifest in place and neither the temporary file nor its
        descriptor behind.
        """
        image = json.dumps(manifest).encode()
        tmp = self._manifest_tmp
        descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            if os.write(descriptor, image) != len(image):
                raise OSError(errno.EIO, "short write of the manifest", tmp)
            os.fsync(descriptor)
        except BaseException:
            os.close(descriptor)
            os.unlink(tmp)
            raise
        os.close(descriptor)
        os.replace(tmp, self._manifest_file)
        if self.sync_writes:
            _fsync_path(self.data_dir)

    def _rewrite_log(self, buffered: Iterable[tuple[int, bool]]) -> None:
        self._wal.reset()
        self._wal.append_many(buffered)

    def _collect_garbage(self) -> None:
        """Delete the tables the manifest no longer references.

        Tables a compaction replaced are closed before their files go — an
        unlinked file keeps its blocks, and the process its descriptor, for
        as long as it stays open.  Every table this process created is in
        ``_tables``, so nothing else can be stale after a commit.
        """
        live = {name for level in self._manifest["levels"] for name in level}
        for name in self._tables.keys() - live:
            self._tables.pop(name).delete_files()

    def recover(self) -> tuple[list[list[SSTable]], int, list[tuple[int, bool]]] | None:
        """Reopen what an earlier tree left in the directory.

        Returns the installed runs, the run counter and the logged writes no
        flush had persisted — or ``None`` for a directory without a
        manifest, which gets its first (empty) one.
        """
        if not self._manifest_path.exists():
            self._swap_manifest(self._manifest)
            return None
        manifest = json.loads(self._manifest_path.read_bytes())
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"manifest {self._manifest_path} has version "
                f"{manifest.get('version')!r}, expected {MANIFEST_VERSION}"
            )
        self._manifest = manifest
        try:
            for name in (name for level in manifest["levels"] for name in level):
                self._tables[name] = SSTable.open(self.data_dir / name)
        except BaseException:
            # Release the tables opened before the one that failed, and the log.
            self.abandon()
            raise
        levels = [[self._tables[name] for name in level] for level in manifest["levels"]]
        logged = self._wal.replay()
        # Files no table of this process owns: a crash stranded them between
        # SSTable creation and manifest swap, or before garbage collection.
        for path in self.data_dir.glob("run-*.sst"):
            if path.name not in self._tables:
                path.unlink()
        return levels, int(manifest["run_counter"]), logged

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sibling(self) -> "FileStore":
        """An empty store in a fresh directory next to this one.

        Inherits the sync setting; the directory name is uniquified so
        repeated migrations never collide.
        """
        data_dir = tempfile.mkdtemp(
            prefix=f"{self.data_dir.name}-gen", dir=self.data_dir.parent
        )
        return FileStore(data_dir, self.sync_writes)

    def close(self) -> None:
        """Persist the committed structure once more and release every handle."""
        self._swap_manifest(self._manifest)
        self.abandon()

    def abandon(self) -> None:
        """Drop every handle *without* syncing anything — a process kill.

        The manifest is left as the last commit wrote it, so reopening the
        directory exercises the real recovery path (manifest + log replay +
        orphan sweep).
        """
        self._wal.close()
        for table in self._tables.values():
            table.close()

    def destroy(self) -> None:
        """Release every handle and delete the entire data directory."""
        self.abandon()
        shutil.rmtree(self.data_dir, ignore_errors=True)


class PersistentLSMTree(LSMTree):
    """``LSMTree(..., store=FileStore(data_dir, sync_writes))`` under its old name.

    No engine method is overridden: this is the one tree on a
    :class:`FileStore`.  The name survives as constructor sugar because the
    frozen benchmark harness (``bench/workloads.py``) builds trees as
    ``PersistentLSMTree(tuning=, system=, data_dir=, sync_writes=)`` and calls
    ``.data_dir`` and ``.simulate_crash()`` on them.  If ``data_dir`` already
    holds a manifest the tree *recovers* from it.
    """

    def __init__(
        self,
        tuning: LSMTuning,
        system: SystemConfig,
        data_dir: str | os.PathLike[str],
        disk: VirtualDisk | None = None,
        seed: int = 1,
        sync_writes: bool = False,
    ) -> None:
        super().__init__(
            tuning, system, disk=disk, seed=seed, store=FileStore(data_dir, sync_writes)
        )

    @property
    def data_dir(self) -> Path:
        """Directory holding the tree's files."""
        return self.store.data_dir

    def simulate_crash(self) -> None:
        """Kill the tree: drop every handle, sync nothing (recovery tests)."""
        self.store.abandon()

    destroy = LSMTree.dispose
