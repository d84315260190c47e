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

#: Manifest schema version, bumped on incompatible layout changes.  Version 1
#: directories (a table as an ``.sst`` plus index and filter sidecar files),
#: version 2 ones (a manifest of one JSON object, swapped in whole at every
#: commit) and version 3 ones (9-byte table and log records: a key and a
#: deletion flag) are refused by it before their log or tables are read; a
#: bare old ``.sst`` also lacks the trailer magic.
MANIFEST_VERSION = 4

#: Size past which a commit rolls the manifest log down to its one record
#: instead of appending to it.
MANIFEST_ROLL_BYTES = 1 << 20


def _record(manifest: dict) -> bytes:
    """``manifest`` as one line of the manifest log."""
    return json.dumps(manifest).encode() + b"\n"


def _last_record(data: bytes) -> tuple[dict, int] | None:
    """The last complete record of a manifest log and the log's length up to
    and including it, or ``None`` if the log holds none.

    Only the last line can be torn, by an append cut short: one without its
    newline, or one whose bytes do not parse, is skipped.
    """
    end = data.rfind(b"\n") + 1  # what follows the last newline is torn
    start = data.rfind(b"\n", 0, max(end - 1, 0)) + 1
    if end:
        try:
            return json.loads(data[start:end]), end
        except ValueError:  # a torn last line: the one before it is whole
            pass
    if not start:
        return None
    previous = data.rfind(b"\n", 0, start - 1) + 1
    return json.loads(data[previous:start]), start


def _fsync_path(path: Path) -> None:
    """``fsync`` a file — or a directory, making its entries durable."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class FileStore:
    """Run store of one tree under ``data_dir`` (created if missing): runs are
    :class:`SSTable` files, writes go to a :class:`WriteAheadLog`, and a
    manifest names the installed runs so the tree survives restarts and kills.

    **Acknowledgement point.**  ``log`` appends the write to the log before
    the tree buffers it; a write is acknowledged once ``log`` returns.

    **The manifest** is an append-only log of records, one JSON line each.  A
    record is the whole structure — ``version``, ``run_counter`` and the table
    names of every level — and the last complete one is what recovery opens.
    It is replaced whole (one record written to ``MANIFEST.tmp``, synced and
    renamed over ``MANIFEST.json``) in three places only: when the store
    creates it, at ``close``, and when a commit's record would take it past
    :data:`MANIFEST_ROLL_BYTES`.  A kill around a swap leaves the old log or
    the new one-record file, each ending on a complete record.

    **Commit order.**  The one table a flush adds (a bulk load: its tables) was
    written by ``create_run`` before ``commit`` is called; ``commit`` then (1)
    appends the new record to the manifest with one ``write`` and syncs it,
    (2) rewrites the log to the records the memtable still holds, (3) deletes
    the tables the new record no longer references.  A crash at any point
    recovers to a consistent tree: before (1) completes, the previous record
    and the intact log reproduce the previous structure and every
    acknowledged write — a record torn mid-append is skipped, and cut off on
    reopen — and the freshly written table is swept as an orphan; between
    (1) and (2) the new record is authoritative and the stale log re-applies
    writes the flushed run already holds, which reads absorb as updates;
    between (2) and (3) only unreferenced files are left over, and recovery
    sweeps them.

    ``sync_writes`` makes that hold across an *operating-system* crash too:
    the log ``fsync``s every append; before a commit appends its record,
    the new table's file is synced and then the directory, because syncing
    a file does not make its directory entry durable — else the record could
    name a table a power cut took away, after the log was truncated; and the
    directory is synced again after a swap, whose rename changes an entry.
    Without ``sync_writes`` (the default, and what the benchmark
    runs) only the manifest's contents are synced, and a flush is one
    ``write`` and one ``fsync`` of it: everything survives a process kill,
    not a power cut.
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
        #: The structure as last committed; what ``close`` rolls the manifest to.
        self._manifest = {"version": MANIFEST_VERSION, "run_counter": 0, "levels": []}
        self._manifest_path = self.data_dir / self.MANIFEST_NAME
        #: The descriptor commits append to, and the manifest log's length.
        self._manifest_fd: int | None = None
        self._manifest_size = 0
        #: Opened by :meth:`recover` once the manifest's version is known, as
        #: opening it cuts a record the version's format calls torn.
        self._wal: WriteAheadLog | None = None

    # ------------------------------------------------------------------
    # Runs and writes
    # ------------------------------------------------------------------
    def create_run(
        self, keys: np.ndarray, run_id: int, entries_per_page: int, bits_per_entry: float, seed: int
    ) -> SSTable:
        """Write run number ``run_id`` as an SSTable and track it."""
        path = self.data_dir / f"run-{run_id:08d}.sst"
        table = SSTable.create(path, keys, entries_per_page, bits_per_entry, seed)
        self._tables[table.path.name] = table
        if self.sync_writes:
            _fsync_path(table.path)
        return table

    def log(self, key: int) -> None:
        """Record one write; it is acknowledged when this returns."""
        self._wal.append(key)

    # ------------------------------------------------------------------
    # Commit + recovery
    # ------------------------------------------------------------------
    def commit(
        self,
        levels: list[list[SSTable]],
        run_counter: int,
        buffered: Iterable[int] | None,
    ) -> None:
        """Make ``levels`` the durable structure (order: see the class docs)."""
        manifest = {
            "version": MANIFEST_VERSION,
            "run_counter": run_counter,
            "levels": [[run.path.name for run in runs] for runs in levels],
        }
        if self.sync_writes:  # the new tables' directory entries
            _fsync_path(self.data_dir)
        self._append_manifest(manifest)
        self._manifest = manifest
        if buffered is not None:
            self._rewrite_log(buffered)
        self._collect_garbage()

    def _append_manifest(self, manifest: dict) -> None:
        """Append ``manifest`` to the manifest log with one ``write``, and sync it.

        A record that would take the log past :data:`MANIFEST_ROLL_BYTES`
        replaces it instead.  A write that fails or comes up short is cut off
        again, so the log ends on the previous record.
        """
        record = _record(manifest)
        if self._manifest_size + len(record) > MANIFEST_ROLL_BYTES:
            self._swap_manifest(record)
            return
        descriptor = self._manifest_fd
        try:
            if os.write(descriptor, record) != len(record):
                raise OSError(errno.EIO, "short write of the manifest", str(self._manifest_path))
            os.fsync(descriptor)
        except BaseException:
            os.ftruncate(descriptor, self._manifest_size)
            raise
        self._manifest_size += len(record)

    def _swap_manifest(self, record: bytes) -> None:
        """Atomically replace the manifest log with the one ``record``.

        The record is one ``write`` to a temporary file, synced, then renamed
        over the log, and the temporary file's descriptor is the one later
        commits append to; a write that fails or comes up short leaves the old
        log in place and neither the temporary file nor its descriptor behind.
        """
        tmp = self._manifest_path.with_suffix(".tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND
        descriptor = os.open(tmp, flags, 0o666)
        try:
            if os.write(descriptor, record) != len(record):
                raise OSError(errno.EIO, "short write of the manifest", str(tmp))
            os.fsync(descriptor)
            os.replace(tmp, self._manifest_path)
        except BaseException:
            os.close(descriptor)
            os.unlink(tmp)
            raise
        self._close_manifest()
        self._manifest_fd, self._manifest_size = descriptor, len(record)
        if self.sync_writes:
            _fsync_path(self.data_dir)

    def _open_manifest(self) -> dict:
        """The manifest log's last complete record, with the log opened for
        appending and a torn append after that record cut off."""
        data = self._manifest_path.read_bytes()
        found = _last_record(data)
        if found is None:
            # Up to version 2 the manifest was one JSON object and no newline;
            # a current record without its newline is a torn append.
            try:
                legacy = json.loads(data)
            except ValueError:
                legacy = {}
            if legacy.get("version", MANIFEST_VERSION) == MANIFEST_VERSION:
                raise ValueError(f"manifest {self._manifest_path} holds no complete record")
            found = legacy, len(data)
        manifest, end = found
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"manifest {self._manifest_path} has version "
                f"{manifest.get('version')!r}, expected {MANIFEST_VERSION}"
            )
        self._manifest_fd = os.open(self._manifest_path, os.O_WRONLY | os.O_APPEND)
        self._manifest_size = end
        if end < len(data):
            os.ftruncate(self._manifest_fd, end)
            if self.sync_writes:
                os.fsync(self._manifest_fd)
        return manifest

    def _close_manifest(self) -> None:
        if self._manifest_fd is not None:
            os.close(self._manifest_fd)
            self._manifest_fd = None

    def _rewrite_log(self, buffered: Iterable[int]) -> None:
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

    def recover(self) -> tuple[list[list[SSTable]], int, list[int]] | None:
        """Reopen what an earlier tree left in the directory, and open its log.

        Returns the installed runs, the run counter and the logged keys no
        flush had persisted — or ``None`` for a directory without a
        manifest, which gets its first (empty) one and an empty log (the
        next reopen would replay what this one ignored).  A manifest of
        another version is refused before the log or a table is touched.
        """
        wal_path = self.data_dir / self.WAL_NAME
        if not self._manifest_path.exists():
            self._wal = WriteAheadLog(wal_path, sync=self.sync_writes)
            self._wal.reset()
            self._swap_manifest(_record(self._manifest))
            return None
        try:
            manifest = self._open_manifest()
            for name in (name for level in manifest["levels"] for name in level):
                self._tables[name] = SSTable.open(self.data_dir / name)
            self._wal = WriteAheadLog(wal_path, sync=self.sync_writes)
        except BaseException:
            # Release the tables opened before the one that failed, and the logs.
            self.abandon()
            raise
        self._manifest = manifest
        levels = [[self._tables[name] for name in level] for level in manifest["levels"]]
        logged = self._wal.replay()
        # Files no table of this process owns: a crash stranded them between
        # SSTable creation and manifest append, or before garbage collection.
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
        """Roll the manifest down to the committed structure's one record and
        release every handle."""
        self._swap_manifest(_record(self._manifest))
        self.abandon()

    def abandon(self) -> None:
        """Drop every handle *without* syncing anything — a process kill.

        The manifest is left as the last commit wrote it, so reopening the
        directory exercises the real recovery path (manifest + log replay +
        orphan sweep).
        """
        if self._wal is not None:
            self._wal.close()
        self._close_manifest()
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
