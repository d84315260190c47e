"""Write-ahead log of the persistent LSM-tree backend.

Every ``put``/``delete`` is appended here *before* it touches the memtable,
so a crash loses nothing that was acknowledged: on reopen the log is
replayed into a fresh memtable.  The log only ever holds the writes since
the last successful flush — the flush that persists those entries as an
SSTable truncates it.

The record format is deliberately minimal (the reproduction's trees store
keys and tombstone flags, never values): 9 bytes per record, a little-endian
``int64`` key followed by one tombstone byte.  A torn trailing record —  the
classic crash-mid-append artefact — is detected by length and dropped during
replay.
"""

from __future__ import annotations

import errno
import os
import struct
from pathlib import Path
from typing import Iterable

#: One log record: little-endian int64 key + tombstone flag byte.
_RECORD = struct.Struct("<qB")


class WriteAheadLog:
    """Append-only durability log for memtable writes.

    Parameters
    ----------
    path:
        Location of the log file; created empty if missing.
    sync:
        Whether to ``fsync`` after every append.  Off by default (the
        benchmark measures both regimes); even without it, every append is a
        ``write`` straight to the OS — the log keeps no user-space buffer — so
        only an OS crash, not a process crash, can lose a record.
    """

    def __init__(self, path: str | os.PathLike[str], sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        # Unbuffered: each ``write`` of the file object is one raw ``write``.
        self._file = open(self.path, "ab", buffering=0)
        self._fd = self._file.fileno()
        # A torn trailing record (crash mid-append or mid-group) is dead on
        # arrival — replay drops it — but leaving its bytes in place would
        # misalign every record appended after reopen.  Truncate it away.
        size = os.fstat(self._fd).st_size
        if size % _RECORD.size:
            self._truncate(size - size % _RECORD.size)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _write(self, payload: bytes) -> None:
        """Append ``payload`` with one ``write``; a short one is undone and raises.

        Whatever part of the payload did land is cut off again, so the log
        ends on a whole record and the records before it stay readable.
        """
        written = self._file.write(payload)
        if written != len(payload):
            self._truncate(os.fstat(self._fd).st_size - written)
            raise OSError(errno.EIO, "short write of the write-ahead log", str(self.path))
        if self.sync:
            os.fsync(self._fd)

    def _truncate(self, size: int) -> None:
        os.ftruncate(self._fd, size)
        if self.sync:
            os.fsync(self._fd)

    def append(self, key: int, tombstone: bool = False) -> None:
        """Durably record one write before it is applied to the memtable."""
        self._write(_RECORD.pack(int(key), int(bool(tombstone))))

    def append_many(self, records: Iterable[tuple[int, bool]]) -> None:
        """Group-commit a batch of writes: one buffer, one ``write``, one fsync.

        Semantically identical to calling :meth:`append` per record — the
        records land in the log in order, and :meth:`replay` cannot tell the
        difference — but the whole batch is packed into a single buffer and
        pays a single ``write`` (plus at most one ``fsync``) instead of one
        per record.  Crash semantics carry over unchanged: the packed buffer
        is a plain concatenation of fixed-size records, so a crash mid-group
        tears at most the last record on a page boundary and replay's
        length-prefix truncation drops exactly the torn tail, keeping every
        complete record that preceded it.
        """
        payload = b"".join(
            _RECORD.pack(int(key), int(bool(tombstone)))
            for key, tombstone in records
        )
        if payload:
            self._write(payload)

    def reset(self) -> None:
        """Truncate the log (after its entries were flushed to an SSTable)."""
        self._truncate(0)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def replay(self) -> list[tuple[int, bool]]:
        """All records currently in the log, oldest first.

        A trailing partial record (crash mid-append) is silently dropped —
        the write it belonged to was never acknowledged.
        """
        data = self.path.read_bytes()
        complete = len(data) - len(data) % _RECORD.size
        return [
            (key, bool(tombstone))
            for key, tombstone in _RECORD.iter_unpack(data[:complete])
        ]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of complete records currently in the log."""
        return self.path.stat().st_size // _RECORD.size

    def close(self) -> None:
        """Release the file handle (log contents are left on disk)."""
        if not self._file.closed:
            self._file.close()
