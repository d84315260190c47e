"""On-disk SSTables: a sorted run whose pages are read from a file.

An :class:`SSTable` is what :class:`~repro.storage.persistent.FileStore`
creates where the in-memory store creates a
:class:`~repro.storage.run.SortedRun`.  Both are
:class:`~repro.storage.run.RunIndex` subclasses, which decides what every read
costs, so a tree on files reports the disk counters of the one in memory
while its wall-clock time reflects real I/O: a table says only where a page's
records come from.

A table is **one file written by one ``write``**: the entries first (9-byte
packed records: little-endian ``int64`` key + tombstone byte, laid out in
pages of ``entries_per_page`` records from offset 0), then a footer with the
structures a real LSM engine pins in memory — the sparse index (fence
pointers, then per-page max keys) and the Bloom filter's bit table — and last
a fixed-size trailer (:data:`_TRAILER`) that says how long each part is and
ends in a magic.  Only the footer's structures are held resident.

Every read ``pread``s the pages it is charged: a point lookup its one
candidate page, a batch of lookups each distinct candidate page once, a scan
its contiguous page span, and a range *charge* that same span, decoding none
of it.  A read that comes back short raises ``OSError(EIO)`` naming the
table.
"""

from __future__ import annotations

import errno
import os
import struct
from pathlib import Path

import numpy as np

from ..bloom_filter import BloomFilter
from ..run import RunIndex, build_run_index, unique_sorted

#: One on-disk record: little-endian int64 key + tombstone flag byte.
RECORD_DTYPE = np.dtype([("key", "<i8"), ("tombstone", "u1")])

#: The last bytes of every table file: entry count, entries per page, the
#: filter's parameters (expected entries, seed, insert count, bits per
#: entry), the footer lengths (pages of the sparse index, bytes of the
#: filter's bit table) and the magic.
_TRAILER = struct.Struct("<5qd2q8s")
_MAGIC = b"ENDURSST"


class SSTable(RunIndex):
    """One immutable on-disk sorted run.

    Not constructed directly: use :meth:`create` to materialise sorted
    entries as a new table, or :meth:`open` to attach to a file written by a
    previous process (recovery).  Either hands over the descriptor the table
    reads through until :meth:`close`.
    """

    def __init__(
        self,
        path: Path,
        descriptor: int,
        entries_per_page: int,
        fences: np.ndarray,
        page_max: np.ndarray,
        num_entries: int,
        bloom: BloomFilter,
    ) -> None:
        super().__init__(entries_per_page, num_entries, fences, page_max, bloom)
        self.path = path
        self._fd: int | None = descriptor
        self._page_bytes = self.entries_per_page * RECORD_DTYPE.itemsize
        #: Where the records end and the footer starts.
        self._data_bytes = self._size * RECORD_DTYPE.itemsize

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | os.PathLike[str],
        keys: np.ndarray,
        tombstones: np.ndarray,
        entries_per_page: int,
        bits_per_entry: float = 0.0,
        seed: int = 0,
    ) -> "SSTable":
        """Write sorted unique keys (+ tombstone mask) as a new table.

        Entries are validated, and the sparse index and Bloom filter built, by
        the function ``SortedRun`` uses, so the filter's probe answers — and
        therefore the false positives the disk counters record — are
        bit-identical to the simulated run's.  The file is one ``write``; if
        it fails or comes up short, nothing of the table is left behind.
        """
        path = Path(path)
        keys, tombstones, fences, page_max, bloom = build_run_index(
            keys, tombstones, entries_per_page, bits_per_entry, seed
        )
        records = np.empty(keys.size, dtype=RECORD_DTYPE)
        records["key"] = keys
        records["tombstone"] = tombstones
        bits = bloom.bit_table
        image = b"".join(
            (
                records.tobytes(),
                np.concatenate((fences, page_max)).astype("<i8", copy=False).tobytes(),
                bits.tobytes(),
                _TRAILER.pack(
                    keys.size, entries_per_page, bloom.expected_entries, bloom.seed,
                    bloom.count, bloom.bits_per_entry, fences.size, bits.size, _MAGIC,
                ),
            )
        )
        descriptor = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            if os.write(descriptor, image) != len(image):
                raise OSError(errno.EIO, "short write of an SSTable", str(path))
        except BaseException:
            os.close(descriptor)
            path.unlink(missing_ok=True)
            raise
        return cls(path, descriptor, entries_per_page, fences, page_max, keys.size, bloom)

    @classmethod
    def open(cls, path: str | os.PathLike[str]) -> "SSTable":
        """Attach to a table written earlier, rebuilding its resident state
        (sparse index + Bloom filter) from the footer.

        Raises ``ValueError`` unless the file ends in the trailer magic, its
        page count is the one its entry count and page size imply, and it is
        exactly as long as the trailer says its parts are.
        """
        path = Path(path)
        descriptor = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(descriptor).st_size
            trailer = os.pread(descriptor, _TRAILER.size, max(size - _TRAILER.size, 0))
            if len(trailer) != _TRAILER.size or not trailer.endswith(_MAGIC):
                raise ValueError(f"{path} does not end in an SSTable trailer")
            (
                num_entries, entries_per_page, expected_entries, seed, count,
                bits_per_entry, num_pages, filter_bytes, _,
            ) = _TRAILER.unpack(trailer)
            if entries_per_page < 1 or num_pages != -(-num_entries // entries_per_page):
                raise ValueError(
                    f"{path} describes {num_pages} pages of {entries_per_page} "
                    f"entries for {num_entries} entries"
                )
            data_bytes = num_entries * RECORD_DTYPE.itemsize
            footer_bytes = 16 * num_pages + filter_bytes
            if size != data_bytes + footer_bytes + _TRAILER.size:
                raise ValueError(
                    f"{path} holds {size} bytes but its trailer describes "
                    f"{data_bytes + footer_bytes + _TRAILER.size}"
                )
            footer = os.pread(descriptor, footer_bytes, data_bytes)
            index = np.frombuffer(footer, "<i8", 2 * num_pages)
            bloom = BloomFilter.from_state(
                expected_entries, bits_per_entry, seed, count,
                np.frombuffer(footer, np.uint8, filter_bytes, index.nbytes),
            )
            return cls(
                path, descriptor, entries_per_page,
                index[:num_pages], index[num_pages:], num_entries, bloom,
            )
        except BaseException:
            os.close(descriptor)
            raise

    # ------------------------------------------------------------------
    # File access
    # ------------------------------------------------------------------
    def _descriptor(self) -> int:
        if self._fd is None:
            raise ValueError(f"SSTable {self.path} is closed")
        return self._fd

    def _read_span(self, first_page: int, last_page: int) -> bytes:
        """``pread`` the contiguous page range, clamped to the record region as
        the final partial page ends where the footer starts; a short read
        raises ``OSError(EIO)`` instead of handing back fewer records."""
        offset = first_page * self._page_bytes
        length = min((last_page + 1) * self._page_bytes, self._data_bytes) - offset
        data = os.pread(self._descriptor(), length, offset)
        if len(data) != length:
            raise OSError(errno.EIO, f"short read of an SSTable at byte {offset}", str(self.path))
        return data

    def _read_pages(self, first_page: int, last_page: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_read_span`'s ``(keys, tombstones)``: read-only field views of the bytes read."""
        records = np.frombuffer(self._read_span(first_page, last_page), dtype=RECORD_DTYPE)
        return records["key"], records["tombstone"].view(bool)

    def _page_records(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """The records of the one page that would hold ``key``: one ``pread``."""
        page = self.page_of(key)
        return self._read_pages(page, page)

    def _pages_records(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The records of every page a key of the batch would be on, joined in
        key order: each distinct page is ``pread`` once."""
        # Every key passed the bounds check, so none lies before the first fence.
        pages = unique_sorted(self._fences.searchsorted(keys, "right") - 1)
        records = np.frombuffer(
            b"".join([self._read_span(page, page) for page in pages.tolist()]),
            dtype=RECORD_DTYPE,
        )
        return records["key"], records["tombstone"].view(bool)

    def read_spans(self, first: np.ndarray, last: np.ndarray) -> None:
        """``pread`` every non-empty span ``first[i]..last[i]``, decoding nothing."""
        for first_page, last_page in zip(first.tolist(), last.tolist()):
            if first_page <= last_page:
                self._read_span(first_page, last_page)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the descriptor (the file is left on disk)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def delete_files(self) -> None:
        """Close the table and remove its file."""
        self.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
