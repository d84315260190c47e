"""On-disk SSTables with the exact read interface of an in-memory sorted run.

An :class:`SSTable` is what :class:`~repro.storage.persistent.FileStore`
creates where the in-memory store creates a
:class:`~repro.storage.run.SortedRun`.  A table is **one file written by one
``write``**: the entries first (9-byte packed records: little-endian
``int64`` key + tombstone byte, laid out in pages of ``entries_per_page``
records from offset 0), then a footer with the acceleration structures a
real LSM engine pins in memory — the sparse index (fence pointers, then
per-page max keys) and the Bloom filter's bit table — and last a fixed-size
trailer (:data:`_TRAILER`) that says how long each part is and ends in a
magic.  Only the footer's structures are held resident.

Reads answer from the file: a point lookup that survives the Bloom filter
and the fence bounds ``pread``s exactly one page; a range scan ``pread``s
the contiguous page span, located on the resident sparse index.  A range
*charge* (:meth:`SSTable.scan_pages`, what a replayed range pays) ``pread``s
that same span and decodes none of it: a charged page is still a read page.
The *accounting* (pages charged per probe, span arithmetic including the
one-page seek of an empty interval) mirrors ``SortedRun`` operation for
operation, so a tree on files reports disk counters byte-identical to the
one in memory while its wall-clock time reflects real I/O.  A read that
comes back short raises ``OSError(EIO)`` naming the table.
"""

from __future__ import annotations

import errno
import os
import struct
from pathlib import Path

import numpy as np

from ..bloom_filter import BloomFilter
from ..run import NO_KEYS, NO_TOMBSTONES, build_run_index, unique_sorted

#: One on-disk record: little-endian int64 key + tombstone flag byte.
RECORD_DTYPE = np.dtype([("key", "<i8"), ("tombstone", "u1")])

#: The last bytes of every table file: entry count, entries per page, the
#: filter's parameters (expected entries, seed, insert count, bits per
#: entry), the footer lengths (pages of the sparse index, bytes of the
#: filter's bit table) and the magic.
_TRAILER = struct.Struct("<5qd2q8s")
_MAGIC = b"ENDURSST"


class SSTable:
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
        self.path = path
        self._fd: int | None = descriptor
        self.entries_per_page = int(entries_per_page)
        self._fences = fences
        self._page_max = page_max
        self._num_entries = int(num_entries)
        self._filter = bloom
        self._page_bytes = self.entries_per_page * RECORD_DTYPE.itemsize
        #: Where the records end and the footer starts.
        self._data_bytes = self._num_entries * RECORD_DTYPE.itemsize
        if num_entries:
            self._min_key = int(fences[0])
            self._max_key = int(page_max[-1])
        else:
            self._min_key = self._max_key = 0

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

        Entries are validated, and the fences and Bloom filter built, by the
        function ``SortedRun`` uses, so the filter's probe answers — and
        therefore the false positives the disk counters record — are
        bit-identical to the simulated run's.  The file is one ``write``; if
        it fails or comes up short, nothing of the table is left behind.
        """
        path = Path(path)
        keys, tombstones, fences, bloom = build_run_index(
            keys, tombstones, entries_per_page, bits_per_entry, seed
        )
        records = np.empty(keys.size, dtype=RECORD_DTYPE)
        records["key"] = keys
        records["tombstone"] = tombstones
        # Largest key of each page — the last of every full page, then the
        # run's last: the sparse index needs both page bounds to reproduce
        # SortedRun's span arithmetic exactly.
        page_max = np.append(keys[entries_per_page - 1 :: entries_per_page], keys[-1:])
        page_max = page_max[: fences.size]
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

        Raises ``ValueError`` unless the file ends in the trailer magic and is
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

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The table's full contents as read-only ``(keys, tombstones)``, charging no I/O.

        Reads the whole record region; callers that model the cost
        (compaction, migration checkpoints) charge the pages separately —
        exactly the contract of ``SortedRun.entries``.
        """
        return self._read_pages(0, self.num_pages - 1)

    # ------------------------------------------------------------------
    # Size / structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_entries

    @property
    def num_entries(self) -> int:
        """Number of entries stored in the table."""
        return self._num_entries

    @property
    def num_pages(self) -> int:
        """Number of disk pages the table occupies."""
        if self._num_entries == 0:
            return 0
        return -(-self._num_entries // self.entries_per_page)

    @property
    def min_key(self) -> int:
        """Smallest key in the table (undefined for an empty table)."""
        if self._num_entries == 0:
            raise ValueError("empty run has no minimum key")
        return self._min_key

    @property
    def max_key(self) -> int:
        """Largest key in the table (undefined for an empty table)."""
        if self._num_entries == 0:
            raise ValueError("empty run has no maximum key")
        return self._max_key

    @property
    def keys(self) -> np.ndarray:
        """The table's keys, read from disk (read-only, no I/O charged)."""
        return self.entries()[0]

    @property
    def tombstones(self) -> np.ndarray:
        """Tombstone mask, read from disk (read-only, no I/O charged)."""
        return self.entries()[1]

    @property
    def bloom_filter(self) -> BloomFilter:
        """The table's resident Bloom filter."""
        return self._filter

    @property
    def filter_size_bits(self) -> int:
        """Memory used by the table's Bloom filter, in bits."""
        return self._filter.size_bits

    @property
    def bits_per_entry(self) -> float:
        """Bloom budget the table was built with."""
        return self._filter.bits_per_entry

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Filter + fence-bound pre-check, costing no I/O."""
        if self._num_entries == 0:
            return False
        if key < self._min_key or key > self._max_key:
            return False
        return self._filter.might_contain(int(key))

    def page_of(self, key: int) -> int:
        """Index of the page that would hold ``key`` (via fence pointers)."""
        if self._num_entries == 0:
            raise ValueError("empty run has no pages")
        page = int(self._fences.searchsorted(key, side="right")) - 1
        return max(0, page)

    def lookup(self, key: int) -> tuple[bool, bool, int]:
        """Probe the table for ``key``: ``(found, is_tombstone, pages_read)``.

        A probe the Bloom filter and fences fail to rule out reads its single
        candidate page from the data file — the same one page ``SortedRun``
        charges.
        """
        if not self.may_contain(key):
            return False, False, 0
        page = self.page_of(key)
        page_keys, page_tombstones = self._read_pages(page, page)
        index = int(page_keys.searchsorted(key))
        if index < page_keys.size and page_keys[index] == key:
            return True, bool(page_tombstones[index]), 1
        return False, False, 1

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Probe the table for a batch of keys: ``(found, tombstone, pages)``.

        Accounting matches ``SortedRun.lookup_many``: the charge is one page
        per surviving probe, not per unique page, so the counters equal the
        scalar path's.  The *physical* reads are deduplicated — each distinct
        candidate page is ``pread`` once — and, ascending distinct pages of a
        run being ascending unique keys, one ``searchsorted`` over the joined
        pages resolves the batch: a probe hits iff it hits in its own page.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(keys.size, dtype=bool)
        tombstone = np.zeros(keys.size, dtype=bool)
        if keys.size == 0 or self._num_entries == 0:
            return found, tombstone, 0
        in_bounds = np.flatnonzero((keys >= self._min_key) & (keys <= self._max_key))
        if in_bounds.size == 0:
            return found, tombstone, 0
        bounded = keys[in_bounds]
        probe_idx = in_bounds[self._filter.might_contain_many(bounded)]
        pages_read = int(probe_idx.size)
        if pages_read:
            probed = keys[probe_idx]
            pages = unique_sorted(np.maximum(self._fences.searchsorted(probed, "right") - 1, 0))
            chunks = [self._read_span(page, page) for page in pages.tolist()]
            records = np.frombuffer(b"".join(chunks), dtype=RECORD_DTYPE)
            page_keys = records["key"]
            # A probe past its page's last key may index one past the join.
            indices = np.minimum(page_keys.searchsorted(probed), page_keys.size - 1)
            hit = page_keys[indices] == probed
            hits = probe_idx[hit]
            found[hits] = True
            tombstone[hits] = records["tombstone"][indices[hit]]
        return found, tombstone, pages_read

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def _locate(self, start_key: int, end_key: int) -> tuple[int, int]:
        """First and last page of ``[start_key, end_key]``, as plain ints.

        Reproduces ``SortedRun``'s span arithmetic from the sparse index,
        without the full key array: the first overlapping page is the first
        whose max key reaches ``start_key``, the last is the last whose fence
        stays at or below ``end_key``.  ``(0, -1)`` when the interval misses
        the table's key bounds.
        """
        if (
            end_key < start_key
            or end_key < self._min_key
            or start_key > self._max_key
            or not self._num_entries
        ):
            return 0, -1
        first = int(self._page_max.searchsorted(start_key, "left"))
        last = int(self._fences.searchsorted(end_key, "right")) - 1
        # An interval in the gap between two pages holds no key, but its seek
        # still reads the page with the largest key below ``start_key``: that
        # is ``last``, the page before the one whose max reaches the interval.
        return min(first, last), last

    def scan_pages(self, start_key: int, end_key: int) -> int:
        """The pages :meth:`scan_entries` charges for the interval.

        ``pread``s exactly that span, as the scan does, and decodes none of it.
        """
        first, last = self._locate(start_key, end_key)
        if last < first:
            return 0
        self._read_span(first, last)
        return last - first + 1

    def scan_entries(
        self, start_key: int, end_key: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """All versions in ``[start_key, end_key]``: ``(keys, tombstones, pages)``.

        Reads the span's pages from the data file in one ``pread`` — the seek
        page too, when the interval falls between keys: a charged page is a
        read page — and trims to the interval without copying.  Tombstoned
        entries are returned flagged, as callers merging runs need deletions
        to shadow older versions.
        """
        first, last = self._locate(start_key, end_key)
        if last < first:
            return NO_KEYS, NO_TOMBSTONES, 0
        page_keys, page_tombstones = self._read_pages(first, last)
        lo = int(page_keys.searchsorted(start_key, "left"))
        hi = int(page_keys.searchsorted(end_key, "right"))
        return page_keys[lo:hi], page_tombstones[lo:hi], last - first + 1

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
