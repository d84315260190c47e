"""On-disk SSTables with the exact read interface of an in-memory sorted run.

An :class:`SSTable` is what :class:`~repro.storage.persistent.FileStore`
creates where the in-memory store creates a
:class:`~repro.storage.run.SortedRun`: the entries live in a data file
(9-byte packed records: little-endian ``int64`` key + tombstone byte, laid
out in pages of ``entries_per_page`` records), and only the acceleration
structures a real LSM engine also pins in memory — the sparse index (fence
pointers plus per-page max keys) and the run's Bloom filter — are held
resident, persisted next to the data file as ``.npz`` sidecars.

Reads answer from the file: a point lookup that survives the Bloom filter
and the fence bounds ``pread``s exactly one page; a range scan ``pread``s
the contiguous page span.  The *accounting* (pages charged per probe, span
arithmetic including the one-page seek of an empty interval) mirrors
``SortedRun`` operation for operation, so a tree on files reports disk
counters byte-identical to the one in memory while its wall-clock time
reflects real I/O.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..bloom_filter import BloomFilter
from ..run import PageSpan, build_run_index

#: One on-disk record: little-endian int64 key + tombstone flag byte.
RECORD_DTYPE = np.dtype([("key", "<i8"), ("tombstone", "u1")])


def index_sidecar_path(data_path: Path) -> Path:
    """Location of an SSTable's sparse-index sidecar."""
    return data_path.with_suffix(".index.npz")


def filter_sidecar_path(data_path: Path) -> Path:
    """Location of an SSTable's Bloom-filter sidecar."""
    return data_path.with_suffix(".filter.npz")


def table_files(data_path: Path) -> tuple[Path, Path, Path]:
    """Every file of one SSTable: the data file and its two sidecars."""
    return data_path, index_sidecar_path(data_path), filter_sidecar_path(data_path)


class SSTable:
    """One immutable on-disk sorted run.

    Not constructed directly: use :meth:`create` to materialise sorted
    entries as a new table, or :meth:`open` to attach to files written by a
    previous process (recovery).
    """

    def __init__(
        self,
        path: Path,
        entries_per_page: int,
        fences: np.ndarray,
        page_max: np.ndarray,
        num_entries: int,
        bloom: BloomFilter,
    ) -> None:
        self.path = Path(path)
        self.entries_per_page = int(entries_per_page)
        self._fences = fences
        self._page_max = page_max
        self._num_entries = int(num_entries)
        self._filter = bloom
        self._page_bytes = self.entries_per_page * RECORD_DTYPE.itemsize
        if num_entries:
            self._min_key = int(fences[0])
            self._max_key = int(page_max[-1])
        else:
            self._min_key = self._max_key = 0
        self._fd: int | None = os.open(self.path, os.O_RDONLY)

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
        bit-identical to the simulated run's.
        """
        path = Path(path)
        keys, tombstones, fences, bloom = build_run_index(
            keys, tombstones, entries_per_page, bits_per_entry, seed
        )

        records = np.empty(keys.size, dtype=RECORD_DTYPE)
        records["key"] = keys
        records["tombstone"] = tombstones
        records.tofile(path)

        # Largest key of each page: the sparse index needs both page bounds
        # to reproduce SortedRun's span arithmetic exactly.
        last = np.minimum(
            np.arange(fences.size, dtype=np.int64) * entries_per_page
            + (entries_per_page - 1),
            keys.size - 1,
        )
        page_max = keys[last].copy()

        np.savez(
            index_sidecar_path(path),
            fences=fences,
            page_max=page_max,
            meta=np.array([keys.size, entries_per_page], dtype=np.int64),
        )
        np.savez(filter_sidecar_path(path), **bloom.to_state())
        return cls(
            path=path,
            entries_per_page=entries_per_page,
            fences=fences,
            page_max=page_max,
            num_entries=int(keys.size),
            bloom=bloom,
        )

    @classmethod
    def open(cls, path: str | os.PathLike[str]) -> "SSTable":
        """Attach to a table written earlier, rebuilding its resident state
        (sparse index + Bloom filter) from the sidecars."""
        path = Path(path)
        with np.load(index_sidecar_path(path)) as index:
            fences = index["fences"]
            page_max = index["page_max"]
            num_entries, entries_per_page = (int(v) for v in index["meta"])
        with np.load(filter_sidecar_path(path)) as state:
            bloom = BloomFilter.from_state(dict(state))
        expected_bytes = num_entries * RECORD_DTYPE.itemsize
        if path.stat().st_size != expected_bytes:
            raise ValueError(
                f"data file {path} holds {path.stat().st_size} bytes but the "
                f"index sidecar says {expected_bytes}"
            )
        return cls(
            path=path,
            entries_per_page=entries_per_page,
            fences=fences,
            page_max=page_max,
            num_entries=num_entries,
            bloom=bloom,
        )

    # ------------------------------------------------------------------
    # File access
    # ------------------------------------------------------------------
    def _read_pages(self, first_page: int, last_page: int) -> tuple[np.ndarray, np.ndarray]:
        """``pread`` the contiguous page range and unpack it to arrays."""
        if self._fd is None:
            raise ValueError(f"SSTable {self.path} is closed")
        offset = first_page * self._page_bytes
        length = (last_page - first_page + 1) * self._page_bytes
        data = os.pread(self._fd, length, offset)
        records = np.frombuffer(data, dtype=RECORD_DTYPE)
        return (
            records["key"].astype(np.int64, copy=False),
            records["tombstone"].astype(bool),
        )

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The table's full contents as ``(keys, tombstones)``, charging no I/O.

        Reads the whole data file; callers that model the cost (compaction,
        migration checkpoints) charge the pages separately — exactly the
        contract of ``SortedRun.entries``.
        """
        if self._num_entries == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
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
        keys, _ = self.entries()
        keys.flags.writeable = False
        return keys

    @property
    def tombstones(self) -> np.ndarray:
        """Tombstone mask, read from disk (read-only, no I/O charged)."""
        _, tombstones = self.entries()
        tombstones.flags.writeable = False
        return tombstones

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
        page = int(np.searchsorted(self._fences, key, side="right")) - 1
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
        index = int(np.searchsorted(page_keys, key))
        if index < page_keys.size and page_keys[index] == key:
            return True, bool(page_tombstones[index]), 1
        return False, False, 1

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Probe the table for a batch of keys: ``(found, tombstone, pages)``.

        Accounting matches ``SortedRun.lookup_many``: the charge is one page
        per surviving probe, not per unique page, so the counters equal the
        scalar path's.  The *physical* reads are deduplicated — each distinct
        candidate page is ``pread`` once for the whole batch.
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
        probe_idx = in_bounds[self._filter.might_contain_many(bounded.astype(np.uint64))]
        pages_read = int(probe_idx.size)
        if pages_read:
            probed = keys[probe_idx]
            pages = np.maximum(
                np.searchsorted(self._fences, probed, side="right") - 1, 0
            )
            for page in np.unique(pages):
                page_keys, page_tombstones = self._read_pages(int(page), int(page))
                on_page = np.flatnonzero(pages == page)
                indices = np.searchsorted(page_keys, probed[on_page])
                in_range = indices < page_keys.size
                hit = np.zeros(on_page.size, dtype=bool)
                hit[in_range] = page_keys[indices[in_range]] == probed[on_page][in_range]
                hits = probe_idx[on_page[hit]]
                found[hits] = True
                tombstone[hits] = page_tombstones[indices[hit]]
        return found, tombstone, pages_read

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def range_span(self, start_key: int, end_key: int) -> PageSpan:
        """Pages overlapping ``[start_key, end_key]``, from the sparse index.

        Reproduces ``SortedRun.range_span`` exactly without the full key
        array: the first overlapping page is the first whose max key reaches
        ``start_key``, the last is the last whose fence stays at or below
        ``end_key``; an interval that falls in a gap between keys still
        charges the one seek page holding its predecessor.
        """
        if self._num_entries == 0 or end_key < start_key:
            return PageSpan(0, -1)
        if end_key < self._min_key or start_key > self._max_key:
            return PageSpan(0, -1)
        first = int(np.searchsorted(self._page_max, start_key, side="left"))
        last = int(np.searchsorted(self._fences, end_key, side="right")) - 1
        if last < first:
            # No key inside the interval: the seek still reads the page with
            # the largest key below ``start_key`` (the interval is past that
            # page's max but before the next page's fence).
            page = int(np.searchsorted(self._fences, start_key, side="left")) - 1
            return PageSpan(page, page)
        return PageSpan(first, last)

    def scan(self, start_key: int, end_key: int) -> tuple[np.ndarray, int]:
        """Live keys in ``[start_key, end_key]`` and pages read."""
        keys, tombstones, pages = self.scan_entries(start_key, end_key)
        return keys[~tombstones], pages

    def scan_entries(
        self, start_key: int, end_key: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """All versions in ``[start_key, end_key]``: ``(keys, tombstones, pages)``.

        Reads the span's pages from the data file in one ``pread`` and trims
        to the interval; tombstoned entries are returned flagged, as callers
        merging runs need deletions to shadow older versions.
        """
        span = self.range_span(start_key, end_key)
        if span.num_pages == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), 0
        page_keys, page_tombstones = self._read_pages(span.first_page, span.last_page)
        lo = int(np.searchsorted(page_keys, start_key, side="left"))
        hi = int(np.searchsorted(page_keys, end_key, side="right"))
        return page_keys[lo:hi].copy(), page_tombstones[lo:hi].copy(), span.num_pages

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the data-file descriptor (files are left on disk)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def delete_files(self) -> None:
        """Close the table and remove its data file and sidecars."""
        self.close()
        self.remove_files(self.path)

    @staticmethod
    def remove_files(data_path: Path) -> None:
        """Remove the files of the table at ``data_path``, open or not."""
        for stale in table_files(data_path):
            stale.unlink(missing_ok=True)
