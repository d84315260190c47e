"""Sorted runs: the resident index that prices every read, and its two kinds.

A sorted run is the on-disk unit of an LSM tree: a key-ordered sequence of
entries laid out in fixed-size pages.  An entry is its key — no trace
deletes, and values are not materialised — so a run's contents are one
``int64`` array.  What an engine keeps resident for a run
— the sparse index (fence pointers and each page's largest key), the key
bounds and the Bloom filter, exactly the acceleration structures the paper
describes — is a :class:`RunIndex`, and so is every decision about which pages
a read of the run costs.  Its two kinds differ only in where a page's records
come from: a :class:`SortedRun` slices resident arrays, an ``SSTable``
(``repro.storage.persistent``) ``pread``s its file.  So a tree charges its
virtual disk the same pages on either store, by construction.
"""

from __future__ import annotations

import numpy as np

from .bloom_filter import BloomFilter


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; every slice of it is read-only too."""
    view = array.view()
    view.setflags(write=False)
    return view


#: What every scan that finds nothing returns: shared, so nobody may write.
NO_KEYS = _frozen(np.empty(0, dtype=np.int64))


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of ``keys`` by sort and mask (empty in, empty out).

    NumPy 2's ``np.unique`` hashes integers, many times slower than a sort on
    the already sorted key arrays a bulk load or a GET batch hands in.  The
    sort is stable (a timsort): it merges presorted stretches, such as the
    runs :func:`consolidate_versions` joins, in one pass each.
    """
    keys = np.sort(keys, axis=None, kind="stable")
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def consolidate_versions(key_parts: list[np.ndarray]) -> np.ndarray:
    """The keys of several sorted-run contents, each once, sorted.

    Every merge of versions — a compaction, a range scan, a migration
    checkpoint — goes through here, whatever store the runs live on.  An
    update leaves a key in several parts; a key is one entry, so which part
    held its newest version does not matter.  Each part must be sorted and
    unique, as a run's or the memtable's contents are; a single part is
    therefore handed back as it is — possibly a read-only view of a run.
    """
    if len(key_parts) == 1:
        return key_parts[0]
    return unique_sorted(np.concatenate(key_parts)) if key_parts else NO_KEYS


def build_run_index(
    keys: np.ndarray,
    entries_per_page: int,
    bits_per_entry: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BloomFilter]:
    """Validate a new run's keys and build what stays resident for it.

    Returns ``(keys, fences, page_max, bloom)``: the keys as a read-only
    ``int64`` array (a run is immutable, so every slice a scan hands out may
    be a view), the sparse index — fence pointers (smallest key of each page)
    and the largest key of each page — and the run's Bloom filter.  The one
    constructor of both run kinds, so a run created from the same keys,
    budget and seed holds the same filter bits and index wherever it lives.
    The filter holds the read-only keys, not a copy, and hashes them at the
    first probe that reaches it: a read the run's bounds rule out never
    does, so most runs of fresh inserts are never hashed.  A table builds
    its filter at create, for its footer.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError("keys must be a one-dimensional array")
    # ``count_nonzero`` is one C call; ``ndarray.all`` a Python-level reduction.
    if np.count_nonzero(keys[1:] <= keys[:-1]):
        raise ValueError("keys must be strictly increasing")
    if entries_per_page <= 0:
        raise ValueError("entries_per_page must be positive")
    keys = _frozen(keys)
    bloom = BloomFilter(keys.size, bits_per_entry, seed)
    bloom.add_many(keys)
    # Each page's last key — a partial last page's is the last key — copied
    # as the fences are: a table holds no key array.
    page_max = keys[entries_per_page - 1 :: entries_per_page]
    if keys.size % entries_per_page:
        page_max = np.concatenate((page_max, keys[-1:]))
    else:
        page_max = page_max.copy()
    return keys, keys[::entries_per_page].copy(), page_max, bloom


def locate_many(
    runs: list[RunIndex], starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`RunIndex._locate` of every run for a batch of intervals.

    Returns ``(first, last, pages)``, each ``(len(runs), len(starts))``:
    interval ``i`` covers pages ``first[r, i]..last[r, i]`` of run ``r`` and
    is charged ``pages[r, i]`` of them — ``(0, -1, 0)`` where it misses the
    run.  Reads only the resident sparse indexes, two ``searchsorted`` a run
    for the whole batch, and runs the span arithmetic once for all of them.
    """
    first = np.empty((len(runs), starts.size), dtype=np.intp)
    last = np.empty_like(first)
    for row, run in enumerate(runs):
        first[row] = run._page_max.searchsorted(starts, "left")
        last[row] = run._fences.searchsorted(ends, "right")
    last -= 1
    np.minimum(first, last, out=first)
    bounds = np.array(
        [(run._min_key, run._max_key, run._size) for run in runs], dtype=np.int64
    ).reshape(-1, 3, 1)
    low, high, size = bounds[:, 0], bounds[:, 1], bounds[:, 2]
    miss = (ends < starts) | (ends < low) | (starts > high) | (size == 0)
    first[miss] = 0
    last[miss] = -1
    return first, last, last - first + 1


class RunIndex:
    """What stays resident of one immutable sorted run, and what reading it costs.

    Holds the entry count and page size (``B``), the sparse index (fence
    pointers and each page's largest key), the key bounds and the Bloom
    filter, and makes every decision about which pages a read is charged: a
    probe the filter and bounds rule out costs nothing, one they do not costs
    its single candidate page, and an interval costs the page span
    :meth:`_locate` finds — the seek page too, when it falls between keys.
    A subclass says only where a page's records come from:

    * ``_read_pages(first, last)``: the keys of pages ``first..last``;
    * ``_page_records(key)`` / ``_pages_records(keys)``: those of the page a
      key — each key of a batch — would be on, in key order;
    * ``_read_span(first, last)``: read pages ``first..last``, decode nothing;
    * ``read_spans(first, last)``: the same for every non-empty span of a
      :func:`locate_many` row.

    The record hooks may hand back any key-ordered stretch of the run that
    includes the pages asked for; a resident run hands back all of it.
    """

    def __init__(
        self,
        entries_per_page: int,
        num_entries: int,
        fences: np.ndarray,
        page_max: np.ndarray,
        bloom: BloomFilter,
    ) -> None:
        self.entries_per_page = int(entries_per_page)
        self._size = int(num_entries)
        self._fences = fences
        self._page_max = page_max
        self._filter = bloom
        # Key bounds cached as plain ints: every probe and scan compares
        # against them (``item`` makes one without a NumPy scalar between).
        if self._size:
            self._min_key = fences.item(0)
            self._max_key = page_max.item(-1)
        else:
            self._min_key = self._max_key = 0

    # ------------------------------------------------------------------
    # Size / structure
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Number of entries stored in the run."""
        return self._size

    @property
    def num_pages(self) -> int:
        """Number of disk pages the run occupies."""
        return -(-self._size // self.entries_per_page)

    @property
    def filter_size_bits(self) -> int:
        """Memory used by the run's Bloom filter, in bits."""
        return self._filter.size_bits

    @property
    def keys(self) -> np.ndarray:
        """The run's full contents, read-only, charging no I/O.

        What compaction, migration planning and fingerprints read; callers
        that model the read cost (a compaction, a migration checkpoint)
        charge it separately.
        """
        return self._read_pages(0, self.num_pages - 1)

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Filter + fence-bound pre-check, costing no I/O."""
        if not self._size:
            return False
        if key < self._min_key or key > self._max_key:
            return False
        return self._filter.might_contain(key)

    def page_of(self, key: int) -> int:
        """Index of the page that would hold ``key`` (via fence pointers)."""
        if not self._size:
            raise ValueError("empty run has no pages")
        page = int(self._fences.searchsorted(key, side="right")) - 1
        return max(0, page)

    def lookup(self, key: int) -> tuple[bool, int]:
        """Probe the run for ``key``.

        Returns ``(found, pages_read)`` where ``pages_read`` is the number of
        disk pages the lookup had to touch: 0 when the Bloom filter or the
        fence pointers rule the run out, 1 otherwise (fence pointers identify
        the single candidate page).
        """
        if not self.may_contain(key):
            return False, 0
        keys = self._page_records(key)
        index = int(keys.searchsorted(key))
        return index < keys.size and keys.item(index) == key, 1

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, int]:
        """Probe the run for a batch of keys in one vectorised pass.

        Returns ``(found, pages_read)`` where the mask is aligned with
        ``keys`` and ``pages_read`` is the *total* disk pages the
        batch had to touch.  Page counts are per probe, not per unique page —
        two lookups landing on the same candidate page still charge two
        reads, exactly as issuing the scalar :meth:`lookup` per key would —
        so the caller's I/O accounting is bit-identical to the scalar path.
        A probe hits iff it hits in its own page, so one ``searchsorted`` over
        the candidate pages' records, joined in key order, resolves the batch.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(keys.size, dtype=bool)
        if keys.size == 0 or not self._size:
            return found, 0
        # Fence-bound + Bloom pre-check, both as array ops (no I/O charged).
        in_bounds = np.flatnonzero((keys >= self._min_key) & (keys <= self._max_key))
        if in_bounds.size == 0:
            return found, 0
        probe_idx = in_bounds[self._filter.might_contain_many(keys[in_bounds])]
        pages_read = probe_idx.size
        if pages_read:
            probed = keys[probe_idx]
            page_keys = self._pages_records(probed)
            # A probe past its page's last key may index one past the records.
            found[probe_idx] = page_keys.take(page_keys.searchsorted(probed), mode="clip") == probed
        return found, pages_read

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def _locate(self, start_key: int, end_key: int) -> tuple[int, int]:
        """First and last page a scan of ``[start_key, end_key]`` reads, as plain ints.

        The first page is the first whose max key reaches ``start_key``, the
        last the last whose fence stays at or below ``end_key``; ``(0, -1)``
        when the interval misses the run's key bounds.  :func:`locate_many`
        is the same arithmetic for a batch.
        """
        if (
            end_key < start_key
            or end_key < self._min_key
            or start_key > self._max_key
            or not self._size
        ):
            return 0, -1
        first = int(self._page_max.searchsorted(start_key, "left"))
        last = int(self._fences.searchsorted(end_key, "right")) - 1
        # An interval in the gap between two pages holds no key, but its seek
        # still reads the page with the largest key below ``start_key``: that
        # is ``last``, the page before the one whose max reaches the interval.
        return (first if first < last else last), last

    def scan_pages(self, start_key: int, end_key: int) -> int:
        """The pages :meth:`scan_entries` charges for the interval.

        Reads that span, as the scan does, and decodes none of it.
        """
        first, last = self._locate(start_key, end_key)
        if last < first:
            return 0
        self._read_span(first, last)
        return last - first + 1

    def scan_entries(self, start_key: int, end_key: int) -> tuple[np.ndarray, int]:
        """The run's keys in ``[start_key, end_key]`` and the pages read: ``(keys, pages)``.

        The keys are a read-only view of the pages read, not a copy.  An
        interval inside the run's bounds that holds no key still seeks,
        reading the one page with the largest key below ``start_key``: a
        charged page is a read page.
        """
        first, last = self._locate(start_key, end_key)
        if last < first:
            return NO_KEYS, 0
        keys = self._read_pages(first, last)
        lo = int(keys.searchsorted(start_key, "left"))
        hi = int(keys.searchsorted(end_key, "right"))
        return keys[lo:hi], last - first + 1


class SortedRun(RunIndex):
    """One immutable sorted run held in memory, as the simulator keeps it.

    Its records are resident arrays, so reading a page costs no time here:
    the tree charges the pages a read touches to its virtual disk.

    Parameters
    ----------
    keys:
        Sorted, unique integer keys of the run.
    entries_per_page:
        How many entries fit in one disk page (``B``).
    bits_per_entry:
        Bloom-filter budget for this run; 0 disables the filter.
    seed:
        Hash seed for the run's Bloom filter.
    """

    def __init__(
        self,
        keys: np.ndarray,
        entries_per_page: int,
        bits_per_entry: float = 0.0,
        seed: int = 0,
    ) -> None:
        self._keys, fences, page_max, bloom = build_run_index(
            keys, entries_per_page, bits_per_entry, seed
        )
        super().__init__(entries_per_page, self._keys.size, fences, page_max, bloom)

    def _records(self, *_) -> np.ndarray:
        """The whole run: it is resident, and includes every page asked for."""
        return self._keys

    _read_pages = _page_records = _pages_records = _records

    def _read_span(self, *_) -> None:
        """Nothing to read: the pages are resident."""

    read_spans = _read_span


class MemoryStore:
    """The run store of the simulated tree: runs are in-memory arrays.

    A run store is everything about an :class:`~repro.storage.lsm_tree.LSMTree`
    that depends on *where its runs live*; the tree owns one and calls

    * ``create_run(...)`` for every run that comes to rest (the one a flush's
      cascade ends in, a bulk placement) — ``run_id`` rises per tree, skipping
      the ids of runs merged away before they were built;
    * ``log(key)`` before a write is applied to the memtable — the point at
      which the write is acknowledged;
    * ``commit(levels, run_counter, buffered)`` after every structure change
      (``flush``, ``bulk_load``, ``install_bulk_run``); ``buffered`` is the
      keys the log must hold from now on, or ``None`` when the log already
      covers the memtable and stays as it is;
    * ``recover()`` once, at construction: ``(levels, run_counter, logged
      records)`` of an earlier tree on this store, or ``None`` for a fresh one;
    * ``sibling()`` for the empty store a successor tree is built on;
    * ``close()``, ``abandon()`` (a process kill: drop every handle, sync
      nothing) and ``destroy()`` (delete what the store owns).

    Every read goes to the runs, which are :class:`RunIndex` subclasses on
    either store: the tree never asks the store where a run's records are.

    Memory keeps nothing across a restart, so all but ``create_run`` are
    no-ops here; ``repro.storage.persistent.FileStore`` is the one on files.
    """

    def create_run(
        self, keys: np.ndarray, run_id: int, entries_per_page: int, bits_per_entry: float, seed: int
    ) -> SortedRun:
        return SortedRun(keys, entries_per_page, bits_per_entry, seed)

    def log(self, key: int) -> None:
        pass

    def commit(self, levels, run_counter: int, buffered) -> None:
        pass

    def recover(self) -> None:
        return None

    def sibling(self) -> "MemoryStore":
        return MemoryStore()

    def close(self) -> None:
        pass

    abandon = destroy = close
