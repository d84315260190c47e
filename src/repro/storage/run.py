"""Immutable sorted runs with fence pointers and per-run Bloom filters.

A sorted run is the on-disk unit of an LSM tree: a key-ordered sequence of
entries laid out in fixed-size pages.  The simulator keeps, in memory, the
run's Bloom filter and its fence pointers (smallest key per page), exactly
the acceleration structures the paper describes; the entries themselves are
"on disk", i.e. every page touched is charged to the virtual disk by the
caller.
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
NO_TOMBSTONES = _frozen(np.empty(0, dtype=bool))


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of ``keys`` by sort and mask (empty in, empty out).

    NumPy 2's ``np.unique`` hashes integers, many times slower than a sort on
    the already sorted key arrays a bulk load or a GET batch hands in.
    """
    keys = np.sort(keys, axis=None)
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def consolidate_versions(
    key_parts: list[np.ndarray],
    tombstone_parts: list[np.ndarray],
    drop_tombstones: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Newest-wins consolidation of several sorted-run contents.

    ``key_parts`` are ordered newest first; duplicate keys keep the version
    from the earliest part, matching compaction semantics.  Returns the
    consolidated ``(keys, tombstones)`` sorted by key (empty for no parts).
    Every merge of versions — a compaction, a range scan, a migration
    checkpoint — goes through here, whatever store the runs live on.

    Each part must be sorted and unique, as a run's or the memtable's
    contents are; a single part is therefore handed back as it is — possibly
    a read-only view of a run — and nothing is merged where nothing collides.
    """
    if not key_parts:
        return NO_KEYS, NO_TOMBSTONES
    if len(key_parts) == 1:
        sorted_keys, sorted_tombstones = key_parts[0], tombstone_parts[0]
    else:
        all_keys = np.concatenate(key_parts)
        # Parts are concatenated newest first, so a stable sort on the key
        # alone leaves each key's newest version first among its duplicates.
        order = np.argsort(all_keys, kind="stable")
        sorted_keys = all_keys[order]
        sorted_tombstones = np.concatenate(tombstone_parts)[order]
        keep = np.empty(sorted_keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
        if not keep.all():
            sorted_keys = sorted_keys[keep]
            sorted_tombstones = sorted_tombstones[keep]
    if drop_tombstones:
        live = ~sorted_tombstones
        sorted_keys = sorted_keys[live]
        sorted_tombstones = sorted_tombstones[live]
    return sorted_keys, sorted_tombstones


def locate_many(runs: list, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """``scan_entries`` of every run for a batch of intervals, entries left in place.

    Returns ``(lo, hi, pages)``, each ``(len(runs), len(starts))``: interval
    ``i`` holds ``keys[lo[r, i]:hi[r, i]]`` of run ``r`` (``hi >= lo``) and is
    charged ``pages[r, i]`` pages there — two ``searchsorted`` per resident
    run for the whole batch, the span arithmetic once for all of them.
    """
    lo = np.empty((len(runs), starts.size), dtype=np.intp)
    hi = np.empty_like(lo)
    for row, run in enumerate(runs):
        lo[row] = run.keys.searchsorted(starts, "left")
        hi[row] = run.keys.searchsorted(ends, "right")
    np.maximum(hi, lo, out=hi)
    size = np.array([len(run) for run in runs]).reshape(-1, 1)
    per_page = np.array([run.entries_per_page for run in runs]).reshape(-1, 1)
    pages = (hi - 1) // per_page - lo // per_page + 1
    pages[hi == lo] = 1  # no key inside: the seek page ...
    # ... unless the interval is inverted or misses the run's bounds.
    pages[(hi == 0) | (lo == size) | (ends < starts)] = 0
    return lo, hi, pages


def build_run_index(
    keys: np.ndarray,
    tombstones: np.ndarray | None,
    entries_per_page: int,
    bits_per_entry: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BloomFilter]:
    """Validate a new run's entries and build what stays resident for it.

    Returns ``(keys, tombstones, fences, bloom)``: the entries as read-only
    ``int64`` / ``bool`` arrays (a run is immutable, so every slice a scan
    hands out may be a view), the fence pointers (smallest key of each page)
    and the run's Bloom filter.  The one constructor of both run kinds — the
    in-memory :class:`SortedRun` and the on-disk ``SSTable`` — so a run
    created from the same entries, budget and seed holds the same filter
    bits and fences wherever it lives.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError("keys must be a one-dimensional array")
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        raise ValueError("keys must be strictly increasing")
    if entries_per_page <= 0:
        raise ValueError("entries_per_page must be positive")
    if tombstones is None:
        tombstones = np.zeros(keys.size, dtype=bool)
    else:
        tombstones = np.asarray(tombstones, dtype=bool)
        if tombstones.shape != keys.shape:
            raise ValueError("tombstones mask must match keys")
    bloom = BloomFilter(
        expected_entries=int(keys.size), bits_per_entry=bits_per_entry, seed=seed
    )
    if keys.size:
        bloom.add_many(keys)
    return _frozen(keys), _frozen(tombstones), keys[::entries_per_page].copy(), bloom


class SortedRun:
    """One immutable sorted run of an LSM tree level.

    Parameters
    ----------
    keys:
        Sorted, unique integer keys of the run.
    entries_per_page:
        How many entries fit in one disk page (``B``).
    bits_per_entry:
        Bloom-filter budget for this run; 0 disables the filter.
    tombstones:
        Optional boolean mask marking deleted keys.
    seed:
        Hash seed for the run's Bloom filter.
    """

    def __init__(
        self,
        keys: np.ndarray,
        entries_per_page: int,
        bits_per_entry: float = 0.0,
        tombstones: np.ndarray | None = None,
        seed: int = 0,
    ) -> None:
        self._keys, self._tombstones, self._fences, self._filter = build_run_index(
            keys, tombstones, entries_per_page, bits_per_entry, seed
        )
        self.entries_per_page = entries_per_page
        self.bits_per_entry = float(bits_per_entry)
        # Size and key bounds cached as plain ints: the lookup and scan hot
        # paths compare against them on every probe.
        self._size = int(self._keys.size)
        if self._size:
            self._min_key = int(self._keys[0])
            self._max_key = int(self._keys[-1])
        else:
            self._min_key = self._max_key = 0

    # ------------------------------------------------------------------
    # Size / structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def num_entries(self) -> int:
        """Number of entries stored in the run."""
        return self._size

    @property
    def num_pages(self) -> int:
        """Number of disk pages the run occupies."""
        return -(-self._size // self.entries_per_page)

    @property
    def min_key(self) -> int:
        """Smallest key in the run (undefined for an empty run)."""
        if not self._size:
            raise ValueError("empty run has no minimum key")
        return self._min_key

    @property
    def max_key(self) -> int:
        """Largest key in the run (undefined for an empty run)."""
        if not self._size:
            raise ValueError("empty run has no maximum key")
        return self._max_key

    @property
    def keys(self) -> np.ndarray:
        """The run's keys (read-only)."""
        return self._keys

    @property
    def tombstones(self) -> np.ndarray:
        """Boolean mask of deleted keys (read-only)."""
        return self._tombstones

    @property
    def bloom_filter(self) -> BloomFilter:
        """The run's Bloom filter."""
        return self._filter

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The run's full contents as read-only ``(keys, tombstones)``, charging no I/O.

        What compaction, migration planning and fingerprints read; callers
        that model the read cost (a compaction, a migration checkpoint)
        charge it separately.
        """
        return self._keys, self._tombstones

    @property
    def filter_size_bits(self) -> int:
        """Memory used by the run's Bloom filter, in bits."""
        return self._filter.size_bits

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Filter + fence-pointer pre-check, costing no I/O."""
        if not self._size:
            return False
        if key < self._min_key or key > self._max_key:
            return False
        return self._filter.might_contain(int(key))

    def page_of(self, key: int) -> int:
        """Index of the page that would hold ``key`` (via fence pointers)."""
        if not self._size:
            raise ValueError("empty run has no pages")
        page = int(self._fences.searchsorted(key, side="right")) - 1
        return max(0, page)

    def lookup(self, key: int) -> tuple[bool, bool, int]:
        """Probe the run for ``key``.

        Returns ``(found, is_tombstone, pages_read)`` where ``pages_read`` is
        the number of disk pages the lookup had to touch: 0 when the Bloom
        filter or the fence pointers rule the run out, 1 otherwise (fence
        pointers identify the single candidate page).
        """
        if not self.may_contain(key):
            return False, False, 0
        index = int(self._keys.searchsorted(key))
        pages_read = 1
        if index < self._size and self._keys[index] == key:
            return True, bool(self._tombstones[index]), pages_read
        return False, False, pages_read

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Probe the run for a batch of keys in one vectorised pass.

        Returns ``(found, is_tombstone, pages_read)`` where the two masks are
        aligned with ``keys`` and ``pages_read`` is the *total* disk pages the
        batch had to touch.  Page counts are per probe, not per unique page —
        two lookups landing on the same candidate page still charge two
        reads, exactly as issuing the scalar :meth:`lookup` per key would —
        so the caller's I/O accounting is bit-identical to the scalar path.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = np.zeros(keys.size, dtype=bool)
        tombstone = np.zeros(keys.size, dtype=bool)
        if keys.size == 0 or not self._size:
            return found, tombstone, 0
        # Fence-bound + Bloom pre-check, both as array ops (no I/O charged).
        in_bounds = np.flatnonzero((keys >= self._min_key) & (keys <= self._max_key))
        if in_bounds.size == 0:
            return found, tombstone, 0
        bounded = keys[in_bounds]
        probe_idx = in_bounds[self._filter.might_contain_many(bounded)]
        pages_read = probe_idx.size
        if pages_read:
            probed = keys[probe_idx]
            # One searchsorted over the run's keys resolves every candidate;
            # the bound check above guarantees the indices are in range.
            indices = self._keys.searchsorted(probed)
            hit = self._keys[indices] == probed
            hits = probe_idx[hit]
            found[hits] = True
            tombstone[hits] = self._tombstones[indices[hit]]
        return found, tombstone, pages_read

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def _span(self, start_key: int, end_key: int) -> tuple[int, int, int]:
        """``(lo, hi, pages)``: the interval holds ``keys[lo:hi]``, a scan of it
        reads ``pages`` pages — the seek page too, when it falls between keys."""
        if (
            end_key < start_key
            or end_key < self._min_key
            or start_key > self._max_key
            or not self._size
        ):
            return 0, 0, 0
        lo = int(self._keys.searchsorted(start_key, "left"))
        hi = int(self._keys.searchsorted(end_key, "right"))
        if hi <= lo:
            return lo, lo, 1
        per_page = self.entries_per_page
        return lo, hi, (hi - 1) // per_page - lo // per_page + 1

    def scan_pages(self, start_key: int, end_key: int) -> int:
        """The pages :meth:`scan_entries` charges for the interval, slicing nothing."""
        return self._span(start_key, end_key)[2]

    def scan_entries(
        self, start_key: int, end_key: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """All versions in ``[start_key, end_key]``: ``(keys, tombstones, pages)``.

        Tombstoned entries are returned (flagged in the boolean mask) rather
        than dropped — callers that merge several runs need a run's deletions
        to shadow older live versions below it.  The two arrays are read-only
        views of the run, not copies.  An interval inside the run's bounds
        that holds no key still seeks, reading the one page with the largest
        key below ``start_key``; the pages are counted in plain ints.
        """
        lo, hi, pages = self._span(start_key, end_key)
        if hi == lo:
            return NO_KEYS, NO_TOMBSTONES, pages
        return self._keys[lo:hi], self._tombstones[lo:hi], pages

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted_keys(
        cls,
        keys: np.ndarray,
        entries_per_page: int,
        bits_per_entry: float = 0.0,
        seed: int = 0,
    ) -> "SortedRun":
        """Build a run from already sorted, unique keys."""
        return cls(
            keys=np.asarray(keys, dtype=np.int64),
            entries_per_page=entries_per_page,
            bits_per_entry=bits_per_entry,
            seed=seed,
        )


class MemoryStore:
    """The run store of the simulated tree: runs are in-memory arrays.

    A run store is everything about an :class:`~repro.storage.lsm_tree.LSMTree`
    that depends on *where its runs live*; the tree owns one and calls

    * ``create_run(...)`` for every run that comes to rest (the one a flush's
      cascade ends in, a bulk placement) — ``run_id`` rises per tree, skipping
      the ids of runs merged away before they were built;
    * ``log(key, tombstone)`` before a write is applied to the memtable — the
      point at which the write is acknowledged;
    * ``commit(levels, run_counter, buffered)`` after every structure change
      (``flush``, ``bulk_load``, ``install_bulk_run``); ``buffered`` is the
      ``(key, tombstone)`` records the log must hold from now on, or ``None``
      when the log already covers the memtable and stays as it is;
    * ``recover()`` once, at construction: ``(levels, run_counter, logged
      records)`` of an earlier tree on this store, or ``None`` for a fresh one;
    * ``sibling()`` for the empty store a successor tree is built on;
    * ``close()``, ``abandon()`` (a process kill: drop every handle, sync
      nothing) and ``destroy()`` (delete what the store owns);

    and reads ``runs_resident``: whether a run's entries are arrays in memory
    (a :class:`SortedRun`), which a batch of scans can be located in at once.

    Memory keeps nothing across a restart, so all but ``create_run`` are
    no-ops here; ``repro.storage.persistent.FileStore`` is the one on files.
    """

    runs_resident = True

    def create_run(
        self,
        keys: np.ndarray,
        tombstones: np.ndarray,
        run_id: int,
        entries_per_page: int,
        bits_per_entry: float,
        seed: int,
    ) -> SortedRun:
        return SortedRun(keys, entries_per_page, bits_per_entry, tombstones, seed)

    def log(self, key: int, tombstone: bool) -> None:
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
