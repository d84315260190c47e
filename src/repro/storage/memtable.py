"""The in-memory write buffer (Level 0) of the simulated LSM tree."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

import numpy as np

from .run import NO_KEYS, NO_TOMBSTONES


class Memtable:
    """Mutable, in-memory buffer that absorbs writes until it fills up.

    Keys are 64-bit integers; the simulator does not materialise values (all
    entries have the configured fixed size), so the memtable only tracks keys
    and tombstone flags.  Lookups in the memtable cost no I/O, matching a real
    engine where Level 0 lives in RAM.

    A dict holds each key's newest flag and answers point probes; a sorted
    list of the same keys beside it answers scans and the flush in key order
    without walking or sorting the buffer.
    """

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise ValueError("capacity_entries must be positive")
        self.capacity_entries = capacity_entries
        self._entries: dict[int, bool] = {}
        self._sorted_keys: list[int] = []
        #: ``holds(key)``: whether a version of ``key``, live or tombstone, is
        #: buffered — the dict's own probe, bound once for the replay loop.
        self.holds = self._entries.__contains__

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def put(self, key: int) -> None:
        """Insert or update ``key``."""
        key = int(key)
        if key not in self._entries:
            insort(self._sorted_keys, key)
        self._entries[key] = False

    def delete(self, key: int) -> None:
        """Record a tombstone for ``key``."""
        key = int(key)
        if key not in self._entries:
            insort(self._sorted_keys, key)
        self._entries[key] = True

    def clear(self) -> None:
        """Empty the buffer (after a flush)."""
        self._entries.clear()
        self._sorted_keys.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, key: int) -> tuple[bool, bool]:
        """Return ``(present, is_tombstone)`` for ``key``."""
        key = int(key)
        if key in self._entries:
            return True, self._entries[key]
        return False, False

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`get`: ``(present, is_tombstone)`` masks for ``keys``.

        One ``searchsorted`` over the sorted buffered keys, tombstones
        included; only the keys it finds read their flag from the dict.
        Against the per-key dict probe it replaced, on 4-36 entry buffers with
        a tenth of the keys buffered (2-vCPU VM): a fixed ~9-10 us of array
        calls against ~0.13 us a key, so the dict loop is faster below
        ~100-200 keys and this one above (256 keys: 17-19 us vs 29-34 us;
        2 048: 69-113 us vs 279-289 us).  The replay loop's wide windows ask
        hundreds to thousands.  Making the key array grows with the buffer:
        at 4 096 entries the dict loop stays faster past 2 048 keys.
        """
        found = np.zeros(keys.size, dtype=bool)
        tombstone = np.zeros(keys.size, dtype=bool)
        if self._entries and keys.size:
            ordered = np.array(self._sorted_keys, dtype=np.int64)
            np.equal(ordered.take(np.searchsorted(ordered, keys), mode="clip"), keys, out=found)
            hits = np.flatnonzero(found)
            if hits.size:
                tombstone[hits] = [self._entries[key] for key in keys[hits].tolist()]
        return found, tombstone

    def scan_items(self, start_key: int, end_key: int) -> tuple[np.ndarray, np.ndarray]:
        """Buffered versions in ``[start_key, end_key]``: ``(keys, tombstones)``.

        Tombstones are returned (flagged) rather than dropped so a buffered
        deletion can shadow older live versions residing in disk runs.
        """
        ordered = self._sorted_keys
        lo = bisect_left(ordered, start_key)
        hi = bisect_right(ordered, end_key, lo)
        if hi <= lo:
            return NO_KEYS, NO_TOMBSTONES
        return self._arrays(ordered[lo:hi])

    def _arrays(self, keys: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """``keys`` and their buffered flags as ``int64`` / ``bool`` arrays."""
        return (
            np.array(keys, dtype=np.int64),
            np.fromiter(map(self._entries.__getitem__, keys), bool, len(keys)),
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """Whether the buffer has reached its capacity and must be flushed."""
        return len(self._entries) >= self.capacity_entries

    @property
    def is_empty(self) -> bool:
        """Whether the buffer currently holds no entries."""
        return not self._entries

    def sorted_items(self) -> tuple[np.ndarray, np.ndarray]:
        """Contents sorted by key: ``(keys, tombstone_mask)``."""
        return self._arrays(self._sorted_keys)
