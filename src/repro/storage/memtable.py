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

        A plain dict probe per key: the buffer is a hash map, so a Python
        loop beats sort-based vectorisation at the batch sizes the executor
        produces, and memtable lookups charge no I/O either way.
        """
        found = np.zeros(keys.size, dtype=bool)
        tombstone = np.zeros(keys.size, dtype=bool)
        entries = self._entries
        if entries:
            probe = entries.get
            for index, key in enumerate(keys.tolist()):
                state = probe(key)
                if state is not None:
                    found[index] = True
                    if state:
                        tombstone[index] = True
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
            np.array([self._entries[key] for key in keys], dtype=bool),
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
