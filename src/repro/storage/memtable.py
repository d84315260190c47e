"""The in-memory write buffer (Level 0) of the simulated LSM tree."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

import numpy as np

from .run import NO_KEYS


class Memtable:
    """Mutable, in-memory buffer that absorbs writes until it fills up.

    Keys are 64-bit integers; the simulator does not materialise values (all
    entries have the configured fixed size) and no trace deletes, so the
    memtable only tracks keys: an update of a buffered key changes nothing.
    Lookups in the memtable cost no I/O, matching a real engine where Level 0
    lives in RAM.

    A set of the keys answers point probes; a sorted list of the same keys
    beside it answers scans and the flush in key order without walking or
    sorting the buffer.
    """

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries <= 0:
            raise ValueError("capacity_entries must be positive")
        self.capacity_entries = capacity_entries
        self._keys: set[int] = set()
        self._sorted_keys: list[int] = []
        #: ``holds(key)``: whether ``key`` is buffered — the set's own probe,
        #: bound once for the replay loop.
        self.holds = self._keys.__contains__

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def put(self, key: int) -> None:
        """Insert or update ``key``."""
        key = int(key)
        if key not in self._keys:
            self._keys.add(key)
            insort(self._sorted_keys, key)

    def clear(self) -> None:
        """Empty the buffer (after a flush)."""
        self._keys.clear()
        self._sorted_keys.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lookup_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched :attr:`holds`: whether each of ``keys`` is buffered.

        One ``searchsorted`` over the sorted buffered keys.  Against the
        per-key probe it replaced, on 4-36 entry buffers with a tenth of the
        keys buffered (2-vCPU VM): a fixed ~9-10 us of array calls against
        ~0.13 us a key, so the per-key loop is faster below ~100-200 keys and
        this one above (256 keys: 17-19 us vs 29-34 us; 2 048: 69-113 us vs
        279-289 us).  The replay loop's wide windows ask hundreds to
        thousands.  Making the key array grows with the buffer: at 4 096
        entries the per-key loop stays faster past 2 048 keys.
        """
        found = np.zeros(keys.size, dtype=bool)
        if self._keys and keys.size:
            ordered = np.array(self._sorted_keys, dtype=np.int64)
            np.equal(ordered.take(np.searchsorted(ordered, keys), mode="clip"), keys, out=found)
        return found

    def scan_items(self, start_key: int, end_key: int) -> np.ndarray:
        """Buffered keys in ``[start_key, end_key]``, sorted, as ``int64``."""
        ordered = self._sorted_keys
        lo = bisect_left(ordered, start_key)
        hi = bisect_right(ordered, end_key, lo)
        if hi <= lo:
            return NO_KEYS
        return np.array(ordered[lo:hi], dtype=np.int64)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    @property
    def is_full(self) -> bool:
        """Whether the buffer has reached its capacity and must be flushed."""
        return len(self._keys) >= self.capacity_entries

    @property
    def is_empty(self) -> bool:
        """Whether the buffer currently holds no entries."""
        return not self._keys

    def sorted_items(self) -> np.ndarray:
        """The buffered keys sorted, as ``int64``."""
        return np.array(self._sorted_keys, dtype=np.int64)
