"""Concrete query traces for the LSM-tree simulator.

The analytical evaluation only needs workload *proportions*; the system-based
evaluation executes actual queries against a storage engine.  This module
turns a :class:`~repro.workloads.workload.Workload` into a sequence of
concrete operations (get/range/put) against a key domain, mirroring §8.2:

* non-empty point reads query keys that exist in the database,
* empty point reads query keys drawn from the same domain that are guaranteed
  not to exist,
* range queries are short scans of :data:`RANGE_SCAN_KEYS` keys (minimal
  selectivity); a workload with a non-zero ``long_range_fraction`` issues that
  share of its range queries as *long* scans covering ``long_scan_keys``
  consecutive keys,
* writes insert fresh, previously unused keys — unless ``update_fraction``
  directs a share of them at keys that already exist.  Updates create
  *obsolete versions*: until a compaction consolidates them, every run on a
  key's path keeps its own stale copy, and long range scans pay to read them
  all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .workload import Workload


class OperationType(enum.IntEnum):
    """The concrete operations the simulator understands.

    A member's value is both the kind code stored in :attr:`Trace.kinds` and
    the operation's index in the workload vector ``(z0, z1, q, w)``.
    """

    EMPTY_GET = 0
    GET = 1
    RANGE = 2
    PUT = 3


#: Kind code -> member (a tuple index is cheaper than the enum's value lookup).
_KINDS = tuple(OperationType)


class Operation(NamedTuple):
    """One concrete query against the store: a row of a :class:`Trace`."""

    kind: OperationType
    key: int
    #: Number of consecutive keys scanned; only meaningful for range queries.
    scan_length: int = 0


class Trace:
    """A sequence of operations stored as three parallel columns.

    ``kinds`` holds :class:`OperationType` codes (``uint8``), ``keys`` the
    operated-on key (``int64``) and ``scan_lengths`` the interval length of
    range queries (``int32``, 0 elsewhere).  Slicing or masking returns a
    ``Trace`` over the selected rows; iterating (or indexing with an integer)
    yields :class:`Operation` rows.
    """

    __slots__ = ("kinds", "keys", "scan_lengths")

    def __init__(self, kinds, keys, scan_lengths) -> None:
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self.keys = np.asarray(keys, dtype=np.int64)
        self.scan_lengths = np.asarray(scan_lengths, dtype=np.int32)
        if not self.kinds.shape == self.keys.shape == self.scan_lengths.shape:
            raise ValueError("trace columns must have one shape")

    @classmethod
    def of(cls, operations: Iterable[Operation]) -> "Trace":
        """Build a trace from :class:`Operation` rows."""
        rows = list(operations)
        return cls(
            [op.kind for op in rows],
            [op.key for op in rows],
            [op.scan_length for op in rows],
        )

    @classmethod
    def concatenate(cls, parts: Sequence["Trace"]) -> "Trace":
        """The rows of ``parts``, in order, as one trace; a lone part is
        returned as it is."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([part.kinds for part in parts]),
            np.concatenate([part.keys for part in parts]),
            np.concatenate([part.scan_lengths for part in parts]),
        )

    def __len__(self) -> int:
        return self.kinds.size

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Operation(
                _KINDS[self.kinds[index]],
                int(self.keys[index]),
                int(self.scan_lengths[index]),
            )
        return Trace(self.kinds[index], self.keys[index], self.scan_lengths[index])

    def __iter__(self) -> Iterator[Operation]:
        return map(
            Operation,
            map(_KINDS.__getitem__, self.kinds.tolist()),
            self.keys.tolist(),
            self.scan_lengths.tolist(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self.kinds, other.kinds)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.scan_lengths, other.scan_lengths)
        )


@dataclass(frozen=True)
class KeySpace:
    """Partition of the integer key domain used to generate traces.

    ``existing`` keys are bulk-loaded into the store, ``missing`` keys belong
    to the same domain but are never inserted (used for empty point reads),
    and ``fresh`` keys are reserved for writes so that every write is unique.
    """

    existing: np.ndarray
    missing: np.ndarray
    fresh_start: int

    @classmethod
    def build(cls, num_entries: int, seed: int = 13) -> "KeySpace":
        """Create a key space with ``num_entries`` resident keys."""
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        rng = np.random.default_rng(seed)
        domain = rng.permutation(2 * num_entries)
        existing = np.sort(domain[:num_entries])
        missing = np.sort(domain[num_entries:])
        return cls(existing=existing, missing=missing, fresh_start=2 * num_entries)

    @property
    def num_entries(self) -> int:
        """Number of resident (bulk-loaded) keys."""
        return int(self.existing.size)


#: Keys covered by one short range scan.
RANGE_SCAN_KEYS = 16


def _draw(rng: np.random.Generator, pool: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniform draws from ``pool``, with replacement.

    The values and the generator state ``rng.choice(pool, size=count)`` leaves,
    without its argument handling: ~10 us instead of ~18 us for 40 draws
    (2-vCPU VM).
    """
    return pool[rng.integers(0, pool.size, size=count)]


class TraceGenerator:
    """Generates operation traces for a workload over a fixed key space."""

    def __init__(
        self,
        key_space: KeySpace,
        long_scan_keys: int = 512,
        seed: int = 23,
        update_fraction: float = 0.0,
    ) -> None:
        if long_scan_keys < RANGE_SCAN_KEYS:
            raise ValueError(f"long_scan_keys must be at least {RANGE_SCAN_KEYS}")
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError("update_fraction must lie in [0, 1]")
        self.key_space = key_space
        self.long_scan_keys = long_scan_keys
        #: Fraction of the writes that *update* an existing key (duplicate
        #: versions) instead of inserting a fresh one.
        self.update_fraction = float(update_fraction)
        self._rng = np.random.default_rng(seed)
        # Updates draw from a dedicated stream so enabling them leaves every
        # other operation of a seeded trace bit-identical.
        self._update_rng = np.random.default_rng(seed + 104_729)
        self._next_fresh_key = key_space.fresh_start

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def operations(self, workload: Workload, num_operations: int) -> Trace:
        """Materialise ``num_operations`` queries following ``workload``.

        The number of operations per type is the multinomial expectation of
        the workload proportions; operation order is shuffled so query types
        interleave like a live workload.
        """
        if num_operations <= 0:
            raise ValueError("num_operations must be positive")
        counts = self._rng.multinomial(num_operations, workload.as_array())
        empty_gets, gets, ranges, puts = counts.tolist()
        space = self.key_space
        # One block per kind, in kind-code order; the draws keep this order
        # too, so a seeded trace never changes.
        keys = np.concatenate(
            [
                _draw(self._rng, space.missing, empty_gets),
                _draw(self._rng, space.existing, gets),
                _draw(self._rng, space.existing, ranges),
                self._put_keys(puts),
            ]
        )
        kinds = np.repeat(np.arange(len(OperationType), dtype=np.uint8), counts)
        # Deterministic short/long split (the trace is shuffled afterwards, so
        # which draws become long scans carries no ordering information).
        scan_lengths = np.zeros(num_operations, dtype=np.int32)
        first_range = empty_gets + gets
        num_long = int(round(ranges * workload.long_range_fraction))
        scan_lengths[first_range : first_range + num_long] = self.long_scan_keys
        scan_lengths[first_range + num_long : first_range + ranges] = RANGE_SCAN_KEYS
        order = self._rng.permutation(num_operations)
        return Trace(kinds[order], keys[order], scan_lengths[order])

    def _put_keys(self, count: int) -> np.ndarray:
        """Keys of ``count`` writes: the updates first, then fresh inserts."""
        num_updates = (
            int(round(count * self.update_fraction)) if self.update_fraction else 0
        )
        first_fresh = self._next_fresh_key
        self._next_fresh_key += count - num_updates
        return np.concatenate(
            [
                self._update_keys(num_updates),
                np.arange(first_fresh, self._next_fresh_key, dtype=np.int64),
            ]
        )

    def _update_keys(self, count: int) -> np.ndarray:
        """Existing keys to overwrite, drawn uniformly."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return _draw(self._update_rng, self.key_space.existing, count)


def operation_mix(trace: Trace) -> Workload:
    """Recover the workload proportions realised by a concrete trace."""
    if len(trace) == 0:
        raise ValueError("cannot compute the mix of an empty trace")
    return Workload.from_counts(np.bincount(trace.kinds, minlength=len(OperationType)))
