"""A concrete Bloom filter used by the LSM-tree simulator.

The analytical model only needs false-positive *rates*; the simulator needs a
real membership structure so that empty point lookups genuinely pay I/O only
when the filter errs — exactly the mechanism the paper's system experiments
measure.  The implementation is a plain (unpartitioned) Bloom filter with
double hashing: every probe of a key indexes the one bit table, held as one
byte per bit (padded to whole bytes) in a ``bytearray`` whose ``bool`` view a
build scatters into and a batched probe gathers from, while a scalar probe
indexes the ``bytearray`` itself.  It is packed, bit ``p`` at byte ``p // 8``,
bit ``p % 8``, only for an SSTable footer (:attr:`BloomFilter.bit_table`).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from ..lsm.bloom import optimal_hash_count

#: Two large odd multipliers for the double-hashing scheme.
_HASH_MULT_1 = 0x9E3779B97F4A7C15
_HASH_MULT_2 = 0xC2B2AE3D27D4EB4F
_HASH_MASK = (1 << 64) - 1

# The constants of :func:`_hash_pair` as 0-d ``uint64`` arrays, which a ufunc
# takes cheaper than NumPy scalars (0.84 against 1.05 us for a 95-key
# multiply): building one per use costs as much as the op it feeds.
_U64_MULT_1, _U64_MULT_2, _U64_SHIFT_1, _U64_SHIFT_2, _U64_ONE = (
    np.array(value, dtype=np.uint64) for value in (_HASH_MULT_1, _HASH_MULT_2, 29, 31, 1)
)

#: Keys per block of :meth:`BloomFilter.add_many`'s scatter.  A flushed run is
#: one block; a 17k-key bulk-loaded run done as one block allocates a ~1 MiB
#: position matrix and same-sized temporaries, and measured 1.7x slower than
#: in 4k-key blocks, whose temporaries stay cache-sized.
_BUILD_BLOCK_KEYS = 4_096


@cache
def _probe_offsets(num_hashes: int) -> np.ndarray:
    """Probe indices ``0 .. num_hashes - 1`` as a read-only column, one per hash
    count and shared: a twenty-key filter's own ``arange`` rivals its hashing."""
    column = np.arange(num_hashes, dtype=np.uint64).reshape(-1, 1)
    column.setflags(write=False)
    return column


def _hash_pair(keys: np.ndarray, seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two 64-bit hash streams for each key (vectorised double hashing).

    ``uint64`` arithmetic wraps mod 2^64, which is the ``& _HASH_MASK`` the
    plain-int twin in :meth:`BloomFilter.might_contain` spells out.  Keys are
    read as the ``uint64`` image of their ``int64`` value — an ``int64`` array
    without a copy — and the seeded keys' buffer becomes the second stream.
    """
    mixed = keys.astype(np.int64, copy=False).view(np.uint64) + seed
    h1 = mixed * _U64_MULT_1
    h1 ^= h1 >> _U64_SHIFT_1
    mixed *= _U64_MULT_2
    mixed ^= mixed >> _U64_SHIFT_2
    # Force h2 odd so the double-hash probes cover the whole table.
    mixed |= _U64_ONE
    return h1, mixed


class BloomFilter:
    """Bloom filter over 64-bit integer keys.

    Parameters
    ----------
    expected_entries:
        Number of keys the filter is sized for.
    bits_per_entry:
        Memory budget; zero (or fewer than one total bit) produces a
        degenerate filter that always answers "maybe", i.e. never saves I/O.
    seed:
        Hash seed, so different runs use independent filters.
    """

    def __init__(
        self, expected_entries: int, bits_per_entry: float, seed: int = 0
    ) -> None:
        if expected_entries < 0:
            raise ValueError("expected_entries must be non-negative")
        if bits_per_entry < 0:
            raise ValueError("bits_per_entry must be non-negative")
        self.expected_entries = expected_entries
        self.bits_per_entry = float(bits_per_entry)
        self.seed = seed
        total_bits = math.ceil(bits_per_entry * max(expected_entries, 1))
        self._degenerate = total_bits < 8 or expected_entries == 0
        self.num_bits = max(total_bits, 8)
        self.num_hashes = optimal_hash_count(bits_per_entry)
        self._bytes = bytearray(-(-self.num_bits // 8) * 8)
        self._table = np.frombuffer(self._bytes, bool)  # the same bytes, no copy
        self._count = 0
        # Probe-offset column vector, modulus and seed, precomputed so the
        # build and the batched membership test run a fixed number of array
        # ops per call instead of a Python loop over hash functions.
        self._probe_offsets = _probe_offsets(self.num_hashes)
        self._num_bits_u64 = np.array(self.num_bits, dtype=np.uint64)
        self._seed_u64 = np.array(int(seed) & _HASH_MASK, dtype=np.uint64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _probe_positions(self, keys: np.ndarray) -> np.ndarray:
        """Bit positions every key probes, as one ``(num_hashes, n)`` ``int64`` array.

        The only place a batch of keys becomes positions: the build and the
        batched membership test both index with this, so they cannot
        disagree.  ``uint64`` arithmetic wraps mod 2^64 exactly like the
        scalar path's explicit mask.  The remainder is ``x - (x // m) * m``:
        NumPy divides a ``uint64`` array by a scalar with a multiply-and-shift
        but takes ``%`` with a hardware divide per element, ~3x slower.  Every
        position is below ``num_bits``, so the result is read as ``int64`` —
        the native index type, which a gather or scatter takes without a cast.
        """
        h1, h2 = _hash_pair(keys, self._seed_u64)
        positions = self._probe_offsets * h2
        positions += h1
        quotient = positions // self._num_bits_u64
        quotient *= self._num_bits_u64
        positions -= quotient
        return positions.view(np.int64)

    def add_many(self, keys: np.ndarray) -> None:
        """Insert a batch of integer keys."""
        keys = np.asarray(keys)
        if keys.size == 0:
            return
        self._count += keys.size
        if self._degenerate:
            return
        # One scatter into the table, which keeps what earlier calls set;
        # keys go through in blocks so the position matrix stays cache-sized.
        for start in range(0, keys.size, _BUILD_BLOCK_KEYS):
            self._table[self._probe_positions(keys[start : start + _BUILD_BLOCK_KEYS])] = True

    def add(self, key: int) -> None:
        """Insert a single key (wrapped to 64 bits like an array key)."""
        self.add_many(np.array([int(key) & _HASH_MASK], dtype=np.uint64))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def might_contain(self, key: int) -> bool:
        """Whether the filter may contain ``key`` (false positives possible).

        Plain-int arithmetic on the ``bytearray``, no NumPy call per probe:
        the masks reproduce :func:`_hash_pair`'s ``uint64`` wrap-around, so a
        negative ``int64`` key probes the positions its ``astype(np.uint64)``
        image does, and probe ``i`` is the ``first + i * second`` of the
        batched path, reached by adding ``second`` once per probe.
        """
        if self._degenerate:
            return True
        mixed = (int(key) + self.seed) & _HASH_MASK
        position = (mixed * _HASH_MULT_1) & _HASH_MASK
        position ^= position >> 29
        second = (mixed * _HASH_MULT_2) & _HASH_MASK
        second ^= second >> 31
        second |= 1
        table, num_bits = self._bytes, self.num_bits
        for _ in range(self.num_hashes):
            if not table[position % num_bits]:
                return False
            position = (position + second) & _HASH_MASK
        return True

    def might_contain_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`might_contain` over a key array.

        One ``(num_hashes, n)`` pass over the whole batch; the probe
        positions are exactly the scalar path's (64-bit wrap-around included),
        so each answer is bit-identical to ``might_contain`` on that key.
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.empty(0, dtype=bool)
        if self._degenerate:
            return np.ones(keys.size, dtype=bool)
        return self._table[self._probe_positions(keys)].all(axis=0)

    def __contains__(self, key: int) -> bool:
        return self.might_contain(int(key))

    # ------------------------------------------------------------------
    # Serialisation (the persistent backend's SSTable footer)
    # ------------------------------------------------------------------
    @property
    def bit_table(self) -> np.ndarray:
        """The bit table packed: bit ``p`` is byte ``p // 8``, bit ``p % 8``.

        With ``expected_entries``, ``bits_per_entry``, ``seed`` and ``count``
        it is everything the filter answers with — what a footer stores.  A
        new array each call: the filter itself never reads the packed form.
        """
        return np.packbits(self._table, bitorder="little")

    @classmethod
    def from_state(
        cls, expected_entries: int, bits_per_entry: float, seed: int, count: int, bits
    ) -> "BloomFilter":
        """Rebuild a filter from its stored state (e.g. a table's footer): its
        probe answers are bit-identical to those of the filter it was taken from."""
        filt = cls(expected_entries, bits_per_entry, seed)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (filt._table.size // 8,):
            raise ValueError(
                f"stored bit table has {bits.size} bytes but the filter "
                f"parameters imply {filt._table.size // 8}"
            )
        filt._table[:] = np.unpackbits(bits, bitorder="little").view(bool)
        filt._count = count
        return filt

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size_bits(self) -> int:
        """Allocated size of the filter in bits."""
        return 0 if self._degenerate else self.num_bits

    @property
    def count(self) -> int:
        """Number of keys inserted so far."""
        return self._count

    def expected_false_positive_rate(self) -> float:
        """Theoretical false-positive rate at the current fill level."""
        if self._degenerate:
            return 1.0
        if self._count == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.num_hashes * self._count / self.num_bits)
        return fill**self.num_hashes
