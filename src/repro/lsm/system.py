"""System (non-tunable) parameters of an LSM-tree deployment.

These are the quantities the tuner cannot change: entry size, page size,
number of entries, the total memory budget shared by the write buffer and the
Bloom filters, the read/write cost asymmetry of the storage device and the
selectivity of range queries.  They correspond to the "System" rows of
Table 1 in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Number of bits in one byte; used for the many bit/byte conversions below.
BITS_PER_BYTE = 8

#: Number of bytes in one mebibyte.
MIB = 1024 * 1024

#: Number of bytes in one gibibyte.
GIB = 1024 * MIB


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of the environment an LSM tree runs in.

    Parameters
    ----------
    entry_size_bytes:
        Size ``E`` of one key-value entry in bytes (paper default: 1 KiB).
    page_size_bytes:
        Size of one disk page in bytes (paper default: 4 KiB).  The number of
        entries per page ``B`` is derived from this and ``entry_size_bytes``.
    num_entries:
        Total number of entries ``N`` stored in the tree.
    total_memory_bytes:
        Total main memory budget ``m`` in bytes, shared between the write
        buffer and the Bloom filters (``m = m_buf + m_filt``).
    read_write_asymmetry:
        Storage asymmetry ``A_rw``: how much more expensive a write I/O is
        than a read I/O (1.0 means symmetric).
    range_selectivity:
        Expected selectivity ``S_RQ`` of *short* range queries, i.e. the
        fraction of all entries returned by an average short range query.
        The paper's system experiments use "short" range queries with
        near-zero selectivity.
    long_range_selectivity:
        Expected selectivity of *long* range queries (Dostoevsky §4 splits
        the two regimes: short ranges are seek-dominated, long ranges
        scan-dominated).  Only enters the cost model when a workload carries
        a non-zero ``long_range_fraction``.  The default (2e-5, i.e. a
        200-entry scan ≈ 50 sequential pages at paper scale) makes a long
        scan clearly scan-dominated while keeping it comparable to tens of
        point lookups, so the tuner's trade-off stays non-degenerate.
    min_bits_per_entry:
        Lower bound on Bloom-filter bits per entry the tuner may choose.
    max_size_ratio:
        Upper bound on the size ratio ``T`` explored by the tuner.
    """

    entry_size_bytes: int = 1024
    page_size_bytes: int = 4096
    num_entries: int = 10_000_000
    total_memory_bytes: float = 20 * MIB
    read_write_asymmetry: float = 1.0
    range_selectivity: float = 0.0
    long_range_selectivity: float = 2e-5
    min_bits_per_entry: float = 0.0
    max_size_ratio: float = 100.0

    def __post_init__(self) -> None:
        if self.entry_size_bytes <= 0:
            raise ValueError("entry_size_bytes must be positive")
        if self.page_size_bytes < self.entry_size_bytes:
            raise ValueError("page_size_bytes must be at least entry_size_bytes")
        if self.num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if self.total_memory_bytes <= 0:
            raise ValueError("total_memory_bytes must be positive")
        if self.read_write_asymmetry < 0:
            raise ValueError("read_write_asymmetry must be non-negative")
        if not 0.0 <= self.range_selectivity <= 1.0:
            raise ValueError("range_selectivity must be in [0, 1]")
        if not 0.0 <= self.long_range_selectivity <= 1.0:
            raise ValueError("long_range_selectivity must be in [0, 1]")
        if self.max_size_ratio < 2.0:
            raise ValueError("max_size_ratio must be at least 2")
        if self.max_bits_per_entry <= max(self.min_bits_per_entry, 0.0):
            raise ValueError(
                "total memory budget leaves no room for a write buffer; "
                "increase total_memory_bytes or num_entries"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def entries_per_page(self) -> int:
        """Number of entries that fit in one page (``B`` in the paper)."""
        return max(1, self.page_size_bytes // self.entry_size_bytes)

    @property
    def entry_size_bits(self) -> int:
        """Entry size expressed in bits."""
        return self.entry_size_bytes * BITS_PER_BYTE

    @property
    def total_memory_bits(self) -> float:
        """Total memory budget ``m`` in bits."""
        return self.total_memory_bytes * BITS_PER_BYTE

    @property
    def total_bits_per_entry(self) -> float:
        """Total memory budget normalised per entry, in bits per entry."""
        return self.total_memory_bits / self.num_entries

    @property
    def max_bits_per_entry(self) -> float:
        """Largest Bloom-filter bits-per-entry ``h`` that still leaves memory
        for a non-empty write buffer.

        The write buffer must be able to hold at least one full page of
        entries, otherwise the tree degenerates.
        """
        min_buffer_bits = self.entries_per_page * self.entry_size_bits
        return (self.total_memory_bits - min_buffer_bits) / self.num_entries

    # ------------------------------------------------------------------
    # Memory split helpers
    # ------------------------------------------------------------------
    def filter_memory_bits(self, bits_per_entry: float) -> float:
        """Memory devoted to Bloom filters, in bits, for a given ``h``."""
        return bits_per_entry * self.num_entries

    def buffer_memory_bits(self, bits_per_entry: float) -> float:
        """Memory left for the write buffer, in bits, for a given ``h``.

        ``m_buf = m - m_filt``; raises if the requested filter memory exceeds
        the total budget.
        """
        remaining = self.total_memory_bits - self.filter_memory_bits(bits_per_entry)
        if remaining <= 0:
            raise ValueError(
                f"bits_per_entry={bits_per_entry} exceeds the total memory budget"
            )
        return remaining

    def buffer_memory_bytes(self, bits_per_entry: float) -> float:
        """Memory left for the write buffer, in bytes, for a given ``h``."""
        return self.buffer_memory_bits(bits_per_entry) / BITS_PER_BYTE

    def buffer_entries(self, bits_per_entry: float) -> float:
        """Number of entries the write buffer can hold for a given ``h``."""
        return self.buffer_memory_bits(bits_per_entry) / self.entry_size_bits

    # ------------------------------------------------------------------
    # Tree shape helpers
    # ------------------------------------------------------------------
    def num_levels(self, size_ratio: float, bits_per_entry: float) -> int:
        """Number of disk-resident levels ``L(T)`` (Equation 1 of the paper).

        ``L(T) = ceil( log_T( N * E / m_buf + 1 ) )`` with all sizes in bits.
        """
        if size_ratio < 2.0:
            raise ValueError("size_ratio must be at least 2")
        buffer_bits = self.buffer_memory_bits(bits_per_entry)
        ratio = (self.num_entries * self.entry_size_bits) / buffer_bits + 1.0
        levels = math.ceil(math.log(ratio) / math.log(size_ratio))
        return max(1, int(levels))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def scaled(self, num_entries: int) -> "SystemConfig":
        """Return a copy with a different number of entries.

        The memory budget is scaled proportionally so that the bits-per-entry
        budget (and therefore the qualitative tuning landscape) is preserved.
        ``tune --num-entries`` resizes the default system this way; the
        scaling experiment (Figure 16) builds a ``simulator_system`` per size
        instead.
        """
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        factor = num_entries / self.num_entries
        return replace(
            self,
            num_entries=num_entries,
            total_memory_bytes=self.total_memory_bytes * factor,
        )


#: Default configuration used throughout the model-based evaluation.  It
#: mirrors the paper's setup (10M entries of 1 KiB, 4 KiB pages) with a memory
#: budget that yields Bloom-filter allocations in the same few-bits-per-entry
#: range the paper reports.
DEFAULT_SYSTEM = SystemConfig()


def simulator_system(num_entries: int = 50_000) -> SystemConfig:
    """Build a small :class:`SystemConfig` suitable for the LSM simulator.

    The paper runs its system experiments on RocksDB with 10M entries; the
    pure-Python simulator uses a scaled-down database so experiments finish
    quickly, keeping the per-entry memory budget comparable (16 bits per
    entry).  For very small stores the budget is raised to the minimum that
    still leaves room for a couple of write-buffer pages next to the Bloom
    filters.  A long range scans 1 % of the entries.
    """
    budget = 16.0 * num_entries / BITS_PER_BYTE
    return SystemConfig(
        num_entries=num_entries,
        total_memory_bytes=max(budget, 2.0 * SystemConfig.page_size_bytes),
        long_range_selectivity=0.01,
    )
