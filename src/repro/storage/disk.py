"""Virtual block device with I/O accounting.

The simulator's analogue of enabling direct I/O and reading RocksDB's
statistics module (§8.1): every page read and page write performed by the
tree is recorded here, together with whether it was caused by a query or by a
compaction, so experiments can report *I/Os per query* and amortise
compaction work over writes exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class IOCounters:
    """Raw page-level counters."""

    query_reads: int = 0
    query_writes: int = 0
    compaction_reads: int = 0
    compaction_writes: int = 0
    flush_writes: int = 0

    @property
    def total_reads(self) -> int:
        """All page reads (query + compaction)."""
        return self.query_reads + self.compaction_reads

    @property
    def total_writes(self) -> int:
        """All page writes (query + flush + compaction)."""
        return self.query_writes + self.flush_writes + self.compaction_writes

    @property
    def total(self) -> int:
        """All page I/Os."""
        return self.total_reads + self.total_writes

    def snapshot(self) -> "IOCounters":
        """Copy of the current counters (for before/after deltas)."""
        return IOCounters(**{f.name: getattr(self, f.name) for f in fields(IOCounters)})

    def delta(self, earlier: "IOCounters") -> "IOCounters":
        """Counters accumulated since an earlier snapshot."""
        return IOCounters(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(IOCounters)
        })


@dataclass
class VirtualDisk:
    """Counts page I/Os, split by the query, flush or compaction that caused
    them.  Pages are the simulator's unit of cost: it prices no time."""

    counters: IOCounters = field(default_factory=IOCounters)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def read_pages(self, count: int, compaction: bool = False) -> None:
        """Record ``count`` page reads."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if compaction:
            self.counters.compaction_reads += count
        else:
            self.counters.query_reads += count

    def write_pages(
        self, count: int, compaction: bool = False, flush: bool = False
    ) -> None:
        """Record ``count`` page writes (query, flush or compaction)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if compaction:
            self.counters.compaction_writes += count
        elif flush:
            self.counters.flush_writes += count
        else:
            self.counters.query_writes += count

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> IOCounters:
        """Snapshot of the counters for later delta computation."""
        return self.counters.snapshot()

    def reset(self) -> None:
        """Zero all counters."""
        self.counters = IOCounters()
