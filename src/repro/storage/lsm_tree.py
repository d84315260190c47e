"""A pure-Python LSM-tree storage engine with I/O accounting.

This is the reproduction's stand-in for RocksDB in the paper's system-based
evaluation (§8).  It implements the structure the analytical model assumes:

* an in-memory write buffer (memtable) holding ``m_buf / E`` entries,
* exponentially growing disk levels with size ratio ``T``,
* classic *leveling* and *tiering* compaction plus the *lazy leveling*,
  *1-leveling* and *fluid* hybrids — the latter with any per-level ``K_i``
  bound vector — all driven by the tuning's one
  :class:`~repro.lsm.policy.CompactionPolicy` value (the same definition
  the analytical cost model uses): the compaction triggers
  (``max_resident_runs``), the in-place-merge decision (``in_place``) and
  the bulk-load run splitting all consult it *per level*, so each level
  obeys its own bound.  A flushed run reaches its level through one loop,
  ``LSMTree._cascade``: a single-run level merges what arrives with its
  resident run and carries the result down once it outgrows the level; a
  stacking level stacks what arrives and, past its run bound, merges in
  place (fluid levels below capacity) or carries all its runs down,
* one Bloom filter per run with Monkey-style per-level allocation,
* fence pointers (one per page) so point lookups read at most one page per
  probed run,
* a :class:`~repro.storage.disk.VirtualDisk` that records every page read
  and written, split into query/flush/compaction traffic,
* a *run store* for whatever depends on where the runs live: in-memory
  arrays (:class:`~repro.storage.run.MemoryStore`, the default) or SSTable
  files, a write-ahead log and a manifest
  (:class:`~repro.storage.persistent.FileStore`).  Every structure decision,
  filter seed and page charge is the tree's, so for any trace the tree holds
  the same runs and reports the same counters on either.

Values are not materialised — every entry has the fixed size configured in
the :class:`~repro.lsm.system.SystemConfig` — because the experiments only
measure page I/O counts, never value contents.  Nor are deletes: the paper's
workload (empty and non-empty point reads, range reads, writes) issues none,
so an entry is its key.  An update still leaves an obsolete version of its
key in an older run until a merge consolidates the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..lsm.bloom import monkey_bits_per_level
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..workloads.traces import Operation, OperationType, Trace
from .disk import VirtualDisk
from .memtable import Memtable
from .run import (
    NO_KEYS,
    MemoryStore,
    RunIndex,
    consolidate_versions,
    locate_many,
    unique_sorted,
)


@dataclass(frozen=True)
class TreeStats:
    """A snapshot of the tree's shape."""

    num_entries: int
    num_levels: int
    runs_per_level: tuple[int, ...]
    entries_per_level: tuple[int, ...]
    memtable_entries: int
    filter_memory_bits: int


def execute_operation(engine, operation: Operation) -> None:
    """Dispatch one trace row to an engine's ``put``/``get``/``range_query``.

    The scalar reference of :func:`execute_operations_batched`: replaying a
    trace row by row through here defines the disk counters, tree state and
    GET answers the batched loop must reproduce bit for bit; a range's answer
    is discarded here as it is there.  ``engine`` is the
    live :class:`LSMTree` or the online subsystem's mixed migration state;
    the batched loop asks more of it (see there).
    """
    if operation.kind is OperationType.PUT:
        engine.put(operation.key)
    elif operation.kind is OperationType.RANGE:
        engine.range_query(operation.key, operation.key + operation.scan_length)
    else:
        engine.get(operation.key)


#: Fewer pending GETs than this probe the runs one key at a time: per-batch
#: array overhead beats per-key filter probes only once a batch has some
#: width, and the two paths are bit-identical either way.  Measured on the
#: post-replay bench trees (seed 11, sorted batches of 8-32 of the trace's GET
#: keys, 2-vCPU VM), ``probe_runs`` per key vs ``probe_runs_many`` per call:
#: ``point_read`` 5.3-5.4 us vs 63-74 us (batch wins from 13 keys),
#: ``write_ingest`` 8.3-8.9 us vs 102-120 us (from 13), ``persistent_mixed``
#: on files 8.6-9.3 us vs 97-136 us (from 12).  The bytearray scalar probe
#: moved the crossover up from 11-12 keys on the same trees, to this cutoff.
SCALAR_SPAN_CUTOFF = 14


def drain_get_span(engine, span_keys: list[int], queued: np.ndarray = NO_KEYS) -> None:
    """Probe the engine's runs for the pending GET keys: ``queued``, the
    ``int64`` misses of wide windows, then ``span_keys``.

    The buffer is *not* consulted again: it answered, or did not, at each
    GET's stream position, and a key put since would wrongly skip the run
    probes the scalar reference charged.  Fewer than
    :data:`SCALAR_SPAN_CUTOFF` keys probe one by one, more go through the
    vectorised walk; the disk counters are identical, so the cutoff is purely
    a wall-clock choice.  The walk gets the keys in ascending order: a probe's
    pages depend on its key alone and the answers are discarded, so the order
    is free, and every run's ``searchsorted`` runs ~3x faster on sorted probes.
    The caller empties its queue.
    """
    if queued.size + len(span_keys) < SCALAR_SPAN_CUTOFF:
        for key in queued.tolist() + span_keys if queued.size else span_keys:
            engine.probe_runs(key)
    else:
        keys = np.array(span_keys, dtype=np.int64)
        if queued.size:
            keys = np.concatenate((queued, keys))
        keys.sort()
        engine.probe_runs_many(keys)


#: Fewer pending ranges than this are charged one range at a time, for the
#: same reason.  In a tight loop on the post-replay ``range_scan`` trees,
#: ``charge_range`` per range vs ``charge_ranges`` per batch of 1 / 4 / 8 / 64:
#: leveling T=6 h=8 (4 runs) 6.0 us vs 17.6 / 20.8 / 22.9 / 51 us, leveling
#: T=6 h=10 6.2 us vs 18.6 / 20.5 / 22.9 / 53, tiering T=8 h=1 (6 runs) 8.9 us
#: vs 22.2 / 26.1 / 33.1 / 80: the batch wins from 3-4 ranges.  It runs cold
#: once per flush epoch, so whole calls decide — median reference ms of one
#: bench call at cutoff 4 / 6 / 8 / 16 (5 runs each, 2-vCPU VM):
#: ``sharded_serving`` 92.8 / 90.5 / 91.7 / 92.5, ``online_drift`` 106.5 / 105.1
#: / 105.0 / 104.0; ``range_scan`` (drains of ~90) 58-62 anywhere in 2-32 and
#: 121-125 never batched (2 runs); ``point_read``, ``persistent_mixed`` flat.
RANGE_SPAN_CUTOFF = 6

#: No key lies past it, so a range that ends beyond is cut here when queued.
_MAX_KEY = 2**63 - 1
#: Kind codes of a trace row; both point-read codes sort below ``_RANGE``.
_RANGE, _PUT = OperationType.RANGE.value, OperationType.PUT.value


def drain_range_span(engine, ranges: list[tuple[int, int]]) -> None:
    """Charge the engine's runs for the pending ``(start, end)`` ranges.

    A replayed range's answer is read by nobody, so only its pages are
    charged: the runs' share of a scan depends on the interval and the runs
    alone, and the buffer's share costs no I/O.  Either path charges the same
    pages.  The caller empties its list.
    """
    if len(ranges) < RANGE_SPAN_CUTOFF:
        for start_key, end_key in ranges:
            engine.charge_range(start_key, end_key)
    else:
        starts, ends = zip(*ranges)
        engine.charge_ranges(np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64))


#: A flush-free window of at least this many trace rows is classified with
#: array operations (:func:`classify_window`); a narrower one runs the per-row
#: body.  Not a knob: the two paths are bit-identical, so it is purely a
#: wall-clock choice.  Bench calls at seed 11 (process time, median of 9,
#: 2-vCPU VM) are flat anywhere in 64-1 024: ``point_read`` 117-122 ms against
#: 157 ms with no window wide, ``online_drift`` and ``sharded_serving``
#: within their noise.  Write-dense traces have no window this wide.
WIDE_WINDOW_OPS = 256

#: Most pending reads (GET keys, ranges) the replay loop hands the vectorised
#: read path at once.  Not a knob: every bound replays bit-identical counters
#: and answers (the parity suite and the engine machine draw 1, 3 and this).
MAX_BATCH_OPS = 4_096


def classify_window(engine, trace: Trace, start: int, end: int):
    """Execute the flush-free window ``trace[start:end]`` with array operations.

    No put of the window can flush, so the buffer a GET meets at its row is
    the buffer at the window's start plus the keys the window put at earlier
    rows: a GET is buffered iff :meth:`Memtable.lookup_many` finds its key,
    or a stable sort of the window's put keys shows
    that key's first put at an earlier row.  The puts then run in stream
    order through ``engine.put``.  Returns the window's run side: the
    unbuffered GET keys, and every RANGE's ``(starts, ends)`` columns with
    the end cut at the largest key, all in stream order.
    """
    kinds, keys = trace.kinds[start:end], trace.keys[start:end]
    get_rows = np.flatnonzero(kinds < _RANGE)
    get_keys = keys[get_rows]
    buffered = engine.memtable.lookup_many(get_keys)
    put_rows = np.flatnonzero(kinds == _PUT)
    put_keys = keys[put_rows]
    if put_keys.size and get_keys.size:
        order = np.argsort(put_keys, kind="stable")
        ordered = put_keys[order]
        first = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        ordered, first_rows = ordered[first], put_rows[order[first]]
        at = np.minimum(np.searchsorted(ordered, get_keys), ordered.size - 1)
        buffered |= (ordered[at] == get_keys) & (first_rows[at] < get_rows)
    scans = np.flatnonzero(kinds == _RANGE)
    starts = keys[scans]
    lengths = trace.scan_lengths[start:end][scans].astype(np.int64)
    ends = np.minimum(starts, _MAX_KEY - lengths) + lengths  # no int64 overflow
    for key in put_keys.tolist():
        engine.put(key)
    return get_keys[~buffered], starts, ends


def _rows_from(trace: Trace, start: int, rows, at: int):
    """The per-row body's iterator over plain-int rows, moved from row ``at``
    to row ``start``.

    The rows from ``start`` to the trace's end are made at the first narrow
    window, so a trace whose windows are all wide makes none.  A later narrow
    window skips the rows the wide ones took, unless the skip is longer than
    the rest of the trace: then the rest is made anew, which costs less.
    """
    if rows is None or start - at > len(trace) - start:
        kinds, keys, lengths = trace.kinds[start:], trace.keys[start:], trace.scan_lengths[start:]
        return zip(kinds.tolist(), keys.tolist(), lengths.tolist())
    if start > at:
        next(islice(rows, start - at, start - at), None)
    return rows


def _drain(engine, pending: list[int], queued: np.ndarray, ranges: list, cap: int):
    """Issue the run side of every pending read and empty ``pending`` and
    ``ranges``; returns the loop's emptied ``(queued, limit)``."""
    if pending or queued.size:
        drain_get_span(engine, pending, queued)
        pending.clear()
    if ranges:
        drain_range_span(engine, ranges)
        ranges.clear()
    return NO_KEYS, cap


def execute_operations_batched(
    engine, trace: Trace, max_batch_ops: int = MAX_BATCH_OPS
) -> None:
    """Replay a trace against an engine, batching reads between flushes.

    The one loop that walks a trace.  Every PUT executes at its stream
    position, and so does the buffer's half of every GET: a buffered key
    answers with no I/O.  The *run side* — the unanswered
    GET keys, and every RANGE's ``(start, end)`` — joins two pending queues
    (each capped at ``max_batch_ops``) that are issued when the run set is
    about to change: before a put that may fill the buffer, and when the
    trace ends.  Between two flushes the runs are immutable and a read's page
    charge depends on the key or interval and the runs alone, so only the
    order of read I/O inside a flush epoch shifts — which no measurement
    observes, sessions measure counter deltas.  The drain precedes the
    flushing put because a flush on files unlinks the tables it replaced.
    Disk counters, tree state and GET answers are bit-identical to replaying
    the trace row by row through :func:`execute_operation`; a range is
    charged its pages and answered by nobody, there as here.

    The trace is walked in flush-free *windows*: the rows before the next put
    that may flush, as ``write_room()`` bounds them.  A window of at least
    :data:`WIDE_WINDOW_OPS` rows — a read-dense stretch — is classified in
    one array pass (:func:`classify_window`), and its misses queue as one
    ``int64`` array; a narrower one runs the per-row body below, so a
    write-dense trace never enters the array path.

    ``engine`` (an :class:`LSMTree`, or a mid-flight ``MigrationPlan``, whose
    steps run between calls) exposes ``put``, the ``memtable`` a GET asks
    first, ``write_room()`` — puts that certainly cannot flush — the
    buffer-skipping ``probe_runs`` / ``probe_runs_many``, and
    ``charge_range`` / ``charge_ranges``.
    """
    range_kind = _RANGE
    buffered = engine.memtable.holds
    pending: list[int] = []
    ranges: list[tuple[int, int]] = []
    append = pending.append
    # Wide windows' misses, fewer than the cap, queue ahead of ``pending``,
    # which reaches the cap at ``limit`` keys.
    queued, limit = NO_KEYS, max_batch_ops
    size = len(trace)
    # The put rows bound the windows; a trace too short to hold a wide one
    # skips them.
    put_rows = (trace.kinds == _PUT).nonzero()[0] if size >= WIDE_WINDOW_OPS else NO_KEYS
    # The least room that can span a wide window: ``room`` puts span at most
    # ``room`` of the widest gaps after a put, the trace's end closing the last.
    reach = math.inf
    if put_rows.size:
        reach = -(-WIDE_WINDOW_OPS // int(np.diff(put_rows, append=size).max()))
    # Read as plain ints through a memoryview: cheaper on a write-dense trace
    # than a list of them.
    put_rows = memoryview(put_rows)
    puts = len(put_rows)
    rows, at = None, -1  # the per-row body's iterator, yielding row ``at`` next
    start = put = 0  # the next row, and the first put at or after it in put_rows
    while start < size:
        room = engine.write_room()
        if not room and put < puts and put_rows[put] == start:  # a put that may flush
            queued, limit = _drain(engine, pending, queued, ranges, max_batch_ops)
            engine.put(int(trace.keys[start]))
            start, put = start + 1, put + 1
            continue
        ahead = put + room
        end = put_rows[ahead] if ahead < puts else size
        if end - start >= WIDE_WINDOW_OPS:
            misses, starts, ends = classify_window(engine, trace, start, end)
            queued = np.concatenate((queued, np.array(pending, dtype=np.int64), misses))
            pending.clear()
            while queued.size >= max_batch_ops:
                drain_get_span(engine, [], queued[:max_batch_ops])
                queued = queued[max_batch_ops:]
            limit = max_batch_ops - queued.size
            ranges += zip(starts.tolist(), ends.tolist())
            while len(ranges) >= max_batch_ops:
                drain_range_span(engine, ranges[:max_batch_ops])
                del ranges[:max_batch_ops]
            start, put = end, min(ahead, puts)
            continue
        # A narrow window: the per-row body, on until a put finds the window
        # ahead of it wide, or the trace ends.
        rows = _rows_from(trace, start, rows, at)
        granted = room
        for kind, key, scan_length in rows:
            if kind < range_kind:  # both point-read codes sort below RANGE
                if not buffered(key):
                    append(key)
                    if len(pending) >= limit:
                        queued, limit = _drain(engine, pending, queued, ranges, max_batch_ops)
            elif kind == range_kind:
                ranges.append((key, min(key + scan_length, _MAX_KEY)))
                if len(ranges) >= max_batch_ops:
                    queued, limit = _drain(engine, pending, queued, ranges, max_batch_ops)
            else:
                if not room:
                    # Updates do not grow the buffer, so the room is a lower
                    # bound: re-read from the engine when it runs out.
                    put += granted
                    room = granted = engine.write_room()
                    if not room:
                        queued, limit = _drain(engine, pending, queued, ranges, max_batch_ops)
                        room = granted = 1
                    elif room >= reach and (
                        put_rows[put + room] if put + room < puts else size
                    ) - put_rows[put] >= WIDE_WINDOW_OPS:
                        start = put_rows[put]
                        at = start + 1
                        break
                room -= 1
                engine.put(key)
        else:
            break
    _drain(engine, pending, queued, ranges, max_batch_ops)


@dataclass(frozen=True)
class BulkLoadPlan:
    """The placements a bulk load would install, computed without applying them.

    ``placements`` lists ``(level, run_keys)`` pairs in install order (deepest
    level first, runs of a level in their natural order); ``leftover`` holds
    keys that fit no level and go to the memtable; ``deepest`` is the number
    of disk levels the loaded tree exposes.  Produced by
    :meth:`LSMTree.plan_bulk_load` and consumed both by
    :meth:`LSMTree.bulk_load` and by the online subsystem's incremental
    migration plan — the two therefore place keys *identically*.
    """

    placements: tuple[tuple[int, np.ndarray], ...]
    leftover: np.ndarray
    deepest: int

    @property
    def num_entries(self) -> int:
        """Entries placed into disk runs (leftover excluded)."""
        return sum(piece.size for _, piece in self.placements)


class _PendingRun:
    """Entries on their way down a flush's cascade: a run with an id, not built.

    It stands in the planned levels where the built run would and is sized and
    merged like one; ``level`` is the level whose filter budget it is built
    with (a trivially moved run keeps the level it left).
    """

    __slots__ = ("keys", "level", "num_entries", "num_pages")

    def __init__(self, keys, level: int, entries_per_page: int) -> None:
        self.keys, self.level = keys, level
        self.num_entries = int(keys.size)
        self.num_pages = -(-self.num_entries // entries_per_page)


class _FlushPlan:
    """What one flush will leave, worked out before anything is built or changed.

    ``levels`` starts as a copy of the tree's run lists and ends as the new
    structure, the one :class:`_PendingRun` left standing — the newest of its
    level — where the run to build goes.  Every merge on the way takes a run id
    as if its output were built (ids seed filters and name files) and adds its
    pages.
    """

    def __init__(self, levels: list, run_counter: int, entries_per_page: int) -> None:
        self.levels = [list(runs) for runs in levels]
        self.run_counter = run_counter
        self.entries_per_page = entries_per_page
        self.reads = self.writes = 0  # compaction pages

    def pend(self, keys: np.ndarray, level: int) -> _PendingRun:
        """The next run id's entries, travelling; whatever it merged is consumed."""
        self.run_counter += 1
        return _PendingRun(keys, level, self.entries_per_page)


class BufferFirstReads:
    """Reads of a ``memtable`` in front of ``probe_runs`` / ``probe_runs_many`` / ``scan_runs``.

    What an engine's read entry points share — the live :class:`LSMTree` and
    the online subsystem's mixed migration state differ only in what lies
    past the buffer.
    """

    def get(self, key: int) -> bool:
        """Point lookup; returns whether the key is held.

        Probes the memtable first (no I/O), then every run from the smallest
        to the largest level, newest run first within a level, charging one
        page read for every run whose Bloom filter and fence pointers fail to
        rule it out, until one holds the key.
        """
        return self.memtable.holds(key) or self.probe_runs(key)

    def get_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched point lookups; returns a per-key mask of the keys held.

        The vectorised twin of :meth:`get`: the whole batch walks the levels
        *once*, so a span of reads pays one Python-level pass over the runs
        instead of one per key, while the disk sees exactly the page counts
        the scalar loop would have charged.
        """
        keys = np.asarray(keys, dtype=np.int64)
        found = self.memtable.lookup_many(keys)
        unbuffered = np.flatnonzero(~found)
        if unbuffered.size:
            found[unbuffered] = self.probe_runs_many(keys[unbuffered])
        return found

    def range_query(self, start_key: int, end_key: int) -> int:
        """Range lookup; returns the number of keys in the interval.

        Every overlapping run pays at least one page read (the seek) plus the
        sequential pages covered by the interval; the versions of all runs
        are consolidated, so an obsolete version is never counted.
        """
        return int(self.scan_versions(start_key, end_key).size)

    def scan_versions(self, start_key: int, end_key: int) -> np.ndarray:
        """Every key in ``[start_key, end_key]``, once and sorted.

        Charges the same page reads as :meth:`range_query`: the buffer's keys
        inside the interval, then ``scan_runs`` under them; when a single run
        answers, the array is a read-only view of it.
        """
        return self.scan_runs(start_key, end_key, self.memtable.scan_items(start_key, end_key))


class LSMTree(BufferFirstReads):
    """Simulated LSM tree configured by a tuning and a system description.

    Class attributes
    ----------------
    BULK_LOAD_FILL_FRACTION:
        Fraction of each level's capacity used when bulk loading; the
        remaining headroom prevents the very first post-load flush from
        cascading into a rewrite of the largest level.

    Parameters
    ----------
    tuning:
        The LSM tuning ``Φ = (T, h, π)`` to deploy.  Fractional size ratios
        are rounded to the nearest integer, ties up, as the paper does when
        deploying on RocksDB (:meth:`~repro.lsm.tuning.LSMTuning.rounded`).
    system:
        System parameters (entry size, page size, memory budget, …).  Use
        :func:`repro.lsm.system.simulator_system` for laptop-scale instances.
    disk:
        Optional pre-existing virtual disk (e.g. shared across measurements).
    seed:
        Seed for the per-run Bloom-filter hashes.
    store:
        The run store the tree owns (see :class:`~repro.storage.run.MemoryStore`
        for the calls); in-memory runs by default.  What the store recovers
        of an earlier tree — runs, run counter, logged writes — is adopted.
    """

    #: Fraction of a level's capacity that bulk loading fills (see class docs).
    BULK_LOAD_FILL_FRACTION = 0.85

    def __init__(
        self,
        tuning: LSMTuning,
        system: SystemConfig,
        disk: VirtualDisk | None = None,
        seed: int = 1,
        store=None,
    ) -> None:
        self.system = system
        self.tuning = tuning.clamped(system).rounded()
        self.compaction = self.tuning.compaction
        self.size_ratio = int(self.tuning.size_ratio)
        self.disk = disk if disk is not None else VirtualDisk()
        self._seed = seed
        self._run_counter = 0
        #: Benchmark knob: when False, arriving runs stack without merging —
        #: the classic "compaction off" regime of engine benchmarks.  Reads
        #: stay correct (consolidation is unconditional), only
        #: the structure degrades.
        self.compaction_enabled = True
        self.store = store if store is not None else MemoryStore()
        self._log = self.store.log

        self.entries_per_page = system.entries_per_page
        buffer_entries = int(system.buffer_entries(self.tuning.bits_per_entry))
        self.buffer_entries = max(self.entries_per_page, buffer_entries)
        self.memtable = Memtable(self.buffer_entries)
        #: Disk levels; ``levels[i]`` holds the runs of disk level ``i + 1``,
        #: ordered from most to least recent.
        self.levels: list[list[RunIndex]] = []

        self._estimated_levels = int(
            system.disk_levels(self.tuning.size_ratio, self.tuning.bits_per_entry)
        )
        self._bits_per_level = monkey_bits_per_level(
            self.tuning.size_ratio, self.tuning.bits_per_entry, self._estimated_levels
        )

        recovered = self.store.recover()
        if recovered is not None:
            self.levels, self._run_counter, logged = recovered
            # Acknowledged writes no flush had persisted: replaying them
            # rebuilds the memtable the restart wiped out.
            for key in logged:
                self.memtable.put(key)

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def level_capacity_entries(self, level: int) -> int:
        """Capacity of disk level ``level`` in entries: ``(T-1) T^(i-1) · buf``."""
        if level < 1:
            raise ValueError("disk levels are numbered from 1")
        return int(
            (self.size_ratio - 1)
            * self.size_ratio ** (level - 1)
            * self.buffer_entries
        )

    def _bits_for_level(self, level: int) -> float:
        """Monkey bits-per-entry for the filters of disk level ``level``."""
        index = min(level, self._estimated_levels) - 1
        if index < 0 or self._bits_per_level.size == 0:
            return 0.0
        return float(self._bits_per_level[index])

    def _build_run(self, keys, run_id: int, level: int) -> RunIndex:
        """Create run number ``run_id`` on the store, filtered as a run of ``level``."""
        return self.store.create_run(
            keys,
            run_id=run_id,
            entries_per_page=self.entries_per_page,
            bits_per_entry=self._bits_for_level(level),
            seed=self._seed + run_id,
        )

    def _ensure_level(self, level: int, levels: list | None = None) -> None:
        levels = self.levels if levels is None else levels
        while len(levels) < level:
            levels.append([])

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: int) -> None:
        """Insert or update a key; may trigger a flush and compactions."""
        self._log(key)
        self.memtable.put(key)
        if self.memtable.is_full:
            self.flush()

    def write_room(self) -> int:
        """Puts that certainly cannot flush (updates leave more room than this)."""
        return max(self.buffer_entries - len(self.memtable) - 1, 0)

    def flush(self) -> None:
        """Flush the memtable into disk level 1: plan, build, apply.

        The cascade is first walked on entries (a :class:`_FlushPlan`); then
        the one run it ends in is built — the only step a store can fail,
        taken while levels, memtable and counters are untouched, so the
        buffer still answers for every acknowledged write and the next put
        retries; only then is the tree changed, charged and committed.
        """
        if self.memtable.is_empty:
            return
        plan = _FlushPlan(self.levels, self._run_counter, self.entries_per_page)
        arrival = plan.pend(self.memtable.sorted_items(), level=1)
        rest = self._cascade(plan, [arrival], 1)
        rest[0] = self._build_run(rest[0].keys, plan.run_counter, rest[0].level)
        self.levels[:] = plan.levels
        self._run_counter = plan.run_counter
        self.disk.write_pages(arrival.num_pages, flush=True)
        self.disk.read_pages(plan.reads, compaction=True)
        self.disk.write_pages(plan.writes, compaction=True)
        self.memtable.clear()
        # The flushed run now covers everything that was logged.
        self.store.commit(self.levels, self._run_counter, buffered=())

    def _merge_runs(self, plan: _FlushPlan, runs: list, target_level: int) -> _PendingRun:
        """Sort-merge runs' keys, adding the compaction I/O to the plan."""
        plan.reads += sum(r.num_pages for r in runs)
        merged = plan.pend(consolidate_versions([run.keys for run in runs]), target_level)
        plan.writes += merged.num_pages
        return merged

    def _cascade(self, plan: _FlushPlan, arriving: list, level: int) -> list:
        """Bring ``arriving`` runs to ``level`` of the plan, carrying down until they rest.

        Returns the plan's run list of the level they rest in, whose newest
        run is the one :class:`_PendingRun` left standing.

        The policy is asked with the plan's depth once ``level`` exists, so
        lazy leveling's single-run largest level tracks the tree as it grows.
        A single-run level merges the arrivals with its resident run (a lone
        run is taken as-is, with no I/O, as RocksDB moves a file into an
        empty level) and carries the result down once it outgrows the level's
        capacity.  A stacking level merges the arrivals into one run and
        stacks it newest-first; past its run bound it either merges in place
        (fluid policies, while the level has entry headroom) or carries all
        its runs down, where a single-run level takes them in one merge.
        """
        levels = plan.levels
        while True:
            self._ensure_level(level, levels)
            runs = levels[level - 1]
            if not self.compaction_enabled:
                runs[:0] = arriving
                return runs
            depth = len(levels)
            leveled = self.compaction.merges_on_arrival(level, depth)
            merging = arriving + runs if leveled else arriving
            run = self._merge_runs(plan, merging, level) if len(merging) > 1 else merging[0]
            if leveled:
                runs = levels[level - 1] = [run]
                if run.num_entries <= self.level_capacity_entries(level):
                    return runs
            else:
                runs.insert(0, run)
                if len(runs) <= self.compaction.max_resident_runs(self.size_ratio, level, depth):
                    return runs
                room = self.level_capacity_entries(level) - sum(r.num_entries for r in runs)
                if self.compaction.in_place and room > 0:
                    runs = levels[level - 1] = [self._merge_runs(plan, runs, level)]
                    return runs
            arriving, levels[level - 1] = levels[level - 1], []
            level += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def probe_runs(self, key: int) -> bool:
        """:meth:`get` past the buffer: whether a disk level holds the key."""
        for runs in self.levels:
            for run in runs:
                found, pages = run.lookup(key)
                if pages:
                    self.disk.read_pages(pages)
                if found:
                    return True
        return False

    def probe_runs_many(self, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`probe_runs`: a per-key mask of the keys held.

        Probes every run from the smallest to the largest level, newest run
        first within a level, carrying an *unresolved* index: a key stops
        probing deeper runs the moment a run answers it — the scalar
        early-exit, applied per key.  Each probed run charges the disk one
        ``read_pages`` call with the batch's total candidate pages, which
        sums to exactly what per-key scalar probes would have charged (page
        counts are per probe, not per unique page).
        """
        found = np.zeros(keys.size, dtype=bool)
        # Indices of keys no probe has answered yet; shrinks as runs hit.
        pending = np.arange(keys.size)
        for runs in self.levels:
            for run in runs:
                if pending.size == 0:
                    return found
                run_found, pages = run.lookup_many(keys[pending])
                if pages:
                    self.disk.read_pages(pages)
                if run_found.any():
                    found[pending[run_found]] = True
                    pending = pending[~run_found]
        return found

    def scan_runs(self, start_key: int, end_key: int, buffered: np.ndarray) -> np.ndarray:
        """:meth:`scan_versions` past the buffer, whose keys are ``buffered``.

        The one scalar walk of the levels for ranges: every run is scanned and
        charged, and its keys consolidated with ``buffered``.
        """
        key_parts = [buffered] if buffered.size else []
        total_pages = 0
        for runs in self.levels:
            for run in runs:
                keys, pages = run.scan_entries(start_key, end_key)
                total_pages += pages
                if keys.size:
                    key_parts.append(keys)
        if total_pages:
            self.disk.read_pages(total_pages)
        return consolidate_versions(key_parts)

    def charge_range(self, start_key: int, end_key: int) -> None:
        """Charge the pages :meth:`scan_runs` would for the interval, and no more."""
        pages = 0
        for runs in self.levels:
            for run in runs:
                pages += run.scan_pages(start_key, end_key)
        if pages:
            self.disk.read_pages(pages)

    def charge_ranges(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Batched :meth:`charge_range` over the ``int64`` interval columns.

        One path on every store: the batch is located on the runs' resident
        sparse indexes at once (:func:`locate_many`, two ``searchsorted`` a
        run), each run reads the spans it is charged — a table ``pread``s
        each and decodes nothing, a resident run has nothing to read — and
        the disk is charged the sum in one ``read_pages``.
        """
        runs = [run for level in self.levels for run in level]
        if runs:
            first, last, pages = locate_many(runs, starts, ends)
            for run, run_first, run_last in zip(runs, first, last):
                run.read_spans(run_first, run_last)
            self.disk.read_pages(int(pages.sum()))

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, keys: np.ndarray) -> None:
        """Populate the tree with sorted unique keys without charging I/O.

        Mirrors the paper's experimental setup: every database instance is
        bulk-loaded with the same data before measurements start, and that
        loading cost is not part of any reported metric.  Keys are placed
        bottom-up so the tree starts in a steady-state shape (deep levels
        nearly full, shallower levels holding the remainder).  Single-run
        levels are filled only to :data:`BULK_LOAD_FILL_FRACTION` of their
        capacity so the first trickle of writes does not immediately trigger
        a full rewrite of the largest level.
        """
        plan = self.plan_bulk_load(keys)
        self._ensure_level(plan.deepest)
        for lvl, piece in plan.placements:
            self._place_bulk_run(piece, lvl)
        # Anything that still did not fit goes to the memtable (rare), past
        # the log — so the commit rewrites the log from the memtable.
        for key in plan.leftover:
            self.memtable.put(int(key))
        self.store.commit(self.levels, self._run_counter, self.memtable.sorted_items().tolist())

    def plan_bulk_load(self, keys: np.ndarray) -> BulkLoadPlan:
        """Compute the run placements of a bulk load without applying them.

        The returned plan is exactly what :meth:`bulk_load` installs; the
        online subsystem's incremental migration replays the same placements
        one bounded step at a time, so the migrated tree is byte-identical to
        a freshly loaded one.
        """
        keys = unique_sorted(np.asarray(keys, dtype=np.int64))
        remaining = keys
        level_chunks: list[tuple[int, np.ndarray]] = []
        # Levels that merge on arrival trigger compaction on *size*, so bulk
        # loading leaves them headroom below capacity; run-stacking levels
        # trigger on the *run count* and can be loaded to full capacity.  The
        # per-level split is the compaction policy's call (lazy leveling
        # mixes both kinds in one tree).
        total = keys.size
        deepest = 1
        while self._bulk_load_capacity(deepest) < total and deepest < 64:
            deepest += 1
        # Fill from the deepest level upwards so lower levels are the fullest.
        for lvl in range(deepest, 0, -1):
            if remaining.size == 0:
                break
            capacity = self._bulk_load_level_capacity(lvl, deepest)
            take = min(capacity, remaining.size)
            level_chunks.append((lvl, remaining[remaining.size - take :]))
            remaining = remaining[: remaining.size - take]
        placements = tuple(
            (lvl, piece)
            for lvl, chunk in level_chunks
            for piece in self._bulk_load_runs(chunk, lvl, deepest)
        )
        return BulkLoadPlan(placements=placements, leftover=remaining, deepest=deepest)

    def install_bulk_run(self, keys: np.ndarray, level: int) -> None:
        """Install one bulk-planned run at ``level``, charging no I/O.

        The caller is responsible for pricing the install (bulk loading is
        free by experimental convention; a migration charges the pages to the
        virtual disk as compaction traffic before installing).
        """
        self._place_bulk_run(keys, level)
        # A commit point of its own, so a migration survives a kill between
        # steps.  The log already covers the memtable (a migration target's
        # holds acknowledged writes): it stays as it is.
        self.store.commit(self.levels, self._run_counter, buffered=None)

    def _place_bulk_run(self, keys: np.ndarray, level: int) -> None:
        """Build a run of ``keys`` as the oldest of ``level``; no commit."""
        self._ensure_level(level)
        self._run_counter += 1
        run = self._build_run(keys, self._run_counter, level)
        self.levels[level - 1].append(run)

    def _bulk_load_level_capacity(self, level: int, deepest: int) -> int:
        """Entries bulk loading may place at ``level`` in a ``deepest``-level tree."""
        merges = self.compaction.merges_on_arrival(level, deepest)
        fraction = self.BULK_LOAD_FILL_FRACTION if merges else 1.0
        return int(fraction * self.level_capacity_entries(level))

    def _bulk_load_capacity(self, deepest: int) -> int:
        """Total entries a bulk-loaded tree of ``deepest`` levels can hold."""
        return sum(
            self._bulk_load_level_capacity(lvl, deepest)
            for lvl in range(1, deepest + 1)
        )

    def _bulk_load_runs(
        self, chunk: np.ndarray, level: int, deepest: int
    ) -> list[np.ndarray]:
        """Split a bulk-loaded level into runs matching the policy's steady state.

        Levels that merge on arrival keep a single run.  Run-stacking levels
        accumulate up to the level's ``max_resident_runs`` (``T - 1`` at most,
        fewer under a fluid bound), each the size of a compaction arriving
        from the level above, so a bulk-loaded tree must expose the same
        number of runs a naturally filled one would — otherwise measured read
        costs would be unrealistically low.
        """
        if chunk.size == 0 or self.compaction.merges_on_arrival(level, deepest):
            return [chunk]
        natural_run_entries = max(
            self.buffer_entries,
            self.level_capacity_entries(level) // max(self.size_ratio - 1, 1),
        )
        num_runs = int(np.clip(
            np.ceil(chunk.size / natural_run_entries),
            1,
            self.compaction.max_resident_runs(self.size_ratio, level, deepest),
        ))
        # Interleave keys across runs so every run spans the whole key domain,
        # as overlapping tiered runs do in practice.
        return [chunk[offset::num_runs] for offset in range(num_runs)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def successor(self, tuning: LSMTuning, seed: int) -> "LSMTree":
        """An empty tree on a sibling of this tree's store, sharing its disk.

        The online controller rebuilds through this factory when it migrates
        to a new tuning, so a tree on files is replaced by a tree on files
        (in a fresh sibling directory) and migration I/O lands on the
        stream's counters.
        """
        return LSMTree(tuning, self.system, self.disk, seed, store=self.store.sibling())

    def close(self) -> None:
        """Release the store's resources, leaving what it persisted in place.

        The memtable is *not* flushed: a durable store's log covers it, so a
        reopened tree recovers it without perturbing the structure (and the
        disk counters) the trace produced.
        """
        self.store.close()

    def dispose(self) -> None:
        """Close the tree at end-of-life and delete what its store owns.

        Called on trees a migration has fully superseded — every live entry
        was copied into the replacement, so the storage is garbage.
        """
        self.close()
        self.store.destroy()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Total number of entries resident in the tree (including buffer)."""
        return len(self.memtable) + sum(
            run.num_entries for runs in self.levels for run in runs
        )

    @property
    def resident_pages(self) -> int:
        """Disk pages currently occupied by the tree's runs."""
        return sum(run.num_pages for runs in self.levels for run in runs)

    def stats(self) -> TreeStats:
        """Snapshot of the tree's current shape and memory usage."""
        runs_per_level = tuple(len(runs) for runs in self.levels)
        entries_per_level = tuple(
            sum(run.num_entries for run in runs) for runs in self.levels
        )
        filter_bits = sum(
            run.filter_size_bits for runs in self.levels for run in runs
        )
        return TreeStats(
            num_entries=self.num_entries,
            num_levels=len(self.levels),
            runs_per_level=runs_per_level,
            entries_per_level=entries_per_level,
            memtable_entries=len(self.memtable),
            filter_memory_bits=filter_bits,
        )
