"""Parity suite for the one replay loop and the batched read path under it.

``execute_operations_batched`` is the only function that walks a trace; its
contract is **bit identity** with the scalar reference — the same trace
replayed row by row through ``execute_operation``.  Virtual-disk counters,
tree state, and (under the online controller) the drift events and the
estimator's floats must come out equal.  ``tests/test_engine_machine.py``
checks that against an oracle on random streams with updates, crashes,
migrations and fleets; these tests pin the contract on every engine the loop
runs on:

* the simulated ``LSMTree`` under every registered compaction policy —
  including per-level K_i vector bounds — with pre-seeded updates and tiny
  buffers so flushes and compactions land mid-stream;
* the tree on a ``FileStore``;
* a ``MigrationPlan`` paused mid-flight, where reads fall through the mixed
  old/new state;
* the ``OnlineLSMController`` under ``fixed`` and ``queue-depth`` admission,
  through a re-tune and an incremental migration;
* the executors, whose session measurements must equal a scalar replay of the
  traces they regenerate; a session, static or adaptive, replayed as one
  trace, must equal a call of the loop per workload trace
  (``TestSessionReplay``), and a controller's counters, events and step
  positions must not depend on where its stream is cut into calls.

Streams are dense in the shape the loop reorders — GET · RANGE · GET · PUT with
no flush in between, where the run side of the pending GETs and RANGEs waits
past the puts — and ``TestEpochFence`` pins the fence itself by name: a GET's
buffer half is taken at its stream position, and a RANGE is charged, never
answered, by the loop — it must charge the intervals the scalar side asked,
in stream order, and the same pages in every flush epoch.  What a range
*answers* is pinned on the scalar side's ``range_query``, on every engine.
The random streams' flush-free windows take the per-row body or, at a window
cutoff of 2, the array pass (``classify_window``); ``TestWideWindow`` pins
the array pass at its own cutoff.  Below the loop, ``get_many`` is pinned
against per-key ``get`` on hostile probes.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from contextlib import contextmanager
from functools import cache, partial
from itertools import count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.lsm import CompactionPolicy, LSMTuning, Policy, simulator_system
from repro.online import (
    ADMISSION_MODES,
    MigrationPlan,
    OnlineConfig,
    OnlineLSMController,
)
from repro.serving.sharding import partition_keys, route_operations
from repro.storage.executor import tree_fingerprint
from repro.storage import ExecutorConfig, IOCounters, LSMTree, WorkloadExecutor, lsm_tree
from repro.storage.lsm_tree import (
    RANGE_SPAN_CUTOFF,
    SCALAR_SPAN_CUTOFF,
    WIDE_WINDOW_OPS,
    BufferFirstReads,
    execute_operation,
    execute_operations_batched,
)
from repro.storage.memtable import Memtable
from repro.storage.persistent import FileStore
from repro.workloads import (
    KeySpace,
    Operation,
    OperationType,
    Session,
    SessionGenerator,
    SessionSequence,
    SessionType,
    Trace,
    TraceGenerator,
    UncertaintyBenchmark,
    Workload,
    operation_mix,
)

_SYSTEM = simulator_system(num_entries=2_000)
_KEY_SPACE = KeySpace.build(_SYSTEM.num_entries, seed=7)

#: Every registered policy the simulator can run, including a fluid tuning
#: with a full per-level K_i bound vector.
_TUNINGS = [
    LSMTuning(8.0, 6.0, Policy.LEVELING),
    LSMTuning(5.0, 5.0, Policy.TIERING),
    LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING),
    LSMTuning(6.0, 6.0, Policy.ONE_LEVELING),
    LSMTuning(5.0, 5.0, CompactionPolicy.fluid((3,), 2)),
    LSMTuning(6.0, 6.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)),
]
_TUNING_IDS = [
    "leveling",
    "tiering",
    "lazy-leveling",
    "1-leveling",
    "fluid-scalar",
    "fluid-kvector",
]

#: Span caps: every read its own span, spans cut mid-window, never cut.
_BATCH_BOUNDS = [1, 3, 4_096]

#: Kind weights of the random streams.  Read-dense: reads and scans dominate so
#: a flush epoch holds several GET · RANGE · GET alternations.  Put-dense: a
#: flush every few operations, so epochs open and close around the reads.
_READ_DENSE_KINDS = [
    OperationType.GET,
    OperationType.GET,
    OperationType.GET,
    OperationType.EMPTY_GET,
    OperationType.RANGE,
    OperationType.RANGE,
    OperationType.PUT,
]
_PUT_DENSE_KINDS = [
    OperationType.GET,
    OperationType.EMPTY_GET,
    OperationType.RANGE,
    OperationType.PUT,
    OperationType.PUT,
    OperationType.PUT,
    OperationType.PUT,
]


@st.composite
def _operation_streams(draw) -> list[Operation]:
    """A random mixed op stream over the shared key space.

    Writes hit fresh keys *and* already-resident keys (updates), so flushed
    runs carry stale versions; gets split between resident and missing keys
    so both Bloom-positive and Bloom-negative probes occur; range scans
    interleave with the gets without fencing them.  Put-dense streams write
    their fresh keys into a narrow band the empty gets also ask for and the
    scans also cover, so a key is read before it is put, after, and on both
    sides of its flush.
    """
    existing = _KEY_SPACE.existing
    missing = _KEY_SPACE.missing
    num_ops = draw(st.integers(min_value=1, max_value=120))
    kinds, fresh_band = draw(
        st.sampled_from([(_READ_DENSE_KINDS, 10_000), (_PUT_DENSE_KINDS, 40)])
    )
    ops: list[Operation] = []
    for _ in range(num_ops):
        kind = draw(st.sampled_from(kinds))
        resident = int(existing[draw(st.integers(0, existing.size - 1))])
        fresh = _KEY_SPACE.fresh_start + draw(st.integers(0, fresh_band))
        if kind is OperationType.GET:
            ops.append(Operation(kind, resident))
        elif kind is OperationType.EMPTY_GET:
            absent = int(missing[draw(st.integers(0, missing.size - 1))])
            ops.append(Operation(kind, absent if draw(st.booleans()) else fresh))
        elif kind is OperationType.RANGE:
            start = resident if draw(st.booleans()) else fresh - 8
            ops.append(Operation(kind, start, scan_length=draw(st.integers(1, 32))))
        else:
            ops.append(Operation(kind, resident if draw(st.booleans()) else fresh))
    return ops


def _loaded_tree(tuning: LSMTuning, updates: np.ndarray | None = None) -> LSMTree:
    """The key space bulk-loaded, then ``updates`` put again: obsolete
    versions in the runs, newer ones in the runs above and in the buffer."""
    tree = LSMTree(tuning, _SYSTEM, seed=9)
    tree.bulk_load(_KEY_SPACE.existing)
    if updates is not None:
        for key in updates:
            tree.put(int(key))
    tree.disk.reset()
    return tree


def _mid_flight_plan(
    target_tuning: LSMTuning = LSMTuning(4.0, 6.0, Policy.TIERING),
) -> tuple[MigrationPlan, np.ndarray]:
    """A migration caught mid-flight, with writes landed on top.

    Returns ``(plan, mid_plan_puts)``: checkpoint keys put again through the
    mixed state, which the target now holds and the source holds too.
    """
    source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
    target = LSMTree(target_tuning, _SYSTEM, disk=source.disk, seed=33)
    plan = MigrationPlan(source, target, max_step_pages=64)
    checkpoint = plan.checkpoint_keys
    plan.run_next_step()
    plan.run_next_step()
    # Writes landing *during* the migration go to the target, so some keys
    # are answered there and the rest fall through to the frozen source.
    rng = np.random.default_rng(21)
    puts = np.concatenate([rng.choice(checkpoint, size=25, replace=False) for _ in range(2)])
    for key in puts:
        plan.put(int(key))
    plan.source.disk.reset()
    return plan, puts


def _replay_scalar(engine, ops) -> None:
    for op in ops:
        execute_operation(engine, op)


def _replay_loop(engine, ops, max_batch_ops: int = 4_096) -> None:
    """Through the one loop, in one call."""
    execute_operations_batched(engine, Trace.of(ops), max_batch_ops)


#: The cutoffs are wall-clock choices: parity must hold wherever they sit, and
#: a low one sends the short random streams' ranges through the batched walk,
#: and their flush-free windows through the array pass.
_RANGE_CUTOFFS = [2, RANGE_SPAN_CUTOFF]
_WINDOW_CUTOFFS = [2, WIDE_WINDOW_OPS]

#: The parity cases skip shrinking: a real loop bug fails dozens of them, and
#: shrinking each for minutes makes a failing run look hung.  The unshrunk
#: example is printed, and ``.hypothesis/`` replays it.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


_MAX_KEY = 2**63 - 1


def _charge(log, engine, intervals: list[tuple[int, int]], charge):
    """``charge()``, with its ``intervals`` appended to ``log.ranges`` and the
    query pages it cost added to ``log.pages`` under the flush epoch — the
    flush pages written so far, the same count at the same stream position on
    either side."""
    counters = _trees(engine)[0].disk.counters
    epoch, before = counters.flush_writes, counters.query_reads
    result = charge()
    log.ranges += intervals
    log.pages[epoch] += counters.query_reads - before
    return result


class _RunSideAnswers:
    """Forwards to an engine, noting what the runs were asked.

    GETs: on the scalar side a ``get`` of a key the buffer did not hold, on
    the loop's side every run-side probe — the two ``answers`` lists hold the
    same ``(key, live)`` pairs, in another order inside a flush epoch.
    RANGEs: ``ranges`` holds every interval charged, on either side; ranges
    are drained in the order they were asked, so the two lists are *equal*,
    and so are the ``pages`` they cost per flush epoch.  Only the scalar side
    answers a range: ``counts`` holds what its ``range_query`` returned.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.answers: list[tuple[int, bool]] = []
        self.ranges: list[tuple[int, int]] = []
        self.pages: Counter[int] = Counter()
        self.counts: list[int] = []

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def get(self, key):
        buffered = self.engine.memtable.holds(key)
        live = self.engine.get(key)
        if not buffered:
            self.answers.append((key, live))

    def probe_runs(self, key):
        self.answers.append((key, self.engine.probe_runs(key)))

    def probe_runs_many(self, keys):
        self.answers += zip(keys.tolist(), self.engine.probe_runs_many(keys).tolist())

    def range_query(self, start, end):
        # The loop cuts a range at the largest key there is.
        interval = [(start, min(end, _MAX_KEY))]
        count = _charge(self, self.engine, interval, lambda: self.engine.range_query(start, end))
        self.counts.append(count)

    def charge_range(self, start, end):
        _charge(self, self.engine, [(start, end)], lambda: self.engine.charge_range(start, end))

    def charge_ranges(self, starts, ends):
        intervals = list(zip(starts.tolist(), ends.tolist()))
        _charge(self, self.engine, intervals, lambda: self.engine.charge_ranges(starts, ends))


def _assert_same_answers(batched: _RunSideAnswers, scalar: _RunSideAnswers) -> None:
    assert sorted(batched.answers) == sorted(scalar.answers)
    assert batched.ranges == scalar.ranges
    assert batched.pages == scalar.pages and not batched.counts


class TestLoopMatchesScalarReference:
    """execute_operations_batched == per-row execute_operation, bit for bit."""

    @pytest.mark.parametrize("tuning", _TUNINGS, ids=_TUNING_IDS)
    @given(
        ops=_operation_streams(),
        max_batch_ops=st.sampled_from(_BATCH_BOUNDS),
        update_seed=st.integers(0, 2**16),
        range_cutoff=st.sampled_from(_RANGE_CUTOFFS),
        window_cutoff=st.sampled_from(_WINDOW_CUTOFFS),
    )
    @settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
    def test_simulated_tree(
        self, tuning, ops, max_batch_ops, update_seed, range_cutoff, window_cutoff
    ):
        rng = np.random.default_rng(update_seed)
        updates = rng.choice(_KEY_SPACE.existing, size=40, replace=False)
        scalar = _RunSideAnswers(_loaded_tree(tuning, updates))
        batched = _RunSideAnswers(_loaded_tree(tuning, updates))

        _replay_scalar(scalar, ops)
        with (
            mock.patch.object(lsm_tree, "RANGE_SPAN_CUTOFF", range_cutoff),
            mock.patch.object(lsm_tree, "WIDE_WINDOW_OPS", window_cutoff),
        ):
            _replay_loop(batched, ops, max_batch_ops)

        assert batched.disk.counters == scalar.disk.counters
        assert batched.stats() == scalar.stats()
        assert tree_fingerprint(batched.engine) == tree_fingerprint(scalar.engine)
        _assert_same_answers(batched, scalar)

    @given(
        ops=_operation_streams(),
        max_batch_ops=st.sampled_from(_BATCH_BOUNDS),
        window_cutoff=st.sampled_from(_WINDOW_CUTOFFS),
    )
    @settings(max_examples=10, deadline=None, phases=_NO_SHRINK)
    def test_persistent_tree(self, ops, max_batch_ops, window_cutoff):
        with tempfile.TemporaryDirectory() as root:
            trees = []
            for name in ("scalar", "batched"):
                tree = LSMTree(
                    _TUNINGS[1], _SYSTEM, seed=9, store=FileStore(Path(root) / name)
                )
                tree.bulk_load(_KEY_SPACE.existing)
                tree.disk.reset()
                trees.append(tree)
            scalar, batched = (_RunSideAnswers(tree) for tree in trees)
            try:
                _replay_scalar(scalar, ops)
                with mock.patch.object(lsm_tree, "WIDE_WINDOW_OPS", window_cutoff):
                    _replay_loop(batched, ops, max_batch_ops)
                assert batched.disk.counters == scalar.disk.counters
                assert batched.stats() == scalar.stats()
                assert tree_fingerprint(batched.engine) == tree_fingerprint(scalar.engine)
                _assert_same_answers(batched, scalar)
            finally:
                for tree in trees:
                    tree.close()

    @given(
        ops=_operation_streams(),
        max_batch_ops=st.sampled_from(_BATCH_BOUNDS),
        window_cutoff=st.sampled_from(_WINDOW_CUTOFFS),
    )
    @settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
    def test_migration_plan_paused_mid_flight(self, ops, max_batch_ops, window_cutoff):
        scalar, batched = (_RunSideAnswers(_mid_flight_plan()[0]) for _ in range(2))

        _replay_scalar(scalar, ops)
        with mock.patch.object(lsm_tree, "WIDE_WINDOW_OPS", window_cutoff):
            _replay_loop(batched, ops, max_batch_ops)

        assert batched.source.disk.counters == scalar.source.disk.counters
        assert batched.target.stats() == scalar.target.stats()
        assert tree_fingerprint(batched.target) == tree_fingerprint(scalar.target)
        assert tree_fingerprint(batched.source) == tree_fingerprint(scalar.source)
        _assert_same_answers(batched, scalar)

    def test_a_range_does_not_fence_the_get_span(self):
        """Nor does a PUT with room; the drain precedes the PUT that has none.

        A recording engine sees: the roomy puts in stream position with no
        read of the runs before them; the run side of the pending reads — one
        batched probe holding a key put *after* its GET, not the key put
        *before* its GET, and one batched charge of the ranges' intervals —
        immediately before the put that may flush; the rest when the trace
        ends.  The buffer is never scanned for a range.
        """
        calls = []

        class Buffer(Memtable):
            def scan_items(self, start, end):
                calls.append(("buffer scan", start, end))
                return super().scan_items(start, end)

        class Engine:
            def __init__(self):
                self.memtable = Buffer(4)

            def write_room(self):
                return max(self.memtable.capacity_entries - len(self.memtable) - 1, 0)

            def probe_runs(self, key):
                calls.append(("probe_runs", key))

            def probe_runs_many(self, keys):
                calls.append(("probe_runs_many", keys.tolist()))

            def charge_range(self, start, end):
                calls.append(("charge_range", start, end))

            def charge_ranges(self, starts, ends):
                calls.append(("charge_ranges", list(zip(starts.tolist(), ends.tolist()))))

            def put(self, key):
                calls.append(("put", key, "room" if self.write_room() else "may flush"))
                self.memtable.put(key)
                if self.memtable.is_full:
                    self.memtable.clear()

        def gets(*keys):
            return [Operation(OperationType.GET, key) for key in keys]

        def put(key):
            return Operation(OperationType.PUT, key)

        scan = Operation(OperationType.RANGE, 95, 10)  # [95, 105]: holds 99, 100, 101
        # Wide enough for the batched paths, wherever the cutoffs sit.
        width, scans = SCALAR_SPAN_CUTOFF + 2, RANGE_SPAN_CUTOFF + 1
        ops = gets(*range(5)) + [scan]
        ops += gets(*range(5, width)) + [put(99), put(3)] + gets(99, 3) + [scan] * scans
        ops += [put(100)] + gets(200) + [put(101)] + gets(99, 7) + [scan]
        execute_operations_batched(Engine(), Trace.of(ops))
        assert calls == [
            ("put", 99, "room"),
            ("put", 3, "room"),
            ("put", 100, "room"),
            ("probe_runs_many", list(range(width)) + [200]),
            ("charge_ranges", [(95, 105)] * (1 + scans)),
            ("put", 101, "may flush"),
            ("probe_runs", 99),  # flushed since: no longer the buffer's to answer
            ("probe_runs", 7),
            ("charge_range", 95, 105),
        ]


#: Where the epoch-fence cases run: both run stores and the mixed migration state.
_ENGINE_KINDS = ["memory", "files", "mid-migration"]
#: Buffer of 6 entries, and of 4 — its floor, one page.
_ROOMY, _FLOOR = LSMTuning(4.0, 6.0, Policy.TIERING), LSMTuning(4.0, 20.0, Policy.TIERING)


def _trees(engine) -> list[LSMTree]:
    """The trees behind an engine; the one that takes the writes first."""
    return [engine.target, engine.source] if isinstance(engine, MigrationPlan) else [engine]


@contextmanager
def _engine_pair(kind: str, tuning: LSMTuning):
    """Two identical engines of ``kind`` whose write buffer is ``tuning``'s."""
    with tempfile.TemporaryDirectory() as root:
        if kind == "mid-migration":
            engines = [_mid_flight_plan(tuning)[0] for _ in range(2)]
        else:
            engines = []
            for name in ("scalar", "batched"):
                store = FileStore(Path(root) / name) if kind == "files" else None
                engines.append(LSMTree(tuning, _SYSTEM, seed=9, store=store))
                engines[-1].bulk_load(_KEY_SPACE.existing)
        try:
            yield engines
        finally:
            for engine in engines:
                _trees(engine)[0].close()


def _gets(*keys: int) -> list[Operation]:
    return [Operation(OperationType.GET, int(key)) for key in keys]


def _puts(*keys: int) -> list[Operation]:
    return [Operation(OperationType.PUT, int(key)) for key in keys]


def _ranges(*starts: int, length: int = 16) -> list[Operation]:
    return [Operation(OperationType.RANGE, int(start), length) for start in starts]


def _range_pages(engine, start: int, end: int) -> int:
    """Pages one scan of ``[start, end]`` is charged by the runs as they stand."""
    return sum(
        run.scan_entries(start, end)[1]
        for tree in _trees(engine)
        for runs in tree.levels
        for run in runs
    )


def _check_windows(engines, windows, max_batch_ops=4_096, between=lambda engine: None):
    """Replay ``windows`` row by row on one engine and through the loop, one
    call a window, on the other; everything observable must agree.

    ``between`` is what happens to an engine after each window.  Returns the
    loop's side's counter delta, the run-side GET answers and what the scalar
    side's ``range_query`` answered, range by range.
    """
    scalar, batched = (_RunSideAnswers(engine) for engine in engines)
    disk = _trees(batched.engine)[0].disk
    before = disk.snapshot()
    for ops in windows:
        _replay_scalar(scalar, ops)
        between(scalar.engine)
        execute_operations_batched(batched, Trace.of(ops), max_batch_ops)
        between(batched.engine)
    for reference, tree in zip(_trees(scalar.engine), _trees(batched.engine)):
        assert tree.disk.counters == reference.disk.counters
        assert tree.stats() == reference.stats()
        assert tree_fingerprint(tree) == tree_fingerprint(reference)
    _assert_same_answers(batched, scalar)
    delta = disk.counters.delta(before)
    touched = sorted({op.key for ops in windows for op in ops})
    assert [batched.engine.get(key) for key in touched] == [
        scalar.engine.get(key) for key in touched
    ]
    return delta, scalar.answers, scalar.counts


@pytest.mark.parametrize("kind", _ENGINE_KINDS)
class TestEpochFence:
    """A read's run side is fenced by the next change of the run set, a GET's
    buffer side is taken at its stream position — case by case.  Counters and
    fingerprints are the loop's against the scalar side's; a range's answer
    is the scalar side's ``range_query``, asked at its stream position."""

    def test_get_then_put_of_the_key_in_one_epoch(self, kind):
        """At drain time the key *is* buffered; its run probes are still owed."""
        key = int(_KEY_SPACE.existing[17])
        with _engine_pair(kind, _ROOMY) as engines:
            delta, answers, _ = _check_windows(engines, [_gets(key) + _puts(key) + _gets(key)])
            assert answers == [(key, True)]  # the second GET was the buffer's
            assert delta.query_reads >= 1

    def test_put_then_get_of_the_key_in_one_epoch(self, kind):
        key = int(_KEY_SPACE.existing[17])
        with _engine_pair(kind, _ROOMY) as engines:
            delta, answers, _ = _check_windows(engines, [_puts(key) + _gets(key, key)])
            assert answers == [] and delta.query_reads == 0

    def test_buffered_update_read_back(self, kind):
        """A resident key put before the call: its GETs are the buffer's."""
        key = int(_KEY_SPACE.existing[23])
        with _engine_pair(kind, _ROOMY) as engines:
            for engine in engines:
                engine.put(key)
            delta, answers, _ = _check_windows(
                engines, [_gets(key) + _puts(key + 1) + _gets(key)]
            )
            assert answers == [] and delta.query_reads == 0
            assert engines[1].get(key)

    def test_range_then_put_of_a_key_inside_it(self, kind):
        """At drain time the key *is* buffered; it is not the earlier ranges' to
        count, and costs the later ones no page."""
        start = int(_KEY_SPACE.existing[40])
        fresh = start + 1
        assert fresh not in _KEY_SPACE.existing
        for width in (1, RANGE_SPAN_CUTOFF):  # either side of the cutoff
            with _engine_pair(kind, _ROOMY) as engines:
                pages = _range_pages(engines[1], start, start + 16)
                ops = _ranges(start) * width + _puts(fresh) + _ranges(start) * width
                delta, _, counts = _check_windows(engines, [ops])
                # Put before the later scans: counted there, and the buffer is free.
                assert counts == counts[:1] * width + [counts[0] + 1] * width
                assert delta.query_reads == 2 * width * pages

    def test_a_resident_key_updated_then_scanned_counts_once(self, kind):
        start = int(_KEY_SPACE.existing[40])
        with _engine_pair(kind, _ROOMY) as engines:
            ops = _ranges(start) + _puts(start, start) + _ranges(start)
            _, _, (first, second) = _check_windows(engines, [ops])
            assert second == first >= 1

    def test_a_buffered_update_leaves_a_scan_counting_the_resident_key_once(self, kind):
        start = int(_KEY_SPACE.existing[40])
        fresh = start + 1
        assert fresh not in _KEY_SPACE.existing
        with _engine_pair(kind, _ROOMY) as engines:
            (before,) = _check_windows(engines, [_ranges(start)])[2]
            for engine in engines:
                engine.put(start)
                engine.put(fresh)
            (after,) = _check_windows(engines, [_ranges(start)])[2]
            assert after == before + 1  # the fresh key, and the update not again

    def test_overlapping_and_repeated_ranges_in_one_epoch(self, kind):
        """Each takes the buffer as it stood when *it* was asked."""
        start = int(_KEY_SPACE.existing[40])
        fresh = start + 1
        for copies in (1, RANGE_SPAN_CUTOFF):  # either side of the cutoff
            with _engine_pair(kind, _ROOMY) as engines:
                scans = _ranges(start, start - 5, start, start + 1) * copies
                ops = scans + _puts(fresh) + scans + _puts(start) + scans
                _, _, counts = _check_windows(engines, [ops])
                rounds = [counts[i : i + 4] for i in range(0, len(counts), 4)]
                unseen, seen = rounds[0], rounds[-1]
                assert all(each == unseen for each in rounds[:copies])
                assert seen == [count + 1 for count in unseen]
                assert all(each == seen for each in rounds[copies:])

    def test_updates_of_one_buffered_key_outlast_the_room(self, kind):
        """No flush may be assumed while updates spin, none missed after them."""
        key, other = (int(k) for k in _KEY_SPACE.existing[[5, 6]])
        fresh = _KEY_SPACE.fresh_start + 70_000
        with _engine_pair(kind, _ROOMY) as engines:
            room = engines[0].write_room()
            spin = (_puts(key) + _gets(other) + _ranges(key)) * (room + 5)
            delta, answers, _ = _check_windows(engines, [spin])
            assert delta.flush_writes == 0 and len(answers) == room + 5
        with _engine_pair(kind, _ROOMY) as engines:
            burst = range(fresh, fresh + 2 * room + 3)
            # Asked for while absent, then put: a probe issued after the flush
            # that holds them would find them.
            ops = spin + _gets(other, *burst) + _ranges(fresh) + _puts(*burst) + _gets(other)
            delta, _, counts = _check_windows(engines, [ops])
            assert delta.flush_writes > 0 and counts[-1] == 0

    @pytest.mark.parametrize("where", ["first", "last", "only"])
    def test_flushing_put_at_the_edge_of_a_window(self, kind, where):
        # The reads ask for the flushed key too: probed or scanned after the
        # flush, not before it, it would be found in the run the flush built.
        flushing = _puts(_KEY_SPACE.fresh_start + 90_000)
        reads = _gets(*_KEY_SPACE.existing[:20], *_KEY_SPACE.missing[:5], flushing[0].key)
        reads += _ranges(flushing[0].key - 3, *_KEY_SPACE.existing[:RANGE_SPAN_CUTOFF])
        window = {"first": flushing + reads, "last": reads + flushing, "only": flushing}[where]
        with _engine_pair(kind, _ROOMY) as engines:
            for engine in engines:  # one fresh put short of a flush
                for fresh in range(engine.write_room()):
                    engine.put(_KEY_SPACE.fresh_start + 50_000 + fresh)
            # Reads on either side: each window is its own call to the loop.
            delta, _, _ = _check_windows(engines, [reads, window, reads])
            assert delta.flush_writes > 0
            assert len(engines[1].memtable) == 0

    @pytest.mark.parametrize("max_batch_ops", _BATCH_BOUNDS)
    def test_more_pending_reads_than_the_cap(self, kind, max_batch_ops):
        """``max_batch_ops`` bounds each pending list, not the span."""
        keys = np.random.default_rng(3).choice(_KEY_SPACE.existing, size=40)
        ops = _gets(*keys[:25]) + _ranges(*keys[:20]) + _puts(keys[3])
        ops += _gets(*keys[25:], keys[3]) + _ranges(*keys[20:], keys[3] - 2)
        with _engine_pair(kind, _ROOMY) as engines:
            _check_windows(engines, [ops], max_batch_ops)

    @pytest.mark.parametrize(
        "width", [1, RANGE_SPAN_CUTOFF - 1, RANGE_SPAN_CUTOFF, 3 * RANGE_SPAN_CUTOFF]
    )
    def test_multi_part_ranges_on_either_side_of_the_cutoff(self, kind, width):
        """Five or more runs, versions of one key in several of them and in
        the buffer: every count is the scalar walk's, however many ranges
        share the drain."""
        rng = np.random.default_rng(5)
        hot = _KEY_SPACE.existing[100:160]
        updates = rng.choice(hot, size=30).tolist()
        with _engine_pair(kind, _ROOMY) as engines:
            for engine in engines:  # several flushes of updates
                for key in updates + hot[::7].tolist():
                    engine.put(key)
                engine.put(int(hot[3]))
            tree = _trees(engines[1])[0]
            assert sum(len(runs) for runs in tree.levels) >= 5 and len(tree.memtable)
            starts = rng.choice(hot, size=width)
            versions = [
                sum(run.scan_entries(int(start), int(start) + 40)[0].size > 0
                    for runs in tree.levels for run in runs)
                for start in starts
            ]
            assert max(versions) >= 2
            _check_windows(engines, [_ranges(*starts, length=40) + _ranges(*starts, length=0)])

    def test_buffer_capacity_at_its_floor(self, kind):
        rng = np.random.default_rng(4)
        fresh = _KEY_SPACE.fresh_start + 110_000
        ops = []
        for index in range(60):
            key = fresh + index if index % 3 else rng.choice(_KEY_SPACE.existing)
            ops += _gets(*rng.choice(_KEY_SPACE.existing, size=2), key) + _puts(key)
            ops += _gets(rng.choice(_KEY_SPACE.missing), key) + _ranges(key - 4, fresh)
        with _engine_pair(kind, _FLOOR) as engines:
            tree = _trees(engines[0])[0]
            assert tree.buffer_entries == tree.entries_per_page
            delta, _, _ = _check_windows(engines, [ops])
            assert delta.flush_writes > 0

    @pytest.mark.parametrize("copies", [1, RANGE_SPAN_CUTOFF + 3], ids=["below", "above"])
    def test_a_range_that_ends_past_int64(self, kind, copies):
        """``key + scan_length`` is a Python int; an ``int64`` column of ends is not."""
        top = 2**63 - 1
        with _engine_pair(kind, _ROOMY) as engines:
            filling = engines[0].write_room() + 1
            for engine in engines:  # the last key there is, flushed into a run
                for key in range(top + 1 - filling, top + 1):
                    engine.put(key)
            tree = _trees(engines[1])[0]
            assert len(tree.memtable) == 0 and tree.levels[0][0].keys[-1] == top
            ops = [Operation(OperationType.RANGE, top - 9, 512)] * copies
            delta, _, counts = _check_windows(engines, [ops])
            assert counts == [min(10, filling)] * copies
            assert delta.query_reads > 0


#: Reads of absent keys, enough on their own to make the window they open wide.
_WIDE_PADDING = _gets(*_KEY_SPACE.missing[:WIDE_WINDOW_OPS])


def _flush_buffers(engines, fresh: int) -> None:
    """Put keys from ``fresh`` on into each engine until its buffer has just
    flushed, so the next window has all the buffer's room."""
    for engine in engines:
        for key in count(fresh):
            engine.put(key)
            if not len(engine.memtable):
                break


@contextmanager
def _classified():
    """A spy on the loop's calls of ``classify_window``."""
    with mock.patch.object(lsm_tree, "classify_window", wraps=lsm_tree.classify_window) as spy:
        yield spy


@pytest.mark.parametrize("kind", _ENGINE_KINDS)
class TestWideWindow:
    """The array pass at its own cutoff: each trace below is one wide window,
    classified in one call, and the loop must still agree with the scalar
    reference on every case the per-row body gets right by construction."""

    def test_a_get_of_a_key_put_earlier_in_the_window(self, kind):
        fresh = _KEY_SPACE.fresh_start + 160_000
        resident = int(_KEY_SPACE.existing[31])
        ops = _WIDE_PADDING + _gets(fresh, resident) + _puts(fresh, resident)
        ops += _gets(resident, fresh, fresh) + _WIDE_PADDING
        with _engine_pair(kind, _ROOMY) as engines:
            _flush_buffers(engines, fresh + 1)
            with _classified() as spy:
                delta, answers, _ = _check_windows(engines, [ops])
            assert spy.call_count == 1 and delta.flush_writes == 0
            # Only the GETs before the puts were the runs' to answer.
            assert [a for a in answers if a[0] in (fresh, resident)] == [
                (fresh, False),
                (resident, True),
            ]

    def test_a_get_of_a_buffered_update(self, kind):
        key = int(_KEY_SPACE.existing[23])
        with _engine_pair(kind, _ROOMY) as engines:
            _flush_buffers(engines, _KEY_SPACE.fresh_start + 170_000)
            for engine in engines:
                engine.put(key)
            with _classified() as spy:
                _, answers, _ = _check_windows(engines, [_WIDE_PADDING + _gets(key, key)])
            assert spy.call_count == 1
            assert key not in [asked for asked, _ in answers]
            assert engines[1].get(key)

    @pytest.mark.parametrize("copies", [1, RANGE_SPAN_CUTOFF + 3], ids=["below", "above"])
    @pytest.mark.parametrize("edge", ["smallest", "largest"])
    def test_a_range_at_an_end_of_int64(self, kind, edge, copies):
        """Columns of starts and ends: ``start + length`` neither overflows
        past the largest key nor, from the smallest, wraps round to it."""
        with _engine_pair(kind, _ROOMY) as engines:
            filling = engines[0].write_room() + 1
            first = -(2**63) if edge == "smallest" else 2**63 - filling
            for engine in engines:  # the end's keys, flushed into a run
                for key in range(first, first + filling):
                    engine.put(key)
            assert len(engines[1].memtable) == 0
            # The end's ten keys: from the smallest, or to past the largest.
            start, length = (first, 9) if edge == "smallest" else (2**63 - 10, 512)
            ops = _WIDE_PADDING + [Operation(OperationType.RANGE, start, length)] * copies
            with _classified() as spy:
                delta, _, counts = _check_windows(engines, [ops])
            assert spy.call_count == 1
            assert counts == [min(10, filling)] * copies
            assert delta.query_reads > 0

    def test_a_flush_in_the_per_row_body_then_a_read_dense_stretch(self, kind):
        """The re-entry from the per-row body into the array pass.

        The trace opens write-dense, so its first window is narrow and the
        per-row body takes it; it flushes there twice, then turns read-dense.
        Only the body's re-entry hands a window back to the array pass, so
        every ``classify_window`` call below was made through it."""
        rng = np.random.default_rng(5)
        fresh = _KEY_SPACE.fresh_start + 190_000
        ops = []
        for key in range(fresh, fresh + 14):  # two flushes of the 6-entry buffer
            ops += _puts(key) + _gets(int(rng.choice(_KEY_SPACE.existing)))
        for key in range(fresh + 14, fresh + 30):
            reads = _gets(*rng.choice(_KEY_SPACE.existing, size=60))
            reads += _gets(*rng.choice(_KEY_SPACE.missing, size=30), key)
            reads += _ranges(*rng.choice(_KEY_SPACE.existing, size=10))
            ops += _puts(key) + [reads[index] for index in rng.permutation(len(reads))]
        with _engine_pair(kind, _ROOMY) as engines:
            _flush_buffers(engines, fresh + 1_000)
            assert engines[1].write_room() == 5  # the first window is narrow
            with _classified() as spy:
                delta, answers, _ = _check_windows(engines, [ops])
            assert spy.call_count >= 2
            assert delta.flush_writes > 0 and delta.query_reads > 0
            assert len(answers) > 1_000

    @pytest.mark.parametrize("max_batch_ops", [1, 3])
    def test_a_long_read_window_never_drains_past_the_cap(self, kind, max_batch_ops):
        rng = np.random.default_rng(8)
        ops = _gets(*rng.choice(_KEY_SPACE.existing, size=1_000))
        ops += _gets(*rng.choice(_KEY_SPACE.missing, size=600))
        ops += _ranges(*rng.choice(_KEY_SPACE.existing, size=400))
        ops = [ops[index] for index in rng.permutation(len(ops))]
        drained = []
        get_span, range_span = lsm_tree.drain_get_span, lsm_tree.drain_range_span

        def drain_gets(engine, span_keys, queued=lsm_tree.NO_KEYS):
            drained.append(len(span_keys) + queued.size)
            get_span(engine, span_keys, queued)

        def drain_ranges(engine, ranges):
            drained.append(len(ranges))
            range_span(engine, ranges)

        with _engine_pair(kind, _ROOMY) as engines:
            _flush_buffers(engines, _KEY_SPACE.fresh_start + 180_000)
            with (
                mock.patch.object(lsm_tree, "drain_get_span", drain_gets),
                mock.patch.object(lsm_tree, "drain_range_span", drain_ranges),
                _classified() as spy,
            ):
                _check_windows(engines, [ops], max_batch_ops)
            assert spy.call_count == 1
            assert max(drained) <= max_batch_ops and sum(drained) == len(ops) == 2_000


@pytest.mark.parametrize("kind", _ENGINE_KINDS)
class TestDrainOrder:
    """A drain walks its span in key order: a probe's pages depend on its key
    and the runs alone, so the order a span was asked in is invisible."""

    @pytest.mark.parametrize(
        "width", [SCALAR_SPAN_CUTOFF - 1, SCALAR_SPAN_CUTOFF, 5 * SCALAR_SPAN_CUTOFF]
    )
    def test_a_shuffled_span_charges_what_its_sorted_copy_does(self, kind, width):
        rng = np.random.default_rng(width)
        span = np.concatenate(
            [
                rng.choice(_KEY_SPACE.existing, size=width - width // 3),
                rng.choice(_KEY_SPACE.missing, size=width // 3 - 1),
                _KEY_SPACE.existing[:1],  # a key asked twice
            ]
        )
        shuffled = rng.permutation(span)
        assert shuffled.tolist() != sorted(shuffled.tolist())
        fresh = _puts(*range(_KEY_SPACE.fresh_start, _KEY_SPACE.fresh_start + 8))
        outcomes = []
        for keys in (shuffled, np.sort(shuffled)):
            # Each span is drained twice, on either side of a flush; the
            # scalar reference asks in stream order.
            with _engine_pair(kind, _ROOMY) as engines:
                delta, answers, _ = _check_windows(engines, [_gets(*keys) + fresh + _gets(*keys)])
                assert delta.flush_writes > 0
                fingerprints = [tree_fingerprint(tree) for tree in _trees(engines[1])]
                outcomes.append((delta, sorted(answers), fingerprints))
            with _engine_pair(kind, _ROOMY) as engines:
                walk = _RunSideAnswers(engines[0])
                lsm_tree.drain_get_span(walk, keys.tolist())
                walked = [key for key, _ in walk.answers]
                assert walked == (sorted(walked) if width >= SCALAR_SPAN_CUTOFF else keys.tolist())
        assert outcomes[0] == outcomes[1]


def _step_between_windows(windows):
    """The end-of-window drain is what lets the plan advance between calls."""
    with _engine_pair("mid-migration", _ROOMY) as engines:
        steps = engines[0].steps_completed
        _check_windows(engines, windows, between=MigrationPlan.run_next_step)
        assert engines[1].steps_completed == steps + len(windows)
        assert not engines[1].completed


def test_a_migration_step_between_windows_moves_no_run_under_a_probe():
    rng = np.random.default_rng(6)
    fresh = _KEY_SPACE.fresh_start + 130_000
    _step_between_windows(
        [
            _gets(*rng.choice(_KEY_SPACE.existing, size=30)) + _puts(fresh + index)
            for index in range(5)
        ]
    )


def test_a_migration_step_between_windows_moves_no_run_under_a_scan():
    """A range left pending past its window would be charged for the run the
    step installed."""
    rng = np.random.default_rng(7)
    fresh = _KEY_SPACE.fresh_start + 140_000
    _step_between_windows(
        [
            _ranges(*rng.choice(_KEY_SPACE.existing, size=RANGE_SPAN_CUTOFF + 5))
            + _puts(fresh + index)
            for index in range(5)
        ]
    )


_ONLINE = dict(
    window=150,
    check_interval=32,
    min_observations=64,
    cooldown=256,
    confirm_checks=2,
    rho=0.25,
    mode="nominal",
    horizon_ops=100_000,
    migration="incremental",
    migration_step_ops=64,
    migration_step_pages=8,
)

#: Scan-heavy reads with a trickle of writes, then a write burst: the calm
#: phase is full of GET · RANGE · GET windows, the burst fires the detector.
_CALM = Workload(0.40, 0.25, 0.30, 0.05)
_BURST = Workload(0.05, 0.05, 0.05, 0.85)
#: A calm-then-burst stream long enough that a migration is in flight across
#: a ``MAX_BATCH_OPS`` window end.
_CUT_STREAM = 6_000


class TestControllerParity:
    """``execute_batched`` == per-operation ``execute`` under both admissions.

    The same drifting stream must observe the same drift, fire the same
    re-tunings, advance the same migration steps at the same positions,
    charge every range's interval in stream order and the same pages per
    flush epoch — on the live tree and on the mixed state — and leave
    bit-identical estimators, trees and disks.
    """

    def _run(self, batched, admission, seed, length, max_batch_ops=4_096):
        tree = LSMTree(LSMTuning(20.0, 8.0, Policy.LEVELING), _SYSTEM)
        tree.bulk_load(_KEY_SPACE.existing)
        tree.disk.reset()
        controller = OnlineLSMController(
            tree=tree,
            expected=_CALM,
            config=OnlineConfig(**_ONLINE, admission=admission),
        )
        # Every range's interval, and the query pages of ranges per flush epoch.
        controller.ranges, controller.pages = [], Counter()
        query, drain = BufferFirstReads.range_query, lsm_tree.drain_range_span

        def range_query(engine, start, end):  # the scalar side's one entry point
            interval = [(start, min(end, _MAX_KEY))]
            _charge(controller, engine, interval, lambda: query(engine, start, end))

        def drain_range_span(engine, ranges):  # the loop's
            recorder = _RunSideAnswers(engine)
            drain(recorder, ranges)
            controller.ranges += recorder.ranges
            controller.pages.update(recorder.pages)

        generator = TraceGenerator(_KEY_SPACE, seed=seed)
        with (
            mock.patch.object(BufferFirstReads, "range_query", range_query),
            mock.patch.object(lsm_tree, "drain_range_span", drain_range_span),
        ):
            for workload, count in ((_CALM, length // 2), (_BURST, length - length // 2)):
                trace = generator.operations(workload, count)
                if batched:
                    controller.execute_batched(trace, max_batch_ops)
                else:
                    controller.execute(trace)
        return controller

    def _assert_same(self, batched, scalar):
        assert batched.ranges == scalar.ranges and scalar.ranges
        assert batched.pages == scalar.pages
        assert batched.events == scalar.events
        assert batched.position == scalar.position
        assert (batched.migration_plan is None) == (scalar.migration_plan is None)
        assert batched.disk.counters == scalar.disk.counters
        assert batched.tuning == scalar.tuning
        assert batched.estimator._counts == scalar.estimator._counts
        assert batched.estimator._weight == scalar.estimator._weight
        assert batched.estimator.observations == scalar.estimator.observations
        assert tree_fingerprint(batched.tree) == tree_fingerprint(scalar.tree)

    @pytest.mark.parametrize("admission", ADMISSION_MODES)
    def test_through_retune_and_incremental_migration(self, admission):
        scalar = self._run(False, admission, seed=11, length=6_000)
        batched = self._run(True, admission, seed=11, length=6_000)
        assert scalar.num_migrations >= 1  # the stream does exercise a plan
        self._assert_same(batched, scalar)

    @given(
        seed=st.integers(min_value=0, max_value=40),
        length=st.integers(min_value=500, max_value=2_500),
        max_batch_ops=st.sampled_from(_BATCH_BOUNDS),
        admission=st.sampled_from(ADMISSION_MODES),
    )
    @settings(max_examples=12, deadline=None)
    def test_across_random_streams(self, seed, length, max_batch_ops, admission):
        scalar = self._run(False, admission, seed, length)
        batched = self._run(True, admission, seed, length, max_batch_ops)
        self._assert_same(batched, scalar)

    @given(
        admission=st.sampled_from(ADMISSION_MODES),
        backend=st.sampled_from(["memory", "files"]),
        seed=st.sampled_from([11, 12]),
        cuts=st.lists(st.integers(1, _CUT_STREAM - 1), min_size=1, max_size=40),
    )
    @settings(max_examples=12, deadline=None)
    def test_a_stream_cut_into_calls_replays_as_one_call(self, admission, backend, seed, cuts):
        """Migration steps, events, counters, estimator and tree are functions
        of the stream, not of where a caller cut it into calls."""
        cut = _replay_cut(admission, backend, seed, tuple(sorted(set(cuts))))
        assert cut == _replay_cut(admission, backend, seed, ())


@cache
def _replay_cut(admission, backend, seed, cuts):
    """Replay the drifting stream of ``seed`` through one controller in calls
    of ``execute_batched`` cut at ``cuts``.  Returns the positions its
    migration steps ran at (beyond each plan's first, at the firing), its
    events, counters, estimator state and final tree's fingerprint."""
    generator = TraceGenerator(_KEY_SPACE, seed=seed)
    half = _CUT_STREAM // 2
    stream = Trace.concatenate(
        [generator.operations(_CALM, half), generator.operations(_BURST, half)]
    )
    with tempfile.TemporaryDirectory() as root:
        store = FileStore(Path(root) / "tree") if backend == "files" else None
        tree = LSMTree(LSMTuning(20.0, 8.0, Policy.LEVELING), _SYSTEM, store=store)
        tree.bulk_load(_KEY_SPACE.existing)
        tree.disk.reset()
        controller = OnlineLSMController(
            tree=tree, expected=_CALM, config=OnlineConfig(**_ONLINE, admission=admission)
        )
        steps = []
        advance = controller.advance_migration

        def recording():
            steps.append(controller.position)
            advance()

        controller.advance_migration = recording
        bounds = [0, *cuts, len(stream)]
        for start, stop in zip(bounds, bounds[1:]):
            controller.execute_batched(stream[start:stop])
        estimator = controller.estimator
        try:
            return (
                steps, controller.events, controller.disk.counters, controller.position,
                estimator._counts, estimator._weight, estimator.observations,
                tree_fingerprint(controller.tree),
            )
        finally:
            if controller.migration_plan is not None:
                controller.migration_plan.target.dispose()
            controller.tree.dispose()


@pytest.fixture(scope="module")
def sequence():
    bench = UncertaintyBenchmark(size=100, seed=42)
    generator = SessionGenerator(bench, seed=3)
    workload = Workload(z0=0.2, z1=0.4, q=0.1, w=0.3)
    return generator.paper_sequence(workload, include_writes=True, workloads_per_session=2)


def _session_counters(session) -> IOCounters:
    """The pages a session measurement reports, as a disk delta reports them."""
    return IOCounters(
        query_reads=session.query_reads,
        query_writes=session.query_writes,
        compaction_reads=session.compaction_reads,
        compaction_writes=session.compaction_writes,
        flush_writes=session.flush_writes,
    )


class TestExecutorParity:
    """Session measurements equal a scalar replay of the regenerated traces."""

    @pytest.mark.parametrize(
        "tuning", [_TUNINGS[0], _TUNINGS[1], _TUNINGS[5]], ids=["leveling", "tiering", "kvector"]
    )
    @pytest.mark.parametrize("max_batch_ops", [1, 13, 4_096])
    def test_run_sequence_matches_scalar_replay(
        self, tuning, max_batch_ops, sequence, monkeypatch
    ):
        config = ExecutorConfig(queries_per_workload=200, seed=5)
        capped = partial(execute_operations_batched, max_batch_ops=max_batch_ops)
        monkeypatch.setattr("repro.storage.executor.execute_operations_batched", capped)
        measured = WorkloadExecutor(_SYSTEM, config).run_sequence(tuning, sequence)

        executor = WorkloadExecutor(_SYSTEM, config)
        tree = executor.build_tree(tuning)
        generator = executor.trace_generator()
        for session, measurement in zip(sequence, measured.sessions):
            before = tree.disk.snapshot()
            queries = 0
            for workload in session.workloads:
                trace = generator.operations(workload, config.queries_per_workload)
                queries += len(trace)
                _replay_scalar(tree, trace)
            assert measurement.num_queries == queries
            assert _session_counters(measurement) == tree.disk.counters.delta(before)

    def test_adaptive_run_matches_a_scalar_controller(self, sequence):
        online = OnlineConfig(
            check_interval=64,
            min_observations=128,
            cooldown=256,
            confirm_checks=2,
            migration="incremental",
            migration_step_ops=32,
            migration_step_pages=8,
        )
        config = ExecutorConfig(queries_per_workload=200, seed=5)
        measured = WorkloadExecutor(_SYSTEM, config).run_sequence_adaptive(
            _TUNINGS[0], sequence, online=online
        )

        executor = WorkloadExecutor(_SYSTEM, config)
        controller = OnlineLSMController(
            tree=executor.build_tree(_TUNINGS[0]), expected=sequence.expected, config=online
        )
        generator = executor.trace_generator()
        for session, measurement in zip(sequence, measured.sessions):
            before = controller.disk.snapshot()
            for workload in session.workloads:
                controller.execute(generator.operations(workload, 200))
            assert _session_counters(measurement) == controller.disk.counters.delta(before)
            controller.note_idle()
        controller.finish_migration()
        assert measured.events == tuple(controller.events)
        assert measured.final_tuning == controller.tuning


def _two_session_stream(executor, buffer_entries: int):
    """``(sequence, traces)``: one trace per workload of two sessions, shaped
    where replaying a session as one trace could part from a call per trace.

    Session 0's first trace flushes inside itself and leaves the buffer one
    put short of full, so the second trace's first row flushes at the
    boundary; the second trace ends and the third begins with 300 reads each,
    a wide window across that boundary.  Session 1 is two generated traces
    with updates.
    """
    space = executor.key_space
    rng = np.random.default_rng(11)
    fresh = count(space.fresh_start)

    def reads(n: int) -> list[Operation]:
        """Two ranges to a GET: ranges fan out, so a shard's window stays wide."""
        keys = rng.choice(space.existing, size=n).tolist()
        return [
            Operation(OperationType.GET, key) if i % 3 == 2
            else Operation(OperationType.RANGE, key, 16)
            for i, key in enumerate(keys)
        ]

    def put() -> Operation:
        return Operation(OperationType.PUT, next(fresh))

    def writes(n: int) -> list[Operation]:
        return [row for _ in range(n) for row in reads(2) + [put()]]

    update = Operation(OperationType.PUT, int(space.existing[7]))
    first = writes(2 * buffer_entries - 1)
    second = [put()] + writes(2) + reads(300)
    third = reads(300) + writes(2 * buffer_entries) + [update]
    generator = TraceGenerator(space, update_fraction=0.3, seed=19)
    write_heavy = Workload(z0=0.1, z1=0.2, q=0.2, w=0.5)
    traces = [Trace.of(first), Trace.of(second), Trace.of(third)]
    traces += [generator.operations(write_heavy, 200) for _ in range(2)]
    session_workloads = [tuple(operation_mix(trace) for trace in traces[:3])]
    session_workloads.append(tuple(operation_mix(trace) for trace in traces[3:]))
    sessions = tuple(
        Session(SessionType.EXPECTED, f"s{index}", workloads)
        for index, workloads in enumerate(session_workloads)
    )
    return SessionSequence(expected=write_heavy, sessions=sessions), traces


class TestSessionReplay:
    """A run replays each session as one trace; its sessions, final tree and
    stats (and, when adaptive, its events and final tuning) equal those of a
    call of the loop per workload trace."""

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("backend", ["simulated", "persistent"])
    @pytest.mark.parametrize("tuning", _TUNINGS[:2], ids=_TUNING_IDS[:2])
    def test_a_session_replay_matches_a_call_per_trace(
        self, tuning, backend, num_shards, monkeypatch
    ):
        config = ExecutorConfig(
            queries_per_workload=200, seed=5, backend=backend, num_shards=num_shards
        )
        executor = WorkloadExecutor(_SYSTEM, config)
        buffer_entries = LSMTree(tuning, _SYSTEM).buffer_entries
        sequence, traces = _two_session_stream(executor, buffer_entries)
        monkeypatch.setattr(executor, "stream", lambda sequence: iter(traces))
        windows = []
        classify = lsm_tree.classify_window

        def recording(engine, trace, start, end):
            windows.append((len(trace), start, end))
            return classify(engine, trace, start, end)

        with mock.patch.object(lsm_tree, "classify_window", recording):
            measured = executor.run_sequence(tuning, sequence)

        assert len(measured.shards) == num_shards
        keys = partition_keys(executor.key_space.existing, num_shards)
        routed = [route_operations(trace, num_shards) for trace in traces]
        for shard, run in enumerate(measured.shards):
            shard_traces = iter([parts[shard] for parts in routed])
            tree = executor.build_tree(tuning, keys=keys[shard], shard=shard)
            try:
                for index, (session, measurement) in enumerate(
                    zip(sequence, run.measurement.sessions)
                ):
                    before = tree.disk.snapshot()
                    lengths = []
                    for _ in session.workloads:
                        trace = next(shard_traces)
                        flushed = tree.disk.counters.flush_writes
                        execute_operations_batched(tree, trace)
                        if num_shards == 1 and index == 0 and not lengths:
                            # The first trace flushed, and the second's first
                            # row, a put, flushes at the boundary.
                            assert tree.disk.counters.flush_writes > flushed
                            assert tree.write_room() == 0
                        lengths.append(len(trace))
                    assert measurement.num_queries == sum(lengths)
                    assert _session_counters(measurement) == tree.disk.counters.delta(before)
                    if index == 0:
                        boundary = lengths[0] + lengths[1]
                        assert any(
                            size == sum(lengths) and start < boundary < end
                            and end - start >= WIDE_WINDOW_OPS
                            for size, start, end in windows
                        )
                assert run.fingerprint == tree_fingerprint(tree)
                assert run.stats == tree.stats()
            finally:
                executor.dispose_tree(tree)

    @pytest.mark.parametrize("backend", ["simulated", "persistent"])
    @pytest.mark.parametrize("admission", ADMISSION_MODES)
    def test_an_adaptive_session_replay_matches_a_call_per_trace(
        self, admission, backend, monkeypatch
    ):
        """The controller fires in session 0, and a plan is in flight at the
        trace boundaries inside a session after that: a step admitted at the
        end of a call would part the two sides."""
        online = OnlineConfig(**_ONLINE, admission=admission)
        executor = WorkloadExecutor(
            _SYSTEM, ExecutorConfig(queries_per_workload=200, seed=5, backend=backend)
        )
        tuning = _TUNINGS[0]
        sequence, traces = _two_session_stream(executor, LSMTree(tuning, _SYSTEM).buffer_entries)
        monkeypatch.setattr(executor, "stream", lambda sequence: iter(traces))
        measured = executor.run_sequence_adaptive(tuning, sequence, online=online)

        controller = OnlineLSMController(
            tree=executor.build_tree(tuning), expected=sequence.expected, config=online
        )
        parts, in_flight = iter(traces), []
        try:
            for session, measurement in zip(sequence, measured.sessions, strict=True):
                before = controller.disk.snapshot()
                lengths = []
                for _ in session.workloads:
                    trace = next(parts)
                    controller.execute_batched(trace)
                    lengths.append(len(trace))
                    if len(lengths) < len(session.workloads):
                        in_flight.append(controller.migration_plan is not None)
                assert measurement.num_queries == sum(lengths)
                assert _session_counters(measurement) == controller.disk.counters.delta(before)
                controller.note_idle()
            controller.finish_migration()
            assert in_flight == [False, True, True]
            assert measured.events == tuple(controller.events)
            assert measured.final_tuning == controller.tuning
            assert measured.shards[0].fingerprint == tree_fingerprint(controller.tree)
            assert measured.shards[0].stats == controller.tree.stats()
        finally:
            if controller.migration_plan is not None:
                executor.dispose_tree(controller.migration_plan.target)
            executor.dispose_tree(controller.tree)


class TestGetManyParity:
    """LSMTree.get_many == per-key LSMTree.get, answers and I/O."""

    @given(
        ops=_operation_streams(),
        probe_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_get_many_answers_and_io_match_scalar_gets(self, ops, probe_seed):
        tuning = LSMTuning(6.0, 5.0, Policy.LEVELING)
        rng = np.random.default_rng(probe_seed)
        updates = rng.choice(_KEY_SPACE.existing, size=40, replace=False)
        scalar = _loaded_tree(tuning, updates)
        batched = _loaded_tree(tuning, updates)
        _replay_scalar(scalar, ops)
        _replay_scalar(batched, ops)

        probe = np.concatenate(
            [
                rng.choice(_KEY_SPACE.existing, size=30, replace=True),
                rng.choice(_KEY_SPACE.missing, size=10, replace=True),
                updates[:10],
            ]
        ).astype(np.int64)
        before_scalar = scalar.disk.snapshot()
        before_batched = batched.disk.snapshot()
        expected = np.array([scalar.get(int(key)) for key in probe])
        answers = batched.get_many(probe)
        assert np.array_equal(answers, expected)
        assert batched.disk.counters.delta(before_batched) == scalar.disk.counters.delta(
            before_scalar
        )


class TestMixedStateParity:
    """MigrationPlan.get_many == per-key MigrationPlan.get, I/O included."""

    @given(probe_seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_get_many_matches_scalar_fallthrough(self, probe_seed):
        scalar_plan, _ = _mid_flight_plan()
        batched_plan, _ = _mid_flight_plan()
        rng = np.random.default_rng(probe_seed)
        probe = np.concatenate(
            [
                rng.choice(_KEY_SPACE.existing, size=40, replace=True),
                rng.choice(_KEY_SPACE.missing, size=10, replace=True),
            ]
        ).astype(np.int64)
        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)
        assert np.array_equal(answers, expected)
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters


class TestAdversarialBatchScalarParity:
    """Batch == scalar on hostile probes: duplicate keys inside one batch,
    keys written again mid-plan or after the load, and keys absent from both
    trees.

    The per-probe I/O charging contract means a key duplicated N times in a
    batch must cost exactly N scalar lookups — deduplicating probes (a
    tempting "optimisation") would silently change the simulator's counters.
    """

    @given(probe_seed=st.integers(0, 2**16), dup_factor=st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_plan_get_many_on_duplicates_updates_and_misses(
        self, probe_seed, dup_factor
    ):
        scalar_plan, updated = _mid_flight_plan()
        batched_plan, _ = _mid_flight_plan()
        rng = np.random.default_rng(probe_seed)
        base = np.concatenate(
            [
                updated,  # put mid-plan: the target's copy shadows the source's
                rng.choice(_KEY_SPACE.missing, size=15, replace=True),  # in neither
                rng.choice(_KEY_SPACE.existing, size=15, replace=True),
            ]
        )
        # Every key appears dup_factor times, shuffled so duplicates are not
        # adjacent — the batch path must answer and charge each occurrence.
        probe = np.repeat(base, dup_factor).astype(np.int64)
        rng.shuffle(probe)

        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)

        assert np.array_equal(answers, expected)
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters
        # Semantics, not just parity: keys put mid-plan are found, keys absent
        # from both trees are not.
        assert answers[np.isin(probe, updated)].all()
        assert not answers[np.isin(probe, _KEY_SPACE.missing)].any()

    @pytest.mark.parametrize(
        "tuning", [_TUNINGS[0], _TUNINGS[1], _TUNINGS[5]], ids=["leveling", "tiering", "kvector"]
    )
    @given(probe_seed=st.integers(0, 2**16), dup_factor=st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_tree_get_many_on_duplicates_updates_and_misses(
        self, tuning, probe_seed, dup_factor
    ):
        rng = np.random.default_rng(probe_seed)
        updates = rng.choice(_KEY_SPACE.existing, size=40, replace=False)
        scalar = _loaded_tree(tuning, updates)
        batched = _loaded_tree(tuning, updates)

        base = np.concatenate(
            [
                updates[:15],  # a newer version above an obsolete one
                rng.choice(_KEY_SPACE.missing, size=10, replace=True),  # absent
                rng.choice(_KEY_SPACE.existing, size=15, replace=True),
            ]
        )
        probe = np.repeat(base, dup_factor).astype(np.int64)
        rng.shuffle(probe)

        before_scalar = scalar.disk.snapshot()
        before_batched = batched.disk.snapshot()
        expected = np.array([scalar.get(int(key)) for key in probe])
        found = batched.get_many(probe)

        assert np.array_equal(found, expected)
        assert batched.disk.counters.delta(before_batched) == scalar.disk.counters.delta(
            before_scalar
        )
        assert found[np.isin(probe, updates)].all()
        assert not found[np.isin(probe, _KEY_SPACE.missing)].any()

    def test_single_key_repeated_batch_charges_per_probe(self):
        """A batch of one key repeated N times costs N scalar lookups."""
        scalar_plan, updated = _mid_flight_plan()
        batched_plan, _ = _mid_flight_plan()
        probe = np.full(64, int(updated[0]), dtype=np.int64)
        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)
        assert np.array_equal(answers, expected)
        assert answers.all()
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters

    def test_all_absent_batch_matches_scalar(self):
        """Keys absent from both trees: only Bloom false positives pay I/O,
        and they pay identically on both paths."""
        scalar_plan, _ = _mid_flight_plan()
        batched_plan, _ = _mid_flight_plan()
        probe = _KEY_SPACE.missing[:80].astype(np.int64)
        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)
        assert np.array_equal(answers, expected)
        assert not answers.any()
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters

    def test_empty_batch_is_free(self):
        plan, _ = _mid_flight_plan()
        answers = plan.get_many(np.empty(0, dtype=np.int64))
        assert answers.size == 0
        assert plan.source.disk.counters.total == 0
