"""Execute workload sessions against the simulated LSM tree.

This is the system-based measurement harness (§8.1–8.2): it bulk-loads a
database instance per tuning, replays session sequences of concrete queries,
and reports the same quantities the paper reads out of RocksDB's statistics
module — average I/Os per query, with compaction traffic amortised over the
writes of the session.  It prices no time: the paper's latencies are RocksDB
wall-clock, which a page count does not reproduce.

:class:`WorkloadExecutor` is the fleet: ``ExecutorConfig.num_shards`` hash
shards, each one :meth:`WorkloadExecutor.run_shard` call that loads the
shard's partition of the key space and serves the sub-stream routed to it
(:mod:`repro.serving.sharding`).  The single tree is the 1-shard fleet, which
computes no partition and no route.  ``run_sequence``, ``run_sequence_adaptive``
and ``compare`` all go through one fleet runner, whose tuning x shard tasks
share the one process pool (:func:`_map_tasks`).  A fleet's sessions sum the
per-shard :class:`~repro.storage.disk.IOCounters` deltas, amortised over the
global query count, so they read exactly like a single tree's.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..knobs import FRACTION, NON_NEGATIVE, POSITIVE_INT, check_knobs, knob
from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..workloads.sessions import Session, SessionSequence
from ..workloads.traces import KeySpace, TraceGenerator
from ..workloads.workload import Workload
from .disk import IOCounters
from .lsm_tree import LSMTree, TreeStats, execute_operations_batched
from .persistent import PersistentLSMTree


@dataclass(frozen=True)
class SessionMeasurement:
    """Measured behaviour of one session under one tuning."""

    label: str
    workload: Workload
    num_queries: int
    query_reads: int
    query_writes: int
    flush_writes: int
    compaction_reads: int
    compaction_writes: int

    @classmethod
    def of(cls, session: Session, num_queries: int, delta: IOCounters) -> "SessionMeasurement":
        """``session`` measured by the pages it moved: ``delta`` is what one
        disk counted over it (or the sum over every shard's disk), amortised
        over ``num_queries``."""
        return cls(
            label=session.label,
            workload=session.average,
            num_queries=num_queries,
            **asdict(delta),
        )

    @property
    def ios_per_query(self) -> float:
        """Average I/Os per query, compactions amortised over the session.

        Mirrors §8.1: logical block accesses of reads, plus bytes flushed and
        compaction traffic redistributed across the session's queries.  A
        session that executed no queries reports 0.0 — there is nothing to
        amortise over, and dividing by a phantom query would attribute the
        session's background traffic to an operation that never ran.
        """
        if self.num_queries == 0:
            return 0.0
        total = (
            self.query_reads
            + self.query_writes
            + self.flush_writes
            + self.compaction_reads
            + self.compaction_writes
        )
        return total / self.num_queries

    @property
    def read_ios_per_query(self) -> float:
        """Average read I/Os per query caused directly by queries.

        0.0 for a session that executed no queries (see :meth:`ios_per_query`).
        """
        if self.num_queries == 0:
            return 0.0
        return self.query_reads / self.num_queries


def fleet_percentiles(values: Sequence[float]) -> dict[str, float]:
    """p50/p95/worst of a per-shard metric, fleet-style."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return {"p50": 0.0, "p95": 0.0, "worst": 0.0}
    return {
        "p50": float(np.percentile(data, 50)),
        "p95": float(np.percentile(data, 95)),
        "worst": float(data.max()),
    }


@dataclass(frozen=True)
class SequenceMeasurement:
    """Measurements of a whole session sequence under one tuning.

    ``sessions`` is the fleet view: on several shards, counter sums over
    every shard and query counts of the global stream.
    """

    tuning: LSMTuning
    sessions: tuple[SessionMeasurement, ...]
    #: Each shard's own run, for percentile and imbalance analysis (one on a
    #: single tree; none on a shard's own measurement).  Left out of equality:
    #: a run holds its wall-clock seconds.
    shards: tuple["ShardRun", ...] = field(default=(), compare=False, kw_only=True)

    @property
    def average_ios_per_query(self) -> float:
        """I/Os per query averaged over the sequence's non-empty sessions.

        Sessions are weighted equally (the paper averages per-session costs,
        not per-query costs, so a light session counts as much as a heavy
        one); sessions that executed no queries are excluded — they measured
        nothing, and averaging their 0.0 in would understate the cost.
        """
        per_session = [s.ios_per_query for s in self.sessions if s.num_queries > 0]
        if not per_session:
            return 0.0
        return float(np.mean(per_session))

    @property
    def num_shards(self) -> int:
        """Trees that served the sequence."""
        return max(len(self.shards), 1)

    @property
    def critical_path_s(self) -> float:
        """Wall clock of the slowest shard — a one-worker-per-shard fleet's
        makespan (shards share nothing)."""
        return max((run.elapsed_s for run in self.shards), default=0.0)

    @property
    def total_cpu_s(self) -> float:
        """Summed per-shard execution seconds (what this harness spent)."""
        return sum(run.elapsed_s for run in self.shards)

    def shard_ios_percentiles(self) -> dict[str, float]:
        """Fleet percentiles of per-shard average I/Os per query."""
        return fleet_percentiles(
            [run.measurement.average_ios_per_query for run in self.shards]
        )

    def worst_shard_session_ios(self) -> float:
        """The worst per-session I/O cost any shard saw (tail sessions)."""
        return max(
            (
                session.ios_per_query
                for run in self.shards
                for session in run.measurement.sessions
                if session.num_queries > 0
            ),
            default=0.0,
        )


@dataclass(frozen=True)
class AdaptiveSequenceMeasurement(SequenceMeasurement):
    """A sequence measurement taken with online adaptive re-tuning enabled.

    The inherited per-session measurements include every page the adaptive
    controller's migrations moved (charged as compaction traffic on the
    shared virtual disk), so ``ios_per_query`` honestly prices adaptivity.
    ``events`` records each drift firing
    (:class:`~repro.online.controller.RetuningEvent`), whether or not it led
    to a migration.
    """

    final_tuning: LSMTuning
    events: tuple

    @property
    def num_migrations(self) -> int:
        """Number of migrations the controller applied during the sequence."""
        return sum(1 for event in self.events if event.migrated)

    @property
    def migration_pages(self) -> int:
        """Total pages read + written by migrations during the sequence."""
        return sum(event.migration_pages for event in self.events)


def tree_fingerprint(tree: LSMTree) -> str:
    """Deterministic digest of a tree's logical state (runs + memtable).

    Run contents are read through ``entries()``, so trees holding the same
    data fingerprint alike whichever run store they are on.
    Used to pin that two execution paths left a tree in identical state.
    """
    digest = hashlib.sha256()
    for level_index, runs in enumerate(tree.levels):
        for run in runs:
            keys, tombstones = run.entries()
            digest.update(f"L{level_index}:{keys.size};".encode())
            digest.update(np.ascontiguousarray(keys, dtype=np.int64).tobytes())
            digest.update(np.ascontiguousarray(tombstones, dtype=bool).tobytes())
    buffered_keys, buffered_tombstones = tree.memtable.sorted_items()
    digest.update(f"M:{buffered_keys.size};".encode())
    digest.update(np.ascontiguousarray(buffered_keys, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(buffered_tombstones, dtype=bool).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ShardRun:
    """One tree's complete replay of a session sequence (a single tree is
    shard 0 of a 1-shard fleet)."""

    shard: int
    #: Per-shard sessions: counters of this shard's disk, query counts of the
    #: sub-stream it served.  An :class:`AdaptiveSequenceMeasurement` when
    #: the run was adaptive.
    measurement: SequenceMeasurement
    #: Structure of the shard's tree after the run.
    stats: TreeStats
    #: Digest of the shard tree's final logical state.
    fingerprint: str
    #: Seconds this shard spent executing operations (trace generation and
    #: routing excluded — those costs are the harness's, identical in shape
    #: across shard counts, and not part of a worker's serving path).
    elapsed_s: float


@dataclass
class ExecutorConfig:
    """Knobs of the system-measurement harness."""

    queries_per_workload: int = knob(
        2_000, "concrete queries executed per workload of a session", POSITIVE_INT
    )
    long_scan_keys: int = knob(
        512,
        "keys covered by one long range scan on the simulator (issued for the long-range "
        "fraction of a workload's range lookups)",
        POSITIVE_INT,
    )
    update_fraction: float = knob(
        0.0,
        "fraction of the trace's writes that update an existing key (creating obsolete "
        "versions compactions must consolidate) instead of inserting a fresh one",
        FRACTION,
    )
    update_skew: float = knob(
        0.0,
        "Zipf exponent concentrating updates on a hot key subset (0 = uniform over the "
        "resident keys)",
        NON_NEGATIVE,
    )
    #: Not a derived flag: the subcommands' own ``--seed`` sets it together
    #: with the experiment's session-sampling seed.
    seed: int = knob(97, "seed controlling trace generation", flag=False)
    max_batch_ops: int = knob(
        4_096,
        "most pending reads (GET keys, ranges) handed to the vectorised read path at once",
        POSITIVE_INT,
    )
    backend: str = knob(
        "simulated",
        "run store the compared trees are built on: 'simulated' keeps runs in memory, "
        "'persistent' puts each tree on real files — SSTables, a write-ahead log and a "
        "manifest in a directory of its own (identical I/O counters; wall-clock time "
        "becomes meaningful)",
        ("simulated", "persistent"),
    )
    data_dir: str | None = knob(
        None,
        "parent directory for the persistent backend's per-tree files (default: a temp dir, "
        "removed after the run; a given directory is kept for inspection)",
    )
    sync_writes: bool = knob(
        False,
        "fsync the persistent backend's write-ahead log on every write (durability against "
        "OS crashes, at a steep wall-clock cost)",
    )
    #: Every entry point of :class:`WorkloadExecutor` serves this many shards;
    #: 1 is the single tree (no partition, no route).
    num_shards: int = knob(
        1,
        "serve the comparison from a hash-partitioned shard fleet (one tree per shard, range "
        "scans fanned out; merged fleet measurements plus p50/p95/worst-shard percentiles)",
        POSITIVE_INT,
    )

    def __post_init__(self) -> None:
        check_knobs(self)


class WorkloadExecutor:
    """Runs session sequences on freshly built LSM-tree fleets (one tree per
    shard; ``config.num_shards`` of them)."""

    def __init__(
        self, system: SystemConfig, config: ExecutorConfig | None = None
    ) -> None:
        self.system = system
        self.config = config if config is not None else ExecutorConfig()
        self.key_space = KeySpace.build(system.num_entries, seed=self.config.seed)

    def __reduce__(self):
        # A pool task ships ``(system, config)``, and the worker rebuilds the
        # key space from the same seed (see :func:`_map_tasks`).
        return type(self), (self.system, self.config)

    # ------------------------------------------------------------------
    # Database construction
    # ------------------------------------------------------------------
    def build_tree(
        self, tuning: LSMTuning, keys: np.ndarray | None = None, shard: int = 0
    ) -> LSMTree:
        """Instantiate and bulk-load a tree for one tuning.

        Every tuning gets the exact same initial key set, mirroring the
        paper's identical bulk-loading across database instances; ``keys``
        substitutes a subset (a shard loads its hash partition of the key
        space).  The configured backend picks the run store: memory, or files
        in a fresh per-tree directory — under ``shard-NN/`` of a configured
        ``data_dir`` when the fleet has several shards.  Dispose of the tree
        through :meth:`dispose_tree` so the store's resources are released
        either way.  A failure while constructing or loading a tree on files
        releases its descriptors and removes its half-built directory before
        re-raising — a crashed build must not leak ``tree-*`` dirs into the
        temp dir (or a shared user ``data_dir``).
        """
        if keys is None:
            keys = self.key_space.existing
        make_tree, data_dir = LSMTree, None
        if self.config.backend == "persistent":
            parent = self.config.data_dir
            if parent is not None:
                if self.config.num_shards > 1:
                    parent = os.path.join(parent, f"shard-{shard:02d}")
                os.makedirs(parent, exist_ok=True)
            data_dir = tempfile.mkdtemp(prefix="tree-", dir=parent)
            make_tree = partial(
                PersistentLSMTree,
                data_dir=data_dir,
                sync_writes=self.config.sync_writes,
            )
        tree = None
        try:
            tree = make_tree(tuning=tuning, system=self.system)
            tree.bulk_load(keys)
        except BaseException:
            if tree is not None:
                tree.store.abandon()
            if data_dir is not None:
                shutil.rmtree(data_dir, ignore_errors=True)
            raise
        tree.disk.reset()
        return tree

    def dispose_tree(self, tree: LSMTree) -> None:
        """Release a tree built by :meth:`build_tree`.

        Persistent trees built into the system temp dir (no configured
        ``data_dir``) also delete their files; trees under a user-chosen
        ``data_dir`` are closed but left on disk for inspection.
        """
        if self.config.data_dir is None:
            tree.dispose()
        else:
            tree.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def trace_generator(self) -> TraceGenerator:
        """A fresh, deterministically seeded trace generator.

        Every measurement path builds its own from the executor's config, so
        sequential, parallel and adaptive runs replay bit-identical traces.
        """
        return TraceGenerator(
            key_space=self.key_space,
            long_scan_keys=self.config.long_scan_keys,
            update_fraction=self.config.update_fraction,
            update_skew=self.config.update_skew,
            seed=self.config.seed,
        )

    def run_shard(
        self,
        tuning: LSMTuning,
        sequence: SessionSequence,
        shard: int = 0,
        adaptive: bool = False,
        online=None,
        policies: Sequence[Policy] = CLASSIC_POLICIES,
    ) -> ShardRun:
        """Bulk-load a fresh tree for ``tuning``, replay ``sequence`` on it,
        dispose it: shard ``shard`` of the configured fleet, and the one pool
        task behind every sequence entry point.

        On several shards the tree loads the shard's hash partition of the key
        space and serves each generated trace masked down to the operations
        routed to it (operations keep their global stream positions); a
        1-shard fleet loads the whole key space and serves the whole stream.

        With ``adaptive`` the operations flow through an
        :class:`~repro.online.controller.OnlineLSMController`: it watches the
        stream, re-tunes on drift, and migrates the live tree when the
        predicted gain pays for the move.  Migration I/O lands on the same
        virtual disk the session deltas are read from, so the measurements
        charge adaptivity at full price.  ``online`` is its
        :class:`~repro.online.controller.OnlineConfig` (defaults when
        omitted) and ``policies`` bounds what re-tunings may deploy.
        """
        num_shards = self.config.num_shards
        keys, route = None, None
        if num_shards > 1:
            # Imported here: the serving package builds on this module.
            from ..serving.sharding import partition_keys, shard_operations

            keys = partition_keys(self.key_space.existing, num_shards)[shard]
            route = partial(shard_operations, shard=shard, num_shards=num_shards)
        tree = self.build_tree(tuning, keys=keys, shard=shard)
        # A migration swaps the live tree for a successor on the same disk,
        # so this one disk sees every page of the run.
        initial_tuning, disk = tree.tuning, tree.disk
        controller = None
        generator = self.trace_generator()
        try:
            if adaptive:
                # Imported here so the storage layer stays loadable without
                # the online subsystem (which itself builds on storage).
                from ..online.controller import OnlineConfig, OnlineLSMController

                controller = OnlineLSMController(
                    tree=tree,
                    expected=sequence.expected,
                    config=online if online is not None else OnlineConfig(),
                    policies=policies,
                )
                replay = controller.execute_batched
            else:
                replay = partial(execute_operations_batched, tree)
            elapsed = 0.0
            sessions = []
            for session in sequence:
                # Everything that hits the disk between the snapshots
                # (queries, flushes, compactions, migrations) is the session's.
                before = disk.snapshot()
                num_queries = 0
                for workload in session.workloads:
                    trace = generator.operations(
                        workload, self.config.queries_per_workload
                    )
                    if route is not None:
                        trace = route(trace)
                    num_queries += len(trace)
                    start = time.perf_counter()
                    replay(trace, max_batch_ops=self.config.max_batch_ops)
                    elapsed += time.perf_counter() - start
                sessions.append(
                    SessionMeasurement.of(session, num_queries, disk.counters.delta(before))
                )
                if controller is not None:
                    # The gap between sessions is a serving lull: under
                    # queue-depth admission the controller drains deferred
                    # migration steps here, outside any session's measurement
                    # window (a no-op under the default fixed cadence).
                    controller.note_idle()
            if controller is None:
                measurement = SequenceMeasurement(
                    tuning=initial_tuning, sessions=tuple(sessions)
                )
            else:
                # A migration plan still in flight at stream end is drained
                # now, as an operator would during quiescence: the trailing
                # steps land on the shared disk (after the last session's
                # window — per-session metrics keep their in-stream shape) so
                # the events' page totals are fully charged, ``final_tuning``
                # reports the tuning actually reached, and the target's
                # tombstone hold is released.
                controller.finish_migration()
                tree = controller.tree
                measurement = AdaptiveSequenceMeasurement(
                    tuning=initial_tuning,
                    sessions=tuple(sessions),
                    final_tuning=controller.tuning,
                    events=tuple(controller.events),
                )
            return ShardRun(
                shard=shard,
                measurement=measurement,
                stats=tree.stats(),
                fingerprint=tree_fingerprint(tree),
                elapsed_s=elapsed,
            )
        finally:
            # Migrations may have swapped the live tree; dispose the one the
            # controller currently owns — and, when an exception left an
            # incremental plan in flight, the plan's half-built target tree
            # as well (otherwise its backend directory leaks).
            if controller is not None:
                tree = controller.tree
                if controller.migration_plan is not None:
                    self.dispose_tree(controller.migration_plan.target)
            self.dispose_tree(tree)

    def _run_fleets(
        self,
        tunings: Sequence[LSMTuning],
        sequence: SessionSequence,
        parallel: bool,
        processes: int | None,
        **run_options,
    ) -> list[SequenceMeasurement]:
        """One fleet per tuning; every tuning x shard task shares one pool.

        A 1-shard fleet's measurement is its one run's.  A larger fleet's
        sessions sum the shards' counters, and count the *global* stream's
        queries (a range scan once, not once per shard it fanned out to), so
        the merged amortisation matches a single tree's definition exactly.
        """
        num_shards = self.config.num_shards
        runs = _map_tasks(
            [
                partial(self.run_shard, tuning, sequence, shard, **run_options)
                for tuning in tunings
                for shard in range(num_shards)
            ],
            parallel,
            processes,
        )
        fleets = []
        for index, tuning in enumerate(tunings):
            fleet = tuple(runs[index * num_shards : (index + 1) * num_shards])
            if num_shards == 1:
                fleets.append(replace(fleet[0].measurement, shards=fleet))
                continue
            merged = []
            for row, session in enumerate(sequence):
                parts = [run.measurement.sessions[row] for run in fleet]
                delta = IOCounters(
                    **{
                        counter.name: sum(getattr(part, counter.name) for part in parts)
                        for counter in fields(IOCounters)
                    }
                )
                num_queries = self.config.queries_per_workload * len(session.workloads)
                merged.append(SessionMeasurement.of(session, num_queries, delta))
            fleets.append(
                SequenceMeasurement(tuning=tuning, sessions=tuple(merged), shards=fleet)
            )
        return fleets

    def run_sequence(
        self,
        tuning: LSMTuning,
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> SequenceMeasurement:
        """Bulk-load a fresh fleet for ``tuning`` and execute a full sequence."""
        return self._run_fleets([tuning], sequence, parallel, processes)[0]

    def run_sequence_adaptive(
        self,
        initial_tuning: LSMTuning,
        sequence: SessionSequence,
        online=None,
        policies: Sequence[Policy] = CLASSIC_POLICIES,
    ) -> AdaptiveSequenceMeasurement:
        """:meth:`run_sequence` with the online adaptive-tuning loop enabled
        (see :meth:`run_shard` for ``online`` and ``policies``), on a single
        tree."""
        if self.config.num_shards > 1:
            raise ValueError(
                "adaptive runs are measured on a single tree: a fleet's "
                "per-shard controllers report no fleet-level drift events"
            )
        return self._run_fleets(
            [initial_tuning], sequence, False, None,
            adaptive=True, online=online, policies=policies,
        )[0]

    def compare(
        self,
        tunings: dict[str, LSMTuning],
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> dict[str, SequenceMeasurement]:
        """Run the same sequence under several tunings (nominal vs robust).

        The per-shard simulations are independent, so with ``parallel=True``
        they run on the process pool (one worker per tuning x shard, capped at
        ``processes`` or the CPU count) with measurements identical to the
        sequential path's — see :func:`_map_tasks`.
        """
        fleets = self._run_fleets(list(tunings.values()), sequence, parallel, processes)
        return dict(zip(tunings, fleets))


def _map_tasks(
    tasks: Sequence[Callable[[], ShardRun]], parallel: bool, processes: int | None
) -> list[ShardRun]:
    """Call every task, results in task order: the one process pool.

    With ``parallel`` the tasks run on at most ``processes`` workers (default:
    the CPU count).  A task is a bound :meth:`WorkloadExecutor.run_shard`,
    whose executor pickles as ``(system, config)`` and rebuilds in the worker
    instead of shipping the parent's key space: key space and traces come
    from the same seeds, so pooled runs are bit-identical to sequential ones.
    Each worker's persistent tree gets its own ``mkdtemp``-fresh ``tree-*``
    directory (collision-free even under a shared ``data_dir``) and ``run_shard`` disposes it in ``try/finally``, so
    the first failing task re-raises here without orphaning directories.  A
    worker that dies (``os._exit``, OOM kill) raises ``BrokenProcessPool`` —
    ``Pool.map`` would block the parent forever.
    """
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be at least 1, got {processes}")
    if not parallel or len(tasks) <= 1:
        return [task() for task in tasks]
    workers = min(len(tasks), processes or os.cpu_count() or 1)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context()
    ) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]
