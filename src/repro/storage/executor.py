"""Execute workload sessions against the simulated LSM tree.

This is the system-based measurement harness (§8.1–8.2): it bulk-loads a
database instance per tuning, replays session sequences of concrete queries,
and reports the same quantities the paper reads out of RocksDB's statistics
module — average I/Os per query (with compaction traffic amortised over the
writes of the session) and a simulated per-query latency.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..workloads.sessions import Session, SessionSequence
from ..workloads.traces import KeySpace, Trace, TraceGenerator
from ..workloads.workload import Workload
from .disk import VirtualDisk
from .lsm_tree import LSMTree, execute_operations_batched


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
    latency_us_per_query: float

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


@dataclass(frozen=True)
class SequenceMeasurement:
    """Measurements of a whole session sequence under one tuning."""

    tuning: LSMTuning
    sessions: tuple[SessionMeasurement, ...]

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
    def average_latency_us(self) -> float:
        """Simulated latency per query averaged over non-empty sessions."""
        per_session = [
            s.latency_us_per_query for s in self.sessions if s.num_queries > 0
        ]
        if not per_session:
            return 0.0
        return float(np.mean(per_session))

    def session_series(self) -> list[dict[str, float | str]]:
        """Per-session rows suitable for tabular reporting."""
        return [
            {
                "session": s.label,
                "workload": s.workload.describe(),
                "ios_per_query": s.ios_per_query,
                "latency_us_per_query": s.latency_us_per_query,
            }
            for s in self.sessions
        ]


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
    def initial_tuning(self) -> LSMTuning:
        """The tuning the sequence started under (alias of ``tuning``)."""
        return self.tuning

    @property
    def num_migrations(self) -> int:
        """Number of migrations the controller applied during the sequence."""
        return sum(1 for event in self.events if event.migrated)

    @property
    def migration_pages(self) -> int:
        """Total pages read + written by migrations during the sequence."""
        return sum(event.migration_pages for event in self.events)


@dataclass
class ExecutorConfig:
    """Knobs of the system-measurement harness."""

    #: Number of concrete queries executed per workload of a session.
    queries_per_workload: int = 2_000
    #: Number of keys touched by one short range query.
    range_scan_keys: int = 16
    #: Number of keys touched by one long range query (issued for the
    #: ``long_range_fraction`` share of a workload's range lookups).
    long_scan_keys: int = 512
    #: Fraction of the writes that update an existing key (creating obsolete
    #: versions the next compaction must consolidate) instead of inserting a
    #: fresh one.
    update_fraction: float = 0.0
    #: Zipf exponent concentrating those updates on a hot key subset (0 =
    #: uniform over the resident keys).
    update_skew: float = 0.0
    #: Simulated page read latency in microseconds.
    read_latency_us: float = 100.0
    #: Simulated page write latency in microseconds.
    write_latency_us: float = 100.0
    #: Seed controlling trace generation.
    seed: int = 97
    #: Upper bound on the keys of one batched GET span of trace replay.
    max_batch_ops: int = 4_096
    #: Storage backend the trees run on: ``"simulated"`` keeps runs in memory
    #: (the default virtual-disk engine), ``"persistent"`` builds
    #: :class:`~repro.storage.persistent.PersistentLSMTree` instances on real
    #: SSTable files.  Both charge identical virtual-disk counters; the
    #: persistent backend additionally pays real file I/O, so its wall-clock
    #: time is meaningful.
    backend: str = "simulated"
    #: Parent directory for the persistent backend's per-tree data
    #: directories.  ``None`` uses the system temp dir and removes each
    #: tree's files when it is disposed; a given directory keeps them on
    #: disk for inspection.
    data_dir: str | None = None
    #: Whether the persistent backend's write-ahead log ``fsync``s every
    #: append (durability against OS crashes, at a steep wall-clock cost).
    sync_writes: bool = False
    #: Number of hash-partitioned shards the serving layer
    #: (:class:`~repro.serving.ShardedExecutor`) spreads the key space over.
    #: The classic single-tree :class:`WorkloadExecutor` ignores it; 1 is the
    #: unsharded deployment either way.
    num_shards: int = 1
    #: Default admission policy of incremental migration steps in adaptive
    #: runs: ``"fixed"`` paces one step every ``migration_step_ops``
    #: operations, ``"queue-depth"`` defers steps while the serving backlog
    #: is deep and drains them during idle gaps (see
    #: :mod:`repro.online.admission`).  An explicit ``OnlineConfig`` passed
    #: to the adaptive entry points overrides this.
    admission: str = "fixed"

    def __post_init__(self) -> None:
        if self.max_batch_ops <= 0:
            raise ValueError("max_batch_ops must be positive")
        if self.backend not in ("simulated", "persistent"):
            raise ValueError(
                f"backend must be 'simulated' or 'persistent', got {self.backend!r}"
            )
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        # Imported lazily: the online package builds on storage, so a
        # module-level import would be circular.
        from ..online.admission import ADMISSION_MODES

        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got {self.admission!r}"
            )


class WorkloadExecutor:
    """Runs session sequences against freshly built LSM-tree instances."""

    def __init__(
        self, system: SystemConfig, config: ExecutorConfig | None = None
    ) -> None:
        self.system = system
        self.config = config if config is not None else ExecutorConfig()
        self.key_space = KeySpace.build(system.num_entries, seed=self.config.seed)

    # ------------------------------------------------------------------
    # Database construction
    # ------------------------------------------------------------------
    def build_tree(
        self, tuning: LSMTuning, keys: np.ndarray | None = None
    ) -> LSMTree:
        """Instantiate and bulk-load a tree for one tuning.

        Every tuning gets the exact same initial key set, mirroring the
        paper's identical bulk-loading across database instances; ``keys``
        substitutes a subset (the serving layer loads each shard with its
        hash partition of the key space).  The configured backend decides the
        substrate: the simulated tree lives in memory, the persistent one
        materialises its runs as SSTable files in a fresh per-tree directory.
        Dispose of the tree through :meth:`dispose_tree` so backend resources
        are released either way.  A failure while constructing or loading a
        persistent tree removes its half-built directory before re-raising —
        a crashed build must not leak ``tree-*`` dirs into the temp dir (or a
        shared user ``data_dir``).
        """
        disk = VirtualDisk(
            read_latency_us=self.config.read_latency_us,
            write_latency_us=self.config.write_latency_us,
        )
        if keys is None:
            keys = self.key_space.existing
        if self.config.backend == "persistent":
            # Imported lazily: the simulated path stays importable even if
            # the persistent package grows platform-specific dependencies.
            from .persistent import PersistentLSMTree

            if self.config.data_dir is not None:
                os.makedirs(self.config.data_dir, exist_ok=True)
            data_dir = tempfile.mkdtemp(prefix="tree-", dir=self.config.data_dir)
            try:
                tree = PersistentLSMTree(
                    tuning=tuning,
                    system=self.system,
                    data_dir=data_dir,
                    disk=disk,
                    sync_writes=self.config.sync_writes,
                )
                tree.bulk_load(keys)
            except BaseException:
                shutil.rmtree(data_dir, ignore_errors=True)
                raise
        else:
            tree = LSMTree(tuning=tuning, system=self.system, disk=disk)
            tree.bulk_load(keys)
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
    def _measure_session(
        self,
        disk: VirtualDisk,
        execute: Callable[[Trace], None],
        session: Session,
        operations: Callable[[Workload, int], Trace],
    ) -> SessionMeasurement:
        """Generate one session's traces, run them through ``execute``, and
        measure the I/O delta on ``disk``.

        ``operations`` produces each workload's trace (a generator's
        ``operations``, or the serving layer's per-shard mask of it) and
        ``execute`` is whatever consumes it — a plain tree replay or the
        adaptive controller's loop; everything that hits ``disk`` between the
        snapshots (queries, flushes, compactions, migrations) is attributed
        to the session.
        """
        before = disk.snapshot()
        num_queries = 0
        for workload in session.workloads:
            trace = operations(workload, self.config.queries_per_workload)
            num_queries += len(trace)
            execute(trace)
        delta = disk.counters.delta(before)
        latency = disk.latency_us(delta) / num_queries if num_queries else 0.0
        return SessionMeasurement(
            label=session.label,
            workload=session.average,
            num_queries=num_queries,
            query_reads=delta.query_reads,
            query_writes=delta.query_writes,
            flush_writes=delta.flush_writes,
            compaction_reads=delta.compaction_reads,
            compaction_writes=delta.compaction_writes,
            latency_us_per_query=latency,
        )

    def run_session(
        self, tree: LSMTree, session: Session, trace: TraceGenerator
    ) -> SessionMeasurement:
        """Execute one session on an existing tree and measure its I/O."""
        return self._measure_session(
            tree.disk,
            partial(
                execute_operations_batched,
                tree,
                max_batch_ops=self.config.max_batch_ops,
            ),
            session,
            trace.operations,
        )

    def trace_generator(self) -> TraceGenerator:
        """A fresh, deterministically seeded trace generator.

        Every measurement path builds its own from the executor's config, so
        sequential, parallel and adaptive runs replay bit-identical traces.
        """
        return TraceGenerator(
            key_space=self.key_space,
            range_scan_keys=self.config.range_scan_keys,
            long_scan_keys=self.config.long_scan_keys,
            update_fraction=self.config.update_fraction,
            update_skew=self.config.update_skew,
            seed=self.config.seed,
        )

    def run_sequence(
        self, tuning: LSMTuning, sequence: SessionSequence
    ) -> SequenceMeasurement:
        """Bulk-load a fresh tree for ``tuning`` and execute a full sequence."""
        tree = self.build_tree(tuning)
        try:
            trace = self.trace_generator()
            measurements = tuple(
                self.run_session(tree, session, trace) for session in sequence
            )
            return SequenceMeasurement(tuning=tree.tuning, sessions=measurements)
        finally:
            self.dispose_tree(tree)

    def compare(
        self,
        tunings: dict[str, LSMTuning],
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> dict[str, SequenceMeasurement]:
        """Run the same sequence under several tunings (nominal vs robust).

        The per-tuning simulations are independent, so with ``parallel=True``
        they run on a multiprocessing pool (one worker per tuning, capped at
        ``processes`` or the CPU count).  Each worker rebuilds the executor
        from the same ``(system, config)`` pair, which reproduces the key
        space and traces exactly: the parallel path returns measurements
        identical to the sequential one.
        """
        if not parallel or len(tunings) <= 1:
            return {
                name: self.run_sequence(tuning, sequence)
                for name, tuning in tunings.items()
            }
        names = list(tunings)
        worker_count = min(len(names), processes or os.cpu_count() or 1)
        task = _SequenceTask(system=self.system, config=self.config, sequence=sequence)
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=worker_count) as pool:
            measurements = pool.map(task, [tunings[name] for name in names])
        return dict(zip(names, measurements))

    # ------------------------------------------------------------------
    # Adaptive execution (online re-tuning)
    # ------------------------------------------------------------------
    def run_sequence_adaptive(
        self,
        initial_tuning: LSMTuning,
        sequence: SessionSequence,
        online=None,
        policies: Sequence[Policy] = CLASSIC_POLICIES,
    ) -> AdaptiveSequenceMeasurement:
        """Execute a sequence with the online adaptive-tuning loop enabled.

        The tree starts under ``initial_tuning`` exactly like
        :meth:`run_sequence`, but operations flow through an
        :class:`~repro.online.controller.OnlineLSMController`: the controller
        watches the stream, re-tunes on drift, and migrates the live tree
        when the predicted gain pays for the move.  Migration I/O lands on
        the same virtual disk the session deltas are read from, so the
        returned measurements charge adaptivity at full price.

        ``online`` is an :class:`~repro.online.controller.OnlineConfig`
        (defaults apply, with the executor's ``admission`` policy, when
        omitted); ``policies`` bounds what re-tunings may deploy.
        """
        # Imported here so the storage layer stays loadable without the
        # online subsystem (which itself builds on storage).
        from ..online.controller import OnlineConfig, OnlineLSMController

        tree = self.build_tree(initial_tuning)
        controller = None
        try:
            controller = OnlineLSMController(
                tree=tree,
                expected=sequence.expected,
                config=(
                    online
                    if online is not None
                    else OnlineConfig(admission=self.config.admission)
                ),
                policies=policies,
            )
            execute = partial(
                controller.execute_batched, max_batch_ops=self.config.max_batch_ops
            )
            trace = self.trace_generator()
            measurements = []
            for session in sequence:
                measurements.append(
                    self._measure_session(
                        controller.disk, execute, session, trace.operations
                    )
                )
                # The gap between sessions is a serving lull: under
                # queue-depth admission the controller drains deferred
                # migration steps here, outside any session's measurement
                # window (a no-op under the default fixed cadence).
                controller.note_idle()
            # A migration plan still in flight at stream end is drained now,
            # as an operator would during quiescence: the trailing steps land
            # on the shared disk (after the last session's window —
            # per-session metrics keep their in-stream shape) so the events'
            # page totals are fully charged, ``final_tuning`` reports the
            # tuning actually reached, and the target's tombstone hold is
            # released.
            controller.finish_migration()
            return AdaptiveSequenceMeasurement(
                tuning=tree.tuning,
                sessions=tuple(measurements),
                final_tuning=controller.tuning,
                events=tuple(controller.events),
            )
        finally:
            # Migrations may have swapped the live tree; dispose the one the
            # controller currently owns — and, when an exception left an
            # incremental plan in flight, the plan's half-built target tree
            # as well (otherwise its backend directory leaks).
            if controller is not None:
                plan = controller.migration_plan
                if plan is not None:
                    self.dispose_tree(plan.target)
                self.dispose_tree(controller.tree)
            else:
                self.dispose_tree(tree)

    def compare_adaptive(
        self,
        tunings: dict[str, LSMTuning],
        sequence: SessionSequence,
        adaptive_from: str = "nominal",
        online=None,
        policies: Sequence[Policy] = CLASSIC_POLICIES,
        parallel: bool = False,
    ) -> dict[str, SequenceMeasurement]:
        """Static tunings vs the adaptive executor over one sequence.

        Runs :meth:`compare` for the static ``tunings`` (optionally in
        parallel) and adds an ``"adaptive"`` entry: the same sequence
        replayed with re-tuning enabled, starting from
        ``tunings[adaptive_from]``.
        """
        if adaptive_from not in tunings:
            raise KeyError(f"adaptive_from={adaptive_from!r} is not among the tunings")
        if "adaptive" in tunings:
            raise ValueError(
                '"adaptive" is the reserved name of the adaptive run; '
                "rename that static tuning"
            )
        results: dict[str, SequenceMeasurement] = dict(
            self.compare(tunings, sequence, parallel=parallel)
        )
        results["adaptive"] = self.run_sequence_adaptive(
            tunings[adaptive_from], sequence, online=online, policies=policies
        )
        return results


@dataclass(frozen=True)
class _SequenceTask:
    """Picklable worker of the parallel :meth:`WorkloadExecutor.compare` path.

    Rebuilding the executor inside the worker (instead of shipping the parent
    instance) keeps the task lightweight and deterministic: the key space and
    trace generator are reconstructed from the same seeds, so workers produce
    bit-identical measurements to the sequential path.

    Persistent-backend hygiene across processes: each worker's tree gets its
    own ``mkdtemp``-fresh ``tree-*`` directory (collision-free even when a
    user-chosen ``data_dir`` is shared by every worker), ``run_sequence``
    disposes it in ``try/finally``, and ``build_tree`` removes a half-built
    directory if construction or bulk-loading raises — a failing worker
    reports its exception without orphaning directories.
    """

    system: SystemConfig
    config: ExecutorConfig
    sequence: SessionSequence

    def __call__(self, tuning: LSMTuning) -> SequenceMeasurement:
        executor = WorkloadExecutor(self.system, self.config)
        return executor.run_sequence(tuning, self.sequence)
