"""Shard-per-worker execution of session sequences with merged measurements.

:class:`ShardedExecutor` reproduces a hash-partitioned serving fleet on the
measurement harness: one LSM tree (or one adaptive
:class:`~repro.online.controller.OnlineLSMController`) per shard, each shard
bulk-loaded with its partition of the key space and replaying exactly the
sub-stream it would be routed in production — point operations by key
ownership, range scans fanned out to every shard.  Persistent shards build
into per-shard data directories (``shard-NN/`` under a configured
``data_dir``, or independent temp dirs).

Shards are independent, so the harness replays them one after another and
reports two wall-clock views: ``total_cpu_s`` (the sum — what this
single-process harness actually spent) and ``critical_path_s`` (the slowest
shard — what a one-worker-per-shard fleet would take, since the workers
share nothing).  An optional process pool (``parallel=True``) runs shards in
separate workers with bit-identical results.

Measurements merge the per-shard :class:`~repro.storage.disk.VirtualDisk`
deltas into global :class:`~repro.storage.executor.SessionMeasurement` rows
(counter sums over the fleet, amortised over the global query count) and
into fleet-style percentiles (p50/p95/worst shard) via
:func:`fleet_percentiles`.  With ``num_shards=1`` the merged sessions are
bit-identical to :class:`~repro.storage.executor.WorkloadExecutor` — same
counters, same latency floats, same final tree state.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..storage.executor import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    SequenceMeasurement,
    SessionMeasurement,
    WorkloadExecutor,
)
from ..storage.lsm_tree import LSMTree, TreeStats, execute_operations_batched
from ..workloads.sessions import SessionSequence
from ..workloads.traces import Trace
from ..workloads.workload import Workload
from .sharding import partition_keys, shard_operations


def tree_fingerprint(tree: LSMTree) -> str:
    """Deterministic digest of a tree's logical state (runs + memtable).

    Backend-agnostic — run contents are read through ``entries()`` — so a
    simulated and a persistent tree holding the same data fingerprint alike.
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
class ShardRun:
    """One shard's complete replay of a session sequence."""

    shard: int
    #: Per-shard sessions: counters of this shard's disk, query counts of the
    #: sub-stream it served.  An :class:`~repro.storage.executor.
    #: AdaptiveSequenceMeasurement` when the run was adaptive.
    measurement: SequenceMeasurement
    #: Structure of the shard's tree after the run.
    stats: TreeStats
    #: Digest of the shard tree's final logical state.
    fingerprint: str
    #: Seconds this shard spent executing operations (trace generation and
    #: routing excluded — those costs are the harness's, identical in shape
    #: across shard counts, and not part of a worker's serving path).
    elapsed_s: float


@dataclass(frozen=True)
class ShardedSequenceMeasurement(SequenceMeasurement):
    """A sequence measured across a shard fleet.

    The inherited ``sessions`` hold the *merged* fleet view: counter sums
    over every shard, query counts of the global stream, latency recomputed
    from the summed counters.  The inherited averages therefore read exactly
    like the unsharded executor's.  ``shards`` keeps each shard's own run for
    percentile and imbalance analysis.
    """

    num_shards: int = 1
    shards: tuple[ShardRun, ...] = ()

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
        worst = 0.0
        for run in self.shards:
            for session in run.measurement.sessions:
                if session.num_queries > 0:
                    worst = max(worst, session.ios_per_query)
        return worst


@dataclass(frozen=True)
class ShardedComparison:
    """Sharded measurements of several tunings over one sequence."""

    expected: Workload
    rho: float
    num_shards: int
    tunings: Mapping[str, LSMTuning]
    measurements: Mapping[str, ShardedSequenceMeasurement]

    def summary(self) -> dict[str, float]:
        """Mean merged I/Os per query, per tuning."""
        return {
            name: measurement.average_ios_per_query
            for name, measurement in self.measurements.items()
        }

    def to_dict(self) -> dict[str, object]:
        """Serialise to plain JSON-compatible data."""
        return {
            "expected": self.expected.as_dict(),
            "rho": self.rho,
            "num_shards": self.num_shards,
            "results": {
                name: {
                    "mean_ios_per_query": m.average_ios_per_query,
                    "mean_latency_us": m.average_latency_us,
                    "shard_percentiles": m.shard_ios_percentiles(),
                    "critical_path_s": m.critical_path_s,
                    "total_cpu_s": m.total_cpu_s,
                    "sessions": m.session_series(),
                    "shard_ios": [
                        run.measurement.average_ios_per_query for run in m.shards
                    ],
                }
                for name, m in self.measurements.items()
            },
        }


def _shard_config(config: ExecutorConfig, shard: int) -> ExecutorConfig:
    """The executor config one shard runs under (its own data dir)."""
    if config.data_dir is None:
        return config
    return replace(
        config, data_dir=os.path.join(config.data_dir, f"shard-{shard:02d}")
    )


def _run_shard(
    system: SystemConfig,
    config: ExecutorConfig,
    sequence: SessionSequence,
    tuning: LSMTuning,
    shard: int,
    adaptive: bool,
    online,
    policies: Sequence[Policy],
) -> ShardRun:
    """Build, replay and dispose one shard; the unit of the process pool."""
    num_shards = config.num_shards
    executor = WorkloadExecutor(system, _shard_config(config, shard))
    shard_keys = partition_keys(executor.key_space.existing, num_shards)[shard]
    tree = executor.build_tree(tuning, keys=shard_keys)
    initial_tuning = tree.tuning
    controller = None
    # Every shard regenerates the global trace from the executor's seeds and
    # masks it down to its sub-stream, so operations keep their global stream
    # positions — on the pool and in the sequential loop alike.
    generator = executor.trace_generator()

    def operations(workload: Workload, count: int) -> Trace:
        return shard_operations(generator.operations(workload, count), shard, num_shards)

    try:
        if adaptive:
            from ..online.controller import OnlineConfig, OnlineLSMController

            controller = OnlineLSMController(
                tree=tree,
                expected=sequence.expected,
                config=(
                    online
                    if online is not None
                    else OnlineConfig(admission=config.admission)
                ),
                policies=policies,
            )
            replay = controller.execute_batched
        else:
            replay = partial(execute_operations_batched, tree)
        elapsed = 0.0

        def execute(trace: Trace) -> None:
            nonlocal elapsed
            start = time.perf_counter()
            replay(trace, max_batch_ops=config.max_batch_ops)
            elapsed += time.perf_counter() - start

        sessions = []
        for session in sequence:
            # The controller's disk is the tree's: migrations share it.
            sessions.append(
                executor._measure_session(tree.disk, execute, session, operations)
            )
            if controller is not None:
                # The inter-session gap is the shard's serving lull: deferred
                # migration steps drain here, outside the measurement window.
                controller.note_idle()
        if controller is not None:
            controller.finish_migration()
            final_tree = controller.tree
            measurement: SequenceMeasurement = AdaptiveSequenceMeasurement(
                tuning=initial_tuning,
                sessions=tuple(sessions),
                final_tuning=controller.tuning,
                events=tuple(controller.events),
            )
        else:
            final_tree = tree
            measurement = SequenceMeasurement(
                tuning=initial_tuning, sessions=tuple(sessions)
            )
        return ShardRun(
            shard=shard,
            measurement=measurement,
            stats=final_tree.stats(),
            fingerprint=tree_fingerprint(final_tree),
            elapsed_s=elapsed,
        )
    finally:
        if controller is not None:
            plan = controller.migration_plan
            if plan is not None:
                executor.dispose_tree(plan.target)
            executor.dispose_tree(controller.tree)
        else:
            executor.dispose_tree(tree)


@dataclass(frozen=True)
class _ShardTask:
    """Picklable per-shard work item of the parallel serving path.

    Like the executor's ``_SequenceTask``, the worker rebuilds everything
    from ``(system, config)`` seeds, so pooled shards replay bit-identical
    sub-streams to the sequential loop.
    """

    system: SystemConfig
    config: ExecutorConfig
    sequence: SessionSequence
    tuning: LSMTuning
    shard: int
    adaptive: bool = False
    online: object = None
    policies: tuple = tuple(CLASSIC_POLICIES)

    def __call__(self) -> ShardRun:
        return _run_shard(
            self.system, self.config, self.sequence, self.tuning, self.shard,
            self.adaptive, self.online, self.policies,
        )


def _call_shard_task(task: _ShardTask) -> ShardRun:
    return task()


class ShardedExecutor:
    """Runs session sequences on a hash-partitioned shard fleet."""

    def __init__(
        self, system: SystemConfig, config: ExecutorConfig | None = None
    ) -> None:
        self.system = system
        self.config = config if config is not None else ExecutorConfig()

    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_tasks(
        self, tasks: list[_ShardTask], parallel: bool, processes: int | None
    ) -> list[ShardRun]:
        if not parallel or len(tasks) <= 1:
            return [task() for task in tasks]
        worker_count = min(len(tasks), processes or os.cpu_count() or 1)
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=worker_count) as pool:
            return pool.map(_call_shard_task, tasks)

    def _merge_sessions(
        self, sequence: SessionSequence, runs: list[ShardRun]
    ) -> tuple[SessionMeasurement, ...]:
        """Fleet view: counter sums, global query counts, recomputed latency.

        ``num_queries`` counts the *global* stream (range scans once, not
        once per shard they fanned out to), so the merged amortisation
        matches the unsharded executor's definition exactly.
        """
        config = self.config
        merged = []
        for index, session in enumerate(sequence):
            parts = [run.measurement.sessions[index] for run in runs]
            num_queries = config.queries_per_workload * len(session.workloads)
            query_reads = sum(p.query_reads for p in parts)
            query_writes = sum(p.query_writes for p in parts)
            flush_writes = sum(p.flush_writes for p in parts)
            compaction_reads = sum(p.compaction_reads for p in parts)
            compaction_writes = sum(p.compaction_writes for p in parts)
            total_reads = query_reads + compaction_reads
            total_writes = query_writes + flush_writes + compaction_writes
            latency = (
                (
                    total_reads * config.read_latency_us
                    + total_writes * config.write_latency_us
                )
                / num_queries
                if num_queries
                else 0.0
            )
            merged.append(
                SessionMeasurement(
                    label=session.label,
                    workload=session.average,
                    num_queries=num_queries,
                    query_reads=query_reads,
                    query_writes=query_writes,
                    flush_writes=flush_writes,
                    compaction_reads=compaction_reads,
                    compaction_writes=compaction_writes,
                    latency_us_per_query=latency,
                )
            )
        return tuple(merged)

    def _measure(
        self,
        tuning: LSMTuning,
        sequence: SessionSequence,
        runs: list[ShardRun],
    ) -> ShardedSequenceMeasurement:
        return ShardedSequenceMeasurement(
            tuning=tuning,
            sessions=self._merge_sessions(sequence, runs),
            num_shards=self.config.num_shards,
            shards=tuple(runs),
        )

    def run_sequence(
        self,
        tuning: LSMTuning,
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> ShardedSequenceMeasurement:
        """Replay a sequence over the shard fleet under one static tuning."""
        tasks = [
            _ShardTask(
                system=self.system,
                config=self.config,
                sequence=sequence,
                tuning=tuning,
                shard=shard,
            )
            for shard in range(self.config.num_shards)
        ]
        runs = self._run_tasks(tasks, parallel, processes)
        return self._measure(tuning, sequence, runs)

    def run_sequence_adaptive(
        self,
        initial_tuning: LSMTuning,
        sequence: SessionSequence,
        online=None,
        policies: Sequence[Policy] = CLASSIC_POLICIES,
        parallel: bool = False,
        processes: int | None = None,
    ) -> ShardedSequenceMeasurement:
        """Replay a sequence with one adaptive controller per shard.

        Each shard detects drift and migrates independently — exactly the
        fleet deployment, where a shard's reorganisation is paced by *its*
        load.  ``online`` defaults to an
        :class:`~repro.online.controller.OnlineConfig` carrying the
        executor's ``admission`` policy.
        """
        tasks = [
            _ShardTask(
                system=self.system,
                config=self.config,
                sequence=sequence,
                tuning=initial_tuning,
                shard=shard,
                adaptive=True,
                online=online,
                policies=tuple(policies),
            )
            for shard in range(self.config.num_shards)
        ]
        runs = self._run_tasks(tasks, parallel, processes)
        return self._measure(initial_tuning, sequence, runs)

    def compare(
        self,
        tunings: dict[str, LSMTuning],
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> dict[str, ShardedSequenceMeasurement]:
        """Run the same sequence under several tunings, fleet-style."""
        return {
            name: self.run_sequence(
                tuning, sequence, parallel=parallel, processes=processes
            )
            for name, tuning in tunings.items()
        }
