"""Shard-per-worker execution of session sequences with merged measurements.

:class:`ShardedExecutor` reproduces a hash-partitioned serving fleet on the
measurement harness: one LSM tree (or one adaptive
:class:`~repro.online.controller.OnlineLSMController`) per shard, each shard
bulk-loaded with its partition of the key space and replaying exactly the
sub-stream it would be routed in production — point operations by key
ownership, range scans fanned out to every shard.  Persistent shards build
into per-shard data directories (``shard-NN/`` under a configured
``data_dir``, or independent temp dirs).

There is no second runner here: a shard is one call of
:meth:`~repro.storage.executor.WorkloadExecutor.run_shard` — the method
behind the classic ``run_sequence`` / ``run_sequence_adaptive`` — given the
shard's key partition and its :func:`~repro.serving.sharding.shard_operations`
route, and the fan-out (sequential, or ``parallel=True`` on the process pool
with bit-identical results) is the classic executor's ``_map_tasks``.

Shards are independent, so a fleet reports two wall-clock views:
``total_cpu_s`` (the sum — what a single-process harness spends) and
``critical_path_s`` (the slowest shard — what a one-worker-per-shard fleet
would take, since the workers share nothing).

Measurements sum the per-shard :class:`~repro.storage.disk.IOCounters`
deltas into global :class:`~repro.storage.executor.SessionMeasurement` rows
(priced by the same :class:`~repro.storage.disk.VirtualDisk` latencies,
amortised over the global query count) and into fleet-style percentiles
(p50/p95/worst shard) via :func:`fleet_percentiles`.  With ``num_shards=1``
the merged sessions are bit-identical to
:class:`~repro.storage.executor.WorkloadExecutor` — same counters, same
latency floats, same final tree state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..storage.disk import IOCounters
from ..storage.executor import (
    ExecutorConfig,
    SequenceMeasurement,
    SessionMeasurement,
    ShardRun,
    WorkloadExecutor,
    _map_tasks,
    tree_fingerprint,  # noqa: F401 -- re-exported: bench/ and the tests import it from here
)
from ..workloads.sessions import SessionSequence
from .sharding import partition_keys, shard_operations


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
class ShardedSequenceMeasurement(SequenceMeasurement):
    """A sequence measured across a shard fleet.

    The inherited ``sessions`` hold the *merged* fleet view: counter sums
    over every shard, query counts of the global stream, latency priced from
    the summed counters.  The inherited averages therefore read exactly
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


def _run_shard(
    system: SystemConfig,
    config: ExecutorConfig,
    tuning: LSMTuning,
    sequence: SessionSequence,
    shard: int,
    **run_options,
) -> ShardRun:
    """Build, replay and dispose one shard; the unit of the process pool.

    The shard's executor builds into its own data dir (``shard-NN/`` under a
    configured ``data_dir``), loads the shard's hash partition of the key
    space and masks every regenerated global trace down to the shard's
    sub-stream.
    """
    if config.data_dir is not None:
        config = replace(
            config, data_dir=os.path.join(config.data_dir, f"shard-{shard:02d}")
        )
    executor = WorkloadExecutor(system, config)
    num_shards = config.num_shards
    return executor.run_shard(
        tuning,
        sequence,
        keys=partition_keys(executor.key_space.existing, num_shards)[shard],
        route=partial(shard_operations, shard=shard, num_shards=num_shards),
        shard=shard,
        **run_options,
    )


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
    def _merge_sessions(
        self, sequence: SessionSequence, runs: Sequence[ShardRun]
    ) -> tuple[SessionMeasurement, ...]:
        """Fleet view: counter sums over the shards, global query counts.

        ``num_queries`` counts the *global* stream (range scans once, not
        once per shard they fanned out to), so the merged amortisation
        matches the unsharded executor's definition exactly.
        """
        disk = self.config.disk()
        merged = []
        for index, session in enumerate(sequence):
            parts = [run.measurement.sessions[index] for run in runs]
            delta = IOCounters(
                **{
                    field.name: sum(getattr(part, field.name) for part in parts)
                    for field in fields(IOCounters)
                }
            )
            num_queries = self.config.queries_per_workload * len(session.workloads)
            merged.append(SessionMeasurement.of(session, num_queries, delta, disk))
        return tuple(merged)

    def _run_fleets(
        self,
        tunings: Sequence[LSMTuning],
        sequence: SessionSequence,
        parallel: bool,
        processes: int | None,
        **run_options,
    ) -> list[ShardedSequenceMeasurement]:
        """One fleet per tuning; every tuning x shard task shares one pool."""
        num_shards = self.config.num_shards
        runs = _map_tasks(
            [
                partial(
                    _run_shard,
                    self.system, self.config, tuning, sequence, shard,
                    **run_options,
                )
                for tuning in tunings
                for shard in range(num_shards)
            ],
            parallel,
            processes,
        )
        fleets = []
        for index, tuning in enumerate(tunings):
            fleet = runs[index * num_shards : (index + 1) * num_shards]
            fleets.append(
                ShardedSequenceMeasurement(
                    tuning=tuning,
                    sessions=self._merge_sessions(sequence, fleet),
                    num_shards=num_shards,
                    shards=tuple(fleet),
                )
            )
        return fleets

    def run_sequence(
        self,
        tuning: LSMTuning,
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> ShardedSequenceMeasurement:
        """Replay a sequence over the shard fleet under one static tuning."""
        return self._run_fleets([tuning], sequence, parallel, processes)[0]

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
        load.  ``online`` (an
        :class:`~repro.online.controller.OnlineConfig`, defaults when
        omitted) configures every shard's controller.
        """
        return self._run_fleets(
            [initial_tuning], sequence, parallel, processes,
            adaptive=True, online=online, policies=tuple(policies),
        )[0]

    def compare(
        self,
        tunings: dict[str, LSMTuning],
        sequence: SessionSequence,
        parallel: bool = False,
        processes: int | None = None,
    ) -> dict[str, ShardedSequenceMeasurement]:
        """Run the same sequence under several tunings, fleet-style."""
        fleets = self._run_fleets(
            list(tunings.values()), sequence, parallel, processes
        )
        return dict(zip(tunings, fleets))
