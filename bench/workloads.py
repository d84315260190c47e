"""The seven benchmark workloads: inputs from a seed, the timed call, the replay.

Every workload offers two ways through the same work:

``call()``
    The top-level public function a user would call (``run_sequence``,
    ``compare``, ``tune`` …).  This is what the untraced run times.
``replay(tracer, oracle)``
    The harness itself makes the layer calls that function makes
    (``TraceGenerator.operations`` → ``build_tree`` → the replay loop →
    ``dispose_tree``), one span per call.  Because the harness holds the tree,
    this is also where the oracle gets to question it.  The page counters of
    a replay must equal those of a call exactly; otherwise the decomposition
    measured a different program.
``cleanup()``
    Removes what the last call or replay left on disk; the harness calls it
    after each, outside the timed region.

Tunings of the engine workloads are pinned literals so a tuner change cannot
move an engine number; ``tune_sweep`` builds no tree so an engine change
cannot move a tuner number.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np
from oracle import Oracle
from tracing import Tracer

from repro.analysis.online_eval import drifting_sequence
from repro.core import GridTuner, NominalTuner, RobustTuner, UncertaintyRegion
from repro.lsm import CLASSIC_POLICIES, LSMCostModel, LSMTuning, Policy, simulator_system
from repro.online import OnlineConfig, OnlineLSMController
from repro.serving import (
    ShardedExecutor,
    execute_serving_batched,
    partition_keys,
    shard_operations,
)
from repro.serving.executor import tree_fingerprint
from repro.storage import ExecutorConfig, PersistentLSMTree, WorkloadExecutor
from repro.storage.lsm_tree import execute_operations_batched
from repro.workloads import (
    OperationType,
    Session,
    SessionGenerator,
    SessionSequence,
    SessionType,
    UncertaintyBenchmark,
    Workload,
    expected_workload,
)

#: Pinned tunings (leveling T=6 h=8 for the engine workloads; the read- and
#: write-tuned deployments of ``benchmarks/test_persistent_backend.py``).
ENGINE_TUNING = LSMTuning(6.0, 8.0, Policy.LEVELING)
READ_TUNED = LSMTuning(6.0, 10.0, Policy.LEVELING)
WRITE_TUNED = LSMTuning(8.0, 1.0, Policy.TIERING)

#: The session sequences of ``online_drift`` and ``sharded_serving`` are
#: sampled once, from this seed: ``--seed`` draws the keys and the traces, not
#: the query mix, so that runs with different seeds cost about the same and
#: their spread is the measurement's, not the inputs'.
SESSION_SEED = 0
#: ``tune_sweep`` has no sampled input — the Table-2 workloads are constants —
#: and a tuner's seed picks its multi-start points, which moves the time of a
#: pass by ±20 %.  Pinned (the issue's "seed 0"), so ``--seed`` changes nothing
#: on that workload and every run solves the same problems the same way.
TUNER_SEED = 0

COUNTER_FIELDS = (
    "query_reads",
    "query_writes",
    "flush_writes",
    "compaction_reads",
    "compaction_writes",
)


@dataclass(frozen=True)
class Outcome:
    """What one pass over a workload produced; equal iff the exact parts are."""

    ops: int
    io_per_op: float
    worst_session_io_per_op: float
    #: The five page counters summed over the pass (empty on ``tune_sweep``).
    counters: tuple[int, ...] = ()
    #: Wall times measured inside the pass; not part of equality.
    detail: dict = field(default_factory=dict, compare=False)


def _ios(counters: Iterable[int], ops: int) -> float:
    return sum(counters) / ops if ops else 0.0


def measured_rows(sessions) -> list[tuple[int, tuple[int, ...]]]:
    """``(ops, page counters)`` of each ``SessionMeasurement``."""
    return [(s.num_queries, tuple(getattr(s, f) for f in COUNTER_FIELDS)) for s in sessions]


def span_rows(spans: list[dict]) -> list[tuple[int, tuple[int, ...]]]:
    """``(ops, page counters)`` of each ``harness.session`` span."""
    return [(s["ops"], tuple(s["pages"][f] for f in COUNTER_FIELDS)) for s in spans]


def outcome_of(rows, worst: float | None = None, **detail) -> Outcome:
    """Fold per-session ``(ops, page counters)`` rows into an outcome."""
    ops = sum(n for n, _ in rows)
    counters = tuple(sum(c[i] for _, c in rows) for i in range(len(COUNTER_FIELDS)))
    if worst is None:
        worst = max(_ios(c, n) for n, c in rows)
    return Outcome(ops, _ios(counters, ops), worst, counters, detail)


def fixed_sequence(mix: Workload, sessions: int) -> SessionSequence:
    """``sessions`` sessions of one workload each, all of the same mix."""
    return SessionSequence(
        expected=mix,
        sessions=tuple(
            Session(SessionType.EXPECTED, f"session {i}", (mix,)) for i in range(sessions)
        ),
    )


def live_keys_after(existing: np.ndarray, traces: list[list]) -> np.ndarray:
    """The oracle: sorted keys a store holds after loading and the traces' puts."""
    puts = [op.key for ops in traces for op in ops if op.kind is OperationType.PUT]
    return np.union1d(existing, np.asarray(puts, dtype=np.int64))


def count_kinds(traces: list[list]) -> dict[str, int]:
    """Puts and point reads among the operations a replay executed."""
    kinds = [op.kind for ops in traces for op in ops]
    puts = kinds.count(OperationType.PUT)
    return {"puts": puts, "gets": len(kinds) - puts - kinds.count(OperationType.RANGE)}


class EngineWorkload:
    """``WorkloadExecutor.run_sequence`` of one fixed mix under the pinned tuning.

    ``point_read``, ``write_ingest`` and ``range_scan`` use the simulated
    engine three different ways; :class:`PersistentWorkload` is the same call
    on real files.
    """

    SPECS = {
        "point_read": dict(
            mix=Workload(0.30, 0.68, 0.01, 0.01), sessions=10, queries=20_000
        ),
        "write_ingest": dict(
            mix=Workload(0.05, 0.05, 0.01, 0.89),
            sessions=5,
            queries=6_000,
            update_fraction=0.3,
        ),
        "range_scan": dict(
            mix=Workload(0.05, 0.10, 0.70, 0.15, long_range_fraction=0.2),
            sessions=4,
            queries=5_000,
            update_fraction=0.3,
        ),
        "persistent_mixed": dict(
            mix=Workload(0.20, 0.30, 0.20, 0.30), sessions=1, queries=8_000
        ),
    }
    #: Layer the tree-building and replay spans are booked under.
    layer = "storage"
    tuning = ENGINE_TUNING

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path, clock) -> None:
        spec = self.SPECS[name]
        self.name = name
        self.clock = clock
        self.system = simulator_system(num_entries=2_000 if smoke else 20_000)
        queries = spec["queries"] // 20 if smoke else spec["queries"]
        self.config = ExecutorConfig(
            queries_per_workload=queries,
            update_fraction=spec.get("update_fraction", 0.0),
            seed=seed,
            **self._backend(scratch),
        )
        started = clock()
        self.executor = WorkloadExecutor(self.system, self.config)
        self.setup_times = {"workloads.keyspace_build_s": clock() - started}
        started = clock()
        self.sequence = fixed_sequence(spec["mix"], spec["sessions"])
        self.setup_times["workloads.session_gen_s"] = clock() - started
        self.sizes = {
            "num_entries": self.system.num_entries,
            "sessions": spec["sessions"],
            "queries_per_workload": queries,
        }

    def _backend(self, scratch: Path) -> dict:
        return {}

    def call(self) -> Outcome:
        measurement = self.executor.run_sequence(self.tuning, self.sequence)
        return outcome_of(measured_rows(measurement.sessions))

    def replay(self, tracer: Tracer, oracle: Oracle) -> Outcome:
        executor, layer = self.executor, self.layer
        traces: list[list] = []
        sessions = []
        tree = None
        try:
            with tracer.span("harness.call"):
                with tracer.span(f"{layer}.bulk_load"):
                    tree = executor.build_tree(self.tuning)
                trace = executor.trace_generator()
                for index, session in enumerate(self.sequence):
                    with tracer.span("harness.session", tree.disk, session=index) as row:
                        row["ops"] = 0
                        for workload in session.workloads:
                            with tracer.span("workloads.trace_gen", session=index) as gen:
                                operations = trace.operations(
                                    workload, self.config.queries_per_workload
                                )
                                gen["ops"] = len(operations)
                            with tracer.span(f"{layer}.replay", tree.disk, session=index):
                                execute_operations_batched(
                                    tree, operations, max_batch_ops=self.config.max_batch_ops
                                )
                            row["ops"] += len(operations)
                            traces.append(operations)
                    sessions.append(row)
            self.executed = count_kinds(traces)
            live = live_keys_after(executor.key_space.existing, traces)
            tree = self._question(oracle, tree, live)
        finally:
            if tree is not None:
                with tracer.span(f"{layer}.dispose"):
                    executor.dispose_tree(tree)
        return outcome_of(span_rows(sessions))

    def _question(self, oracle: Oracle, tree, live: np.ndarray):
        """Hand the replayed tree to the oracle; returns the tree to dispose."""
        oracle.tree(tree, live, self.executor.key_space.missing, self.name)
        return tree

    def cleanup(self) -> None:
        """Nothing outlives a call on the simulated engine."""


@contextlib.contextmanager
def fsyncs_counted():
    """Count ``os.fsync`` calls instead of waiting for them.

    The sandbox's block device is rate-limited with a burst allowance: with
    the manifest ``fsync`` of every flush left on, ten back-to-back runs of
    ``persistent_mixed`` slowed monotonically from 0.65 s to 1.84 s per call.
    That is the hypervisor's throttle, not the backend, so the harness keeps
    the count (what a later change to the commit path would save) and drops
    the wait — the ``eatmydata`` idiom.  Nothing here survives a real power
    cut; the crash the replay simulates drops handles, not the OS cache.
    """
    calls = [0]
    real = os.fsync

    def count(fd: int) -> None:
        calls[0] += 1

    os.fsync = count
    try:
        yield calls
    finally:
        os.fsync = real


class PersistentWorkload(EngineWorkload):
    """The engine call on SSTable files and a WAL, then a reopen.

    Stated flush policy: ``sync_writes=False`` — the WAL is flushed to the
    operating system on every append and never ``fsync``-ed — and the
    manifest's ``fsync`` at every flush is counted, not waited for (see
    :func:`fsyncs_counted`).  The timed call reopens the directory
    ``run_sequence`` closed (manifest, SSTable sidecars, WAL replay); the
    replay additionally kills the tree without syncing anything and re-checks
    every acknowledged put on the recovered one.  The mix has no updates, so
    resident entries are live entries.
    """

    layer = "persistent"
    #: Descriptors one call may hold at once (see :meth:`leaked_descriptors`).
    DESCRIPTORS = 4096

    def _backend(self, scratch: Path) -> dict:
        self.data_dir = scratch / "persistent"
        #: How many descriptors each ``cleanup`` had to close, call by call.
        self.descriptors_closed: list[int] = []
        unlimited = resource.RLIM_INFINITY
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        wanted = self.DESCRIPTORS if hard == unlimited else min(self.DESCRIPTORS, hard)
        if soft != unlimited and soft < wanted:
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        return {"backend": "persistent", "data_dir": str(self.data_dir), "sync_writes": False}

    def leaked_descriptors(self) -> list[int]:
        """Descriptors this process still holds on deleted files of the data dir.

        The backend opens every SSTable it writes and never closes the ones a
        compaction replaces (250 per call here), so a process that makes more
        than a few calls runs into ``ulimit -n`` — and the kernel cannot free
        an unlinked file's blocks while it is open.
        """
        leaked = []
        for entry in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{entry}")
            except OSError:  # the descriptor of the listing itself
                continue
            if target.startswith(str(self.data_dir)) and target.endswith(" (deleted)"):
                leaked.append(int(entry))
        return leaked

    def reopen(self, tree_dir: Path) -> PersistentLSMTree:
        return PersistentLSMTree(
            tuning=self.tuning, system=self.system, data_dir=tree_dir, sync_writes=False
        )

    def call(self) -> Outcome:
        with fsyncs_counted() as fsyncs:
            measurement = self.executor.run_sequence(self.tuning, self.sequence)
            (tree_dir,) = self.data_dir.glob("tree-*")
            started = self.clock()
            tree = self.reopen(tree_dir)
            reopen_s = self.clock() - started
            entries = tree.num_entries
            tree.close()
        disk_bytes = sum(path.stat().st_size for path in tree_dir.iterdir())
        return outcome_of(
            measured_rows(measurement.sessions),
            reopen_s=reopen_s,
            disk_bytes_per_entry=disk_bytes / entries,
            fsyncs=fsyncs[0],
        )

    def replay(self, tracer: Tracer, oracle: Oracle) -> Outcome:
        with fsyncs_counted():
            outcome = super().replay(tracer, oracle)
        # The simulated engine makes the same structure decisions, so the same
        # trace must charge its virtual disk the same pages.
        twin = WorkloadExecutor(
            self.system, replace(self.config, backend="simulated", data_dir=None)
        )
        simulated = measured_rows(twin.run_sequence(self.tuning, self.sequence).sessions)
        self.counter_parity = int(outcome_of(simulated) == outcome)
        oracle.equal("counters of the simulated twin", self.counter_parity, 1)
        return outcome

    def _question(self, oracle: Oracle, tree, live: np.ndarray):
        missing = self.executor.key_space.missing
        oracle.tree(tree, live, missing, self.name, probe=False)
        tree.simulate_crash()
        recovered = self.reopen(tree.data_dir)
        self.wal_records_replayed = len(recovered.memtable)
        self.files = sum(1 for _ in tree.data_dir.iterdir())
        # Durability: the recovered tree answers for every acknowledged put.
        # It is also the tree the probes time — reads there go to reopened files.
        oracle.tree(recovered, live, missing, f"{self.name} after crash")
        return recovered

    def cleanup(self) -> None:
        """Delete the call's files and close what the backend left open on them.

        No tree of the call is alive any more, and an ``SSTable`` has no
        finaliser, so nothing will touch these descriptors again.
        """
        shutil.rmtree(self.data_dir, ignore_errors=True)
        leaked = self.leaked_descriptors()
        for descriptor in leaked:
            os.close(descriptor)
        self.descriptors_closed.append(len(leaked))


# ----------------------------------------------------------------------
# tune_sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One tuner problem: a Table-2 workload and an uncertainty radius."""

    index: int
    rho: float

    @property
    def label(self) -> str:
        kind = "nominal" if self.rho == 0 else f"robust{self.rho:g}"
        return f"{kind}/w{self.index}"


class TuneSweep:
    """Nominal and robust solves on Table-2 workloads — ``lsm`` and ``core`` only.

    One pass solves every cell once with a fresh tuner (default classic
    policies), so passes repeat exactly.  The k-vector cell costs as much as
    three passes and is therefore solved in the traced run only.
    """

    name = "tune_sweep"
    CELLS = (Cell(0, 0.0), Cell(4, 0.0), Cell(11, 0.0), Cell(1, 0.25), Cell(11, 1.0))
    SMOKE_CELLS = (Cell(0, 0.0), Cell(1, 0.25))
    KVECTOR_CELL = Cell(4, 1.0)

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path, clock) -> None:
        self.clock = clock
        self.system = simulator_system(num_entries=20_000)
        self.model = LSMCostModel(self.system)
        self.cells = self.SMOKE_CELLS if smoke else self.CELLS
        self.setup_times: dict[str, float] = {}
        self.sizes = {
            "num_entries": self.system.num_entries,
            "cells": [cell.label for cell in self.cells],
        }

    def solve(self, cell: Cell, **tuner_options):
        workload = expected_workload(cell.index).workload
        if cell.rho == 0:
            tuner = NominalTuner(system=self.system, seed=TUNER_SEED, **tuner_options)
        else:
            tuner = RobustTuner(
                rho=cell.rho, system=self.system, seed=TUNER_SEED, **tuner_options
            )
        return tuner.tune(workload)

    def cost(self, cell: Cell, tuning: LSMTuning) -> float:
        """The cell's objective at ``tuning``, evaluated by the harness."""
        workload = expected_workload(cell.index).workload
        if cell.rho == 0:
            return float(self.model.workload_cost(workload, tuning))
        region = UncertaintyRegion(expected=workload, rho=cell.rho)
        return region.worst_case_cost(self.model.cost_vector(tuning))

    def reference(self, cell: Cell) -> float:
        """Objective of a coarse exhaustive grid — the bar a tuner must clear."""
        grid = GridTuner(
            system=self.system,
            size_ratios=np.arange(2.0, 31.0, 2.0),
            bits_grid_points=9,
            rho=cell.rho,
        )
        return grid.tune(expected_workload(cell.index).workload).objective

    def _outcome(self, costs: list[float], cell_s: list[float]) -> Outcome:
        return Outcome(
            len(costs), statistics.fmean(costs), max(costs), detail={"cell_s": cell_s}
        )

    def call(self) -> Outcome:
        costs, cell_s = [], []
        for cell in self.cells:
            started = self.clock()
            result = self.solve(cell)
            cell_s.append(self.clock() - started)
            costs.append(self.cost(cell, result.tuning))
        return self._outcome(costs, cell_s)

    def replay(self, tracer: Tracer, oracle: Oracle) -> Outcome:
        costs, cell_s = [], []
        with tracer.span("harness.call"):
            for cell in self.cells:
                kind = "nominal" if cell.rho == 0 else "robust"
                with tracer.span(f"core.{kind}", cell=cell.label) as row:
                    result = self.solve(cell)
                cell_s.append(row["end"] - row["start"])
                with tracer.span("lsm.cost", cell=cell.label):
                    costs.append(self.cost(cell, result.tuning))
        self.gaps = []
        for cell, cost in zip(self.cells, costs):
            with tracer.span("core.grid", cell=cell.label):
                reference = self.reference(cell)
            self.gaps.append(oracle.objective(cell.label, cost, reference))
        return self._outcome(costs, cell_s)

    def cleanup(self) -> None:
        """No tree, no files."""


# ----------------------------------------------------------------------
# online_drift
# ----------------------------------------------------------------------
class OnlineDrift:
    """``run_sequence_adaptive`` over a read → write → read drift of w11.

    Starts from the pinned read-tuned deployment; incremental migration keeps
    re-tune solves and paced migration steps in the serving path.
    """

    name = "online_drift"
    PHASES = ("read", "write", "read")
    SESSIONS_PER_PHASE = 3
    WORKLOADS_PER_SESSION = 2

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path, clock) -> None:
        self.system = simulator_system(num_entries=2_000 if smoke else 20_000)
        queries = 150 if smoke else 1_400
        self.config = ExecutorConfig(queries_per_workload=queries, seed=seed)
        if smoke:
            # The CI smoke's controller settings: small windows, so the tiny
            # stream still drifts, re-tunes and migrates.
            self.online = OnlineConfig(
                migration="incremental",
                window=200,
                check_interval=50,
                min_observations=100,
                cooldown=400,
                confirm_checks=2,
            )
        else:
            self.online = OnlineConfig(migration="incremental")
        started = clock()
        self.executor = WorkloadExecutor(self.system, self.config)
        self.setup_times = {"workloads.keyspace_build_s": clock() - started}
        started = clock()
        generator = SessionGenerator(
            UncertaintyBenchmark(size=500, seed=SESSION_SEED), seed=SESSION_SEED
        )
        self.sequence = drifting_sequence(
            generator,
            expected_workload(11).workload,
            phases=self.PHASES,
            sessions_per_phase=self.SESSIONS_PER_PHASE,
            workloads_per_session=self.WORKLOADS_PER_SESSION,
        )
        self.setup_times["workloads.session_gen_s"] = clock() - started
        self.ops_per_phase = queries * self.WORKLOADS_PER_SESSION * self.SESSIONS_PER_PHASE
        self.sizes = {
            "num_entries": self.system.num_entries,
            "sessions": len(self.sequence),
            "queries_per_workload": queries,
        }

    def call(self) -> Outcome:
        measurement = self.executor.run_sequence_adaptive(
            READ_TUNED, self.sequence, online=self.online
        )
        return outcome_of(measured_rows(measurement.sessions))

    def make_controller(self, tree, online: OnlineConfig) -> OnlineLSMController:
        return OnlineLSMController(
            tree=tree, expected=self.sequence.expected, config=online,
            policies=CLASSIC_POLICIES,
        )

    def replay(self, tracer: Tracer, oracle: Oracle) -> Outcome:
        executor, config = self.executor, self.config
        traces: list[list] = []
        sessions = []
        with tracer.span("harness.call"):
            with tracer.span("storage.bulk_load"):
                tree = executor.build_tree(READ_TUNED)
            controller = self.make_controller(tree, self.online)
            trace = executor.trace_generator()
            for index, session in enumerate(self.sequence):
                with tracer.span("harness.session", controller.disk, session=index) as row:
                    row["ops"] = 0
                    for workload in session.workloads:
                        with tracer.span("workloads.trace_gen", session=index) as gen:
                            operations = trace.operations(workload, config.queries_per_workload)
                            gen["ops"] = len(operations)
                        with tracer.span("online.execute", controller.disk, session=index) as span:
                            fired = len(controller.events)
                            controller.execute_batched(
                                operations, max_batch_ops=config.max_batch_ops
                            )
                            span["events"] = len(controller.events) - fired
                        row["ops"] += len(operations)
                        traces.append(operations)
                sessions.append(row)
                controller.note_idle()
            with tracer.span("online.finish_migration", controller.disk):
                controller.finish_migration()
        self.events = tuple(controller.events)
        self.executed = count_kinds(traces)
        oracle.tree(
            controller.tree,
            live_keys_after(executor.key_space.existing, traces),
            executor.key_space.missing,
            self.name,
        )
        return outcome_of(span_rows(sessions))

    def cleanup(self) -> None:
        """Simulated trees only."""


# ----------------------------------------------------------------------
# sharded_serving
# ----------------------------------------------------------------------
class ShardedServing:
    """``ShardedExecutor.compare`` of two pinned tunings over four shards.

    Operations count once per tuning: the call replays the paper sequence of
    w11 under the read-tuned and then the write-tuned deployment.
    """

    name = "sharded_serving"
    NUM_SHARDS = 4
    TUNINGS = {"read-tuned": READ_TUNED, "write-tuned": WRITE_TUNED}

    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path, clock) -> None:
        self.system = simulator_system(num_entries=2_000 if smoke else 20_000)
        queries = 40 if smoke else 400
        self.config = ExecutorConfig(
            queries_per_workload=queries, seed=seed, num_shards=self.NUM_SHARDS
        )
        started = clock()
        generator = SessionGenerator(
            UncertaintyBenchmark(size=500, seed=SESSION_SEED), seed=SESSION_SEED
        )
        self.sequence = generator.paper_sequence(expected_workload(11).workload)
        self.setup_times = {"workloads.session_gen_s": clock() - started}
        self.executor = ShardedExecutor(self.system, self.config)
        self.sizes = {
            "num_entries": self.system.num_entries,
            "sessions": len(self.sequence),
            "queries_per_workload": queries,
            "num_shards": self.NUM_SHARDS,
            "tunings": len(self.TUNINGS),
        }

    def call(self) -> Outcome:
        measurements = self.executor.compare(self.TUNINGS, self.sequence, parallel=False)
        return outcome_of(
            measured_rows(s for m in measurements.values() for s in m.sessions),
            worst=max(m.worst_shard_session_ios() for m in measurements.values()),
        )

    def replay(self, tracer: Tracer, oracle: Oracle) -> Outcome:
        config, shards = self.config, self.NUM_SHARDS
        merged = []
        shard_session_ios = []
        self.executed = {"puts": 0, "gets": 0}
        with tracer.span("harness.call"):
            for name, tuning in self.TUNINGS.items():
                fleet = []
                for shard in range(shards):
                    attrs = {"tuning": name, "shard": shard}
                    with tracer.span("workloads.keyspace_build", **attrs):
                        executor = WorkloadExecutor(self.system, config)
                    existing = executor.key_space.existing
                    with tracer.span("serving.partition", **attrs):
                        shard_keys = partition_keys(existing, shards)[shard]
                    with tracer.span("storage.bulk_load", **attrs):
                        tree = executor.build_tree(tuning, keys=shard_keys)
                    try:
                        rows, traces = self._serve_shard(tracer, executor, tree, attrs)
                        with tracer.span("serving.fingerprint", **attrs):
                            tree.stats()
                            tree_fingerprint(tree)
                        # The oracle's time is taken out of the traced call again.
                        with tracer.span("oracle.tree", **attrs):
                            for kind, count in count_kinds(traces).items():
                                self.executed[kind] += count
                            oracle.tree(
                                tree,
                                live_keys_after(shard_keys, traces),
                                executor.key_space.missing,
                                f"{name} shard {shard}",
                            )
                    finally:
                        executor.dispose_tree(tree)
                    fleet.append(rows)
                    shard_session_ios += [_ios(r["pages"].values(), r["ops"]) for r in rows]
                for index, session in enumerate(self.sequence):
                    parts = [rows[index]["pages"] for rows in fleet]
                    merged.append(
                        {
                            "ops": config.queries_per_workload * len(session.workloads),
                            "pages": {f: sum(p[f] for p in parts) for f in COUNTER_FIELDS},
                        }
                    )
        return outcome_of(span_rows(merged), worst=max(shard_session_ios))

    def _serve_shard(self, tracer, executor, tree, attrs) -> tuple[list[dict], list[list]]:
        """One shard's sub-stream of every session, as ``_run_shard`` serves it."""
        config, shard = self.config, attrs["shard"]
        trace = executor.trace_generator()
        rows, traces = [], []
        for index, session in enumerate(self.sequence):
            with tracer.span("harness.session", tree.disk, session=index, **attrs) as row:
                row["ops"] = 0
                for workload in session.workloads:
                    with tracer.span("workloads.trace_gen", session=index, **attrs) as gen:
                        operations = trace.operations(workload, config.queries_per_workload)
                        gen["ops"] = len(operations)
                    with tracer.span("serving.route", session=index, **attrs) as route:
                        mine = shard_operations(operations, shard, self.NUM_SHARDS)
                        route["ops"] = len(operations)
                    with tracer.span("serving.replay", tree.disk, session=index, **attrs):
                        execute_serving_batched(
                            tree, mine, max_batch_ops=config.max_batch_ops
                        )
                    row["ops"] += len(mine)
                    traces.append(mine)
            rows.append(row)
        return rows, traces

    def cleanup(self) -> None:
        """Simulated trees only."""


BUILDERS = {
    "point_read": EngineWorkload,
    "write_ingest": EngineWorkload,
    "range_scan": EngineWorkload,
    "persistent_mixed": PersistentWorkload,
    "tune_sweep": TuneSweep,
    "online_drift": OnlineDrift,
    "sharded_serving": ShardedServing,
}


def build(name: str, seed: int, smoke: bool, scratch: Path, clock):
    """The inputs of workload ``name``, generated from ``seed``.

    ``clock`` is what the workload reads the times it takes itself from.
    """
    return BUILDERS[name](name, seed, smoke, scratch, clock)
