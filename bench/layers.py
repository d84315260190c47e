"""Per-layer metrics of the traced run: spans summed, probes, shape, CLI.

Three sources, all outside ``src/``:

* the spans a workload's ``replay`` recorded around its calls into each layer
  (times, and page-counter or ``/proc/self/io`` deltas at the same boundaries),
* probes of single public calls (``get_many`` / ``put`` / ``range_query`` /
  ``flush``) on the tree a replay leaves behind — :class:`TreeProbe` is handed
  to the oracle, which calls it with every tree it has finished questioning,
* in-process ``repro.cli.main`` runs at the CI smoke sizes.

Each workload's function returns only the metrics its layers produce; the
harness prints 0 for the layers a workload bypasses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import statistics

import numpy as np
from oracle import OBJECTIVE_TOLERANCE
from tracing import HARNESS, Tracer
from workloads import COUNTER_FIELDS, ENGINE_TUNING, READ_TUNED, Outcome

from repro.cli import main as cli_main
from repro.lsm import Policy
from repro.storage.lsm_tree import execute_operations_batched
from repro.workloads import expected_workload

#: Keys per timed ``get_many`` batch, scans per timed round, rounds, and write
#: buffers filled by the put probe — sized so that a round takes milliseconds
#: and a probe spans several samples of the machine's speed.
PROBE_KEYS = 20_000
PROBE_SHORT_SCANS = 400
PROBE_LONG_SCANS = 200
PROBE_ROUNDS = 9
PROBE_BUFFERS = 200
#: Fresh keys the write probes insert start here, far above any trace's keys.
PROBE_KEY_BASE = 1 << 40

#: ``repro.cli`` invocations of ``.github/workflows/ci.yml``'s smoke jobs.
CLI_ONLINE = (
    "online --num-entries 3000 --queries-per-workload 150 --sessions-per-phase 2 "
    "--window 200 --check-interval 50 --min-observations 100 --cooldown 400 "
    "--confirm-checks 2 --seed 7 --json"
).split()
CLI_COMPARE = "compare --expected-index 11 --num-entries 4000 --num-shards 2 --seed 7".split()
CLI_TUNE = "tune --workload 0.33 0.33 0.33 0.01 --rho 0.25".split()


def _timed(clock, call) -> float:
    started = clock()
    call()
    return clock() - started


def _median_of(rounds: int, clock, call) -> float:
    return statistics.median(_timed(clock, call) for _ in range(rounds))


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a small sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(share * len(ordered)) - 1)]


def cli_seconds(clock, argv: list[str]) -> float:
    """Wall time of one in-process CLI command, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return _timed(clock, lambda: cli_main(argv))


class TreeProbe:
    """Shape of every tree a replay leaves behind; latency probes on the first.

    Shape sums over all trees of the call (eight on ``sharded_serving``), so
    ``space_amp`` is resident pages over pages of live entries fleet-wide.
    """

    def __init__(self, seed: int, latency_prefix: str | None, clock) -> None:
        self.latency_prefix = latency_prefix
        self.clock = clock
        self.latency: dict[str, float] = {}
        self.levels = 0
        self.runs = 0
        self.filter_bits = 0
        self.entries = 0
        self.resident_pages = 0
        self.live_pages = 0.0
        self._rng = np.random.default_rng(seed)

    def __call__(self, tree, live: np.ndarray, missing: np.ndarray, label: str) -> None:
        stats = tree.stats()
        self.levels = max(self.levels, stats.num_levels)
        self.runs += sum(stats.runs_per_level)
        self.filter_bits += stats.filter_memory_bits
        self.entries += stats.num_entries
        self.resident_pages += tree.resident_pages
        self.live_pages += live.size / tree.entries_per_page
        if self.latency_prefix is not None and not self.latency:
            self.latency = self._latency(tree, live, missing)

    def shape_metrics(self) -> dict[str, float]:
        return {
            "storage.levels": self.levels,
            "storage.runs_total": self.runs,
            "storage.filter_bits_per_entry": self.filter_bits / self.entries,
            "space_amp": self.resident_pages / self.live_pages,
        }

    def _latency(self, tree, live: np.ndarray, missing: np.ndarray) -> dict[str, float]:
        """Per-call cost of each operation kind; reads first, then writes."""
        rng, prefix, clock = self._rng, self.latency_prefix, self.clock
        out: dict[str, float] = {}
        for name, pool in (("get_hit", live), ("get_miss", missing)):
            keys = rng.choice(pool, size=PROBE_KEYS)
            before = tree.disk.snapshot()
            seconds = _median_of(PROBE_ROUNDS, clock, lambda: tree.get_many(keys))
            pages = tree.disk.counters.delta(before).query_reads
            out[f"{prefix}.{name}_us"] = seconds / PROBE_KEYS * 1e6
            out[f"{prefix}.pages_per_{name}"] = pages / (PROBE_KEYS * PROBE_ROUNDS)
        for name, scans, length in (
            ("range_short", PROBE_SHORT_SCANS, 16),
            ("range_long", PROBE_LONG_SCANS, 512),
        ):
            starts = rng.choice(live, size=scans).tolist()

            def scan_round() -> None:
                for start in starts:
                    tree.range_query(start, start + length)

            out[f"{prefix}.{name}_us"] = _median_of(PROBE_ROUNDS, clock, scan_round) / scans * 1e6
        # Buffer after buffer of fresh keys: the put cost with its share of
        # flushes and compaction merges.
        count = PROBE_BUFFERS * tree.buffer_entries
        keys = range(PROBE_KEY_BASE, PROBE_KEY_BASE + count)

        def put_all() -> None:
            for key in keys:
                tree.put(key)

        out[f"{prefix}.put_us"] = _timed(clock, put_all) / count * 1e6
        # A half-full buffer, then the flush call alone (with whatever
        # compaction cascade it sets off).
        flushes = []
        next_key = PROBE_KEY_BASE + count
        for _ in range(PROBE_ROUNDS):
            tree.flush()
            for key in range(next_key, next_key + tree.buffer_entries // 2):
                tree.put(key)
            next_key += tree.buffer_entries
            flushes.append(_timed(clock, tree.flush))
        out[f"{prefix}.flush_ms"] = statistics.median(flushes) * 1e3
        return out


def _sum(tracer: Tracer, name: str, key: str | None = None) -> float:
    """Total duration — or total of attribute ``key`` — of the spans called ``name``."""
    if key is None:
        return sum(tracer.durations(name))
    return sum(span[key] for span in tracer.spans if span["name"] == name)


def call_metrics(tracer: Tracer, untraced_s: float) -> tuple[dict[str, float], float]:
    """The traced call as a whole; also returns its duration.

    ``untraced_s`` is the wall time of the same call untraced; both are at
    reference speed, so that the machine's mood is not booked as tracing.
    The oracle's questioning inside a call (``sharded_serving`` disposes each
    tree before the next is built) is taken out of the call and of the
    harness's self time.
    """
    (root,) = (span for span in tracer.spans if span["name"] == "harness.call")
    self_times = tracer.self_times(root["id"])
    oracle_s = self_times.pop("oracle", 0.0)
    call_s = root["end"] - root["start"] - oracle_s
    return {
        "trace.call_s": call_s,
        "trace.overhead": call_s / untraced_s,
        "trace.unattributed_share": self_times[HARNESS] / call_s,
    }, call_s


def store_metrics(wl, tracer: Tracer, outcome: Outcome, call_s: float) -> dict[str, float]:
    """What every workload that builds a tree reports: trace generation, pages."""
    generated = _sum(tracer, "workloads.trace_gen", "ops")
    trace_gen_s = _sum(tracer, "workloads.trace_gen")
    pages = dict(zip(COUNTER_FIELDS, outcome.counters))
    entries_per_page = wl.system.entries_per_page
    out = {
        **wl.setup_times,
        "workloads.trace_gen_s": trace_gen_s,
        "workloads.trace_gen_ops_per_s": generated / trace_gen_s,
        "workloads.trace_gen_share": trace_gen_s / call_s,
        "workloads.trace_ops_generated": generated,
        "storage.bulk_load_s": _sum(tracer, "storage.bulk_load"),
        "storage.query_pages_per_op": (pages["query_reads"] + pages["query_writes"])
        / outcome.ops,
        "storage.flush_pages_per_op": pages["flush_writes"] / outcome.ops,
        "storage.compaction_pages_per_op": (
            pages["compaction_reads"] + pages["compaction_writes"]
        )
        / outcome.ops,
        "write_amp": (pages["flush_writes"] + pages["compaction_writes"])
        / (wl.executed["puts"] / entries_per_page),
    }
    return out


def replay_metrics(wl, tracer: Tracer, outcome: Outcome) -> dict[str, float]:
    """The plain replay loop of the engine workloads, on either backend."""
    layer = wl.layer
    replay_s = _sum(tracer, f"{layer}.replay")
    out = {
        f"{layer}.replay_s": replay_s,
        f"{layer}.bulk_load_s": _sum(tracer, f"{layer}.bulk_load"),
    }
    if layer == "storage":
        (root,) = (span for span in tracer.spans if span["name"] == "harness.call")
        sessions_ms = [s * 1e3 for s in tracer.durations("harness.session")]
        out.update(
            {
                "storage.replay_ops_per_s": outcome.ops / replay_s,
                "storage.executor_overhead_s": tracer.self_times(root["id"])[HARNESS],
                "storage.session_ms_p50": statistics.median(sessions_ms),
                "storage.session_ms_p90": percentile(sessions_ms, 0.9),
                "storage.session_ms_max": max(sessions_ms),
            }
        )
    return out


def persistent_metrics(wl, tracer: Tracer, calls: list[Outcome]) -> dict[str, float]:
    """Real I/O of the replay, recovery, and footprint of ``persistent_mixed``."""
    real = {
        name: sum(span["proc_io"].get(name, 0) for span in tracer.spans if "proc_io" in span)
        for name in ("wchar", "syscw", "rchar")
    }
    puts, gets = wl.executed["puts"], wl.executed["gets"]
    return {
        "persistent.wchar_per_user_byte": real["wchar"] / (puts * wl.system.entry_size_bytes),
        "persistent.syscw_per_put": real["syscw"] / puts,
        "persistent.rchar_per_get": real["rchar"] / gets,
        "persistent.fsyncs_per_put": calls[0].detail["fsyncs"] / puts,
        "persistent.wal_records_replayed": wl.wal_records_replayed,
        "persistent.files": wl.files,
        "persistent.descriptors_leaked": wl.descriptors_closed[0],
        "persistent.counter_parity": wl.counter_parity,
        "reopen_s": statistics.median(call.detail["reopen_s"] for call in calls),
        "disk_bytes_per_entry": calls[0].detail["disk_bytes_per_entry"],
    }


def tune_metrics(
    wl, tracer: Tracer, calls: list[Outcome], smoke: bool, clock
) -> dict[str, float]:
    """Solve latencies per tuner kind, the k-vector cell, cost-model rates."""
    nominal_ms = [s * 1e3 for s in tracer.durations("core.nominal")]
    robust_ms = [s * 1e3 for s in tracer.durations("core.robust")]
    per_cell = [statistics.median(times) for times in zip(*(c.detail["cell_s"] for c in calls))]
    kvector = _median_of(
        1 if smoke else 3,
        clock,
        lambda: wl.solve(wl.KVECTOR_CELL, policies=(Policy.FLUID,), k_vector_search=True),
    )
    workload = expected_workload(0).workload
    evals = 2_000
    scalar_s = _timed(
        clock, lambda: [wl.model.workload_cost(workload, ENGINE_TUNING) for _ in range(evals)]
    )
    ratios, bits = np.arange(2.0, 31.0), np.linspace(1.0, 12.0, 33)
    matrix_s = _median_of(
        PROBE_ROUNDS, clock, lambda: wl.model.cost_matrix(ratios, bits, Policy.LEVELING)
    )
    return {
        "tune_ms_p50": statistics.median(per_cell) * 1e3,
        "kvector_tune_s": kvector,
        "core.nominal_ms_p50": statistics.median(nominal_ms),
        "core.robust_ms_p50": statistics.median(robust_ms),
        "core.robust_ms_max": max(robust_ms),
        "core.grid_ms": max(tracer.durations("core.grid")) * 1e3,
        "core.objective_gap_max": max(wl.gaps),
        "core.cells_failed": sum(gap > OBJECTIVE_TOLERANCE for gap in wl.gaps),
        "lsm.cost_scalar_evals_per_s": evals / scalar_s,
        "lsm.cost_matrix_rows_per_s": ratios.size * bits.size / matrix_s,
        "cli.tune_s": cli_seconds(clock, CLI_TUNE),
    }


def online_metrics(wl, tracer: Tracer, outcome: Outcome, clock) -> dict[str, float]:
    """The controller in the serving path: time, stalls, drift and migration counts."""
    execute_s = _sum(tracer, "online.execute")
    stalls = [
        span["end"] - span["start"]
        for span in tracer.spans
        if span["name"] == "online.execute" and span["events"]
    ]
    # Operations from the first phase boundary to the first firing after it
    # (to the end of the stream when the controller never fired).
    boundary = wl.ops_per_phase
    after = [e.position - boundary for e in wl.events if e.position >= boundary]
    return {
        "online.execute_s": execute_s,
        "online.ops_per_s": outcome.ops / execute_s,
        "online.observe_overhead_us_per_op": observe_overhead_us(wl, clock),
        "online.retune_call_ms_max": max(stalls, default=0.0) * 1e3,
        "online.finish_migration_s": _sum(tracer, "online.finish_migration"),
        "online.drift_events": len(wl.events),
        "online.migrations": sum(event.migrated for event in wl.events),
        "online.migration_pages_per_op": sum(e.migration_pages for e in wl.events)
        / outcome.ops,
        "online.detect_delay_ops": min(after, default=outcome.ops - boundary),
        "cli.online_s": cli_seconds(clock, CLI_ONLINE),
    }


def observe_overhead_us(wl, clock) -> float:
    """Per-operation cost of watching the stream without ever re-tuning.

    The same trace on two fresh trees: through a controller whose drift
    threshold is infinite, and through the plain batched replay.
    """
    executor, config = wl.executor, wl.config
    workload = wl.sequence.sessions[0].workloads[0]
    operations = executor.trace_generator().operations(workload, 4 * config.queries_per_workload)
    never = dataclasses.replace(wl.online, threshold=math.inf)

    def watched() -> float:
        controller = wl.make_controller(executor.build_tree(READ_TUNED), never)
        return _timed(
            clock, lambda: controller.execute_batched(operations, config.max_batch_ops)
        )

    def plain() -> float:
        tree = executor.build_tree(READ_TUNED)
        return _timed(
            clock, lambda: execute_operations_batched(tree, operations, config.max_batch_ops)
        )

    pairs = [(watched(), plain()) for _ in range(PROBE_ROUNDS)]
    gap = statistics.median(w for w, _ in pairs) - statistics.median(p for _, p in pairs)
    return gap / len(operations) * 1e6


def serving_metrics(
    wl, tracer: Tracer, outcome: Outcome, call_s: float, clock
) -> dict[str, float]:
    """Partitioning, routing and fan-out around the per-shard replays."""
    route_s = _sum(tracer, "serving.route")
    replays: dict[tuple, float] = {}
    executed: dict[tuple, int] = {}
    for span in tracer.spans:
        key = (span.get("tuning"), span.get("shard"))
        if span["name"] == "serving.replay":
            replays[key] = replays.get(key, 0.0) + span["end"] - span["start"]
        elif span["name"] == "harness.session":
            executed[key] = executed.get(key, 0) + span["ops"]
    critical_path_s = sum(
        max(seconds for (tuning, _), seconds in replays.items() if tuning == name)
        for name in wl.TUNINGS
    )
    return {
        "workloads.keyspace_build_s": _sum(tracer, "workloads.keyspace_build"),
        "serving.partition_s": _sum(tracer, "serving.partition"),
        "serving.route_s": route_s,
        "serving.route_ops_per_s": _sum(tracer, "serving.route", "ops") / route_s,
        "serving.replay_s": sum(replays.values()),
        "serving.critical_path_s": critical_path_s,
        "serving.overhead_share": 1.0 - sum(replays.values()) / call_s,
        "serving.trace_regen_factor": _sum(tracer, "workloads.trace_gen", "ops") / outcome.ops,
        "serving.range_fanout_factor": sum(executed.values()) / outcome.ops,
        "serving.shard_imbalance": max(executed.values()) / statistics.fmean(executed.values()),
        "cli.compare_s": cli_seconds(clock, CLI_COMPARE),
    }
