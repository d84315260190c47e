"""The benchmark's catalogue: workloads, metrics, units, directions, bounds.

This table is the single source of the names the harness prints, of what
``check.py`` gates, and of ``BENCHMARK.json`` (``benchmark_json()`` is that
file's content; the smoke test fails when the two drift apart).

Two kinds of metric, as the driver's contract defines them:

* ``END_TO_END`` — printed by every workload's untraced run, so each one is
  defined on all seven workloads and is never 0.
* ``PER_LAYER`` — printed by every workload's traced run.  A metric whose
  layer a workload bypasses reads 0 there (``workloads`` lists where it is
  measured).  Six of them — ``write_amp``, ``space_amp``, ``reopen_s``,
  ``disk_bytes_per_entry``, ``tune_ms_p50``, ``kvector_tune_s`` — are
  user-visible quantities that exist on a subset of the workloads only;
  they carry a bound here so ``check.py`` gates them even though the driver
  (which bounds end-to-end metrics only) does not.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bound of a metric that must repeat exactly between two records of the same
#: seed and sizes (page counts and what is derived from them).
EXACT = 0.0

ENGINE = ("point_read", "write_ingest", "range_scan")
#: Workloads whose call is the plain replay loop (on either backend).
PLAIN_REPLAY = ENGINE + ("persistent_mixed",)
SIMULATED = ENGINE + ("online_drift", "sharded_serving")
STORES = SIMULATED + ("persistent_mixed",)

WORKLOADS: dict[str, str] = {
    "point_read": (
        "read-mostly mix: the vectorised get path and trace generation carry the "
        "call, the write path idles"
    ),
    "write_ingest": (
        "89% puts with updates: memtable, a flush every ~20 puts, compaction merges; "
        "a read-path gain that costs puts shows here"
    ),
    "range_scan": (
        "70% range scans, a fifth long, over duplicated versions; writes ride along "
        "so the buffer is never empty"
    ),
    "persistent_mixed": (
        "balanced mix on real files: WAL append per put, SSTable and compaction I/O, "
        "reopen; the gap to the simulated engine is the backend's cost"
    ),
    "tune_sweep": (
        "nominal and robust tuner solves on Table-2 workloads; no tree is built, so "
        "engine changes must leave it flat"
    ),
    "online_drift": (
        "read-write-read drift under the online controller with incremental "
        "migration: observation, drift checks, re-tunes in the serving path"
    ),
    "sharded_serving": (
        "four hash shards, two pinned tunings: partitioning, routing, range fan-out "
        "and per-shard trace regeneration"
    ),
}


@dataclass(frozen=True)
class Metric:
    """One named measurement of the benchmark."""

    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen before
    #: ``check.py`` reports a regression; ``EXACT`` demands equality and
    #: ``None`` means reported, never gating.
    bound: float | None = None
    #: Workloads whose run measures it (elsewhere a per-layer metric reads 0).
    workloads: tuple[str, ...] = tuple(WORKLOADS)
    #: Bound handed to the driver for an exact end-to-end metric.  The driver
    #: runs every seed once and page counts move from seed to seed (see README,
    #: Metrics), so these get a share there instead of equality.
    driver_bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    # Operations of one top-level call / median wall time of the call over the
    # repeats, at reference speed.  An operation is a trace operation, or a
    # tuner solve on ``tune_sweep`` (where this is the issue's ``tunes_per_s``).
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    # Pages moved on the virtual disks (query + flush + compaction) per
    # operation — the paper's cost.  On ``tune_sweep``: the mean model cost of
    # the solved tunings, re-evaluated by the harness.
    Metric("io_per_op", "pages/op", "lower", EXACT, driver_bound=0.10),
    # Worst session (worst shard's session when sharded; worst cell on
    # ``tune_sweep``) — the endurance spike a mean hides.
    Metric("worst_session_io_per_op", "pages/op", "lower", EXACT, driver_bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    # Imports + median of the set-up rounds (inputs from the seed and one
    # full-size warm-up call each).
    Metric("setup_s", "s", "lower", 0.25),
)


def _layer(
    prefix: str, workloads: tuple[str, ...], *rows: tuple[str, str, str]
) -> tuple[Metric, ...]:
    """Reported, never gating metrics of one layer, measured on ``workloads``."""
    return tuple(
        Metric(prefix + name, unit, better, workloads=workloads)
        for name, unit, better in rows
    )


PER_LAYER: tuple[Metric, ...] = (
    # User-visible quantities that exist on a subset of the workloads.
    Metric("write_amp", "ratio", "lower", EXACT, STORES),
    Metric("space_amp", "ratio", "lower", EXACT, STORES),
    Metric("reopen_s", "s", "lower", 0.25, ("persistent_mixed",)),
    Metric("disk_bytes_per_entry", "B", "lower", EXACT, ("persistent_mixed",)),
    Metric("tune_ms_p50", "ms", "lower", 0.25, ("tune_sweep",)),
    Metric("kvector_tune_s", "s", "lower", 0.25, ("tune_sweep",)),
    # The traced call itself.
    *_layer(
        "trace.",
        tuple(WORKLOADS),
        ("call_s", "s", "lower"),
        ("overhead", "ratio", "lower"),
        ("unattributed_share", "ratio", "lower"),
        ("machine_speed", "ratio", "higher"),
    ),
    *_layer(
        "workloads.",
        STORES,
        ("trace_gen_s", "s", "lower"),
        ("trace_gen_ops_per_s", "ops/s", "higher"),
        ("trace_gen_share", "ratio", "lower"),
        ("trace_ops_generated", "count", "lower"),
        ("keyspace_build_s", "s", "lower"),
        ("session_gen_s", "s", "lower"),
    ),
    *_layer(
        "storage.",
        ENGINE,
        ("replay_s", "s", "lower"),
        ("replay_ops_per_s", "ops/s", "higher"),
        ("executor_overhead_s", "s", "lower"),
        ("get_hit_us", "us", "lower"),
        ("get_miss_us", "us", "lower"),
        ("put_us", "us", "lower"),
        ("flush_ms", "ms", "lower"),
        ("range_short_us", "us", "lower"),
        ("range_long_us", "us", "lower"),
        ("pages_per_get_hit", "pages/op", "lower"),
        ("pages_per_get_miss", "pages/op", "lower"),
        ("session_ms_p50", "ms", "lower"),
        ("session_ms_p90", "ms", "lower"),
        ("session_ms_max", "ms", "lower"),
    ),
    *_layer("storage.", SIMULATED, ("bulk_load_s", "s", "lower")),
    *_layer(
        "storage.",
        STORES,
        ("query_pages_per_op", "pages/op", "lower"),
        ("flush_pages_per_op", "pages/op", "lower"),
        ("compaction_pages_per_op", "pages/op", "lower"),
        ("levels", "count", "lower"),
        ("runs_total", "count", "lower"),
        ("filter_bits_per_entry", "bits", "lower"),
    ),
    *_layer(
        "persistent.",
        ("persistent_mixed",),
        ("bulk_load_s", "s", "lower"),
        ("replay_s", "s", "lower"),
        ("get_hit_us", "us", "lower"),
        ("get_miss_us", "us", "lower"),
        ("put_us", "us", "lower"),
        ("flush_ms", "ms", "lower"),
        ("range_short_us", "us", "lower"),
        ("range_long_us", "us", "lower"),
        ("pages_per_get_hit", "pages/op", "lower"),
        ("pages_per_get_miss", "pages/op", "lower"),
        ("wchar_per_user_byte", "ratio", "lower"),
        ("syscw_per_put", "ratio", "lower"),
        ("rchar_per_get", "B", "lower"),
        ("fsyncs_per_put", "ratio", "lower"),
        ("wal_records_replayed", "count", "lower"),
        ("files", "count", "lower"),
        ("descriptors_leaked", "count", "lower"),
        ("counter_parity", "count", "higher"),
    ),
    *_layer(
        "lsm.",
        ("tune_sweep",),
        ("cost_scalar_evals_per_s", "1/s", "higher"),
        ("cost_matrix_rows_per_s", "1/s", "higher"),
    ),
    *_layer(
        "core.",
        ("tune_sweep",),
        ("nominal_ms_p50", "ms", "lower"),
        ("robust_ms_p50", "ms", "lower"),
        ("robust_ms_max", "ms", "lower"),
        ("grid_ms", "ms", "lower"),
        ("objective_gap_max", "ratio", "lower"),
        ("cells_failed", "count", "lower"),
    ),
    *_layer(
        "online.",
        ("online_drift",),
        ("execute_s", "s", "lower"),
        ("ops_per_s", "ops/s", "higher"),
        ("observe_overhead_us_per_op", "us", "lower"),
        ("retune_call_ms_max", "ms", "lower"),
        ("finish_migration_s", "s", "lower"),
        ("drift_events", "count", "lower"),
        ("migrations", "count", "lower"),
        ("migration_pages_per_op", "pages/op", "lower"),
        ("detect_delay_ops", "count", "lower"),
    ),
    *_layer(
        "serving.",
        ("sharded_serving",),
        ("partition_s", "s", "lower"),
        ("route_s", "s", "lower"),
        ("route_ops_per_s", "ops/s", "higher"),
        ("replay_s", "s", "lower"),
        ("critical_path_s", "s", "lower"),
        ("overhead_share", "ratio", "lower"),
        ("trace_regen_factor", "ratio", "lower"),
        ("range_fanout_factor", "ratio", "lower"),
        ("shard_imbalance", "ratio", "lower"),
    ),
    # In-process ``repro.cli.main`` at the CI smoke sizes, each timed in the
    # traced run of the workload whose top-level call it wraps.
    Metric("cli.import_s", "s", "lower"),
    Metric("cli.tune_s", "s", "lower", workloads=("tune_sweep",)),
    Metric("cli.compare_s", "s", "lower", workloads=("sharded_serving",)),
    Metric("cli.online_s", "s", "lower", workloads=("online_drift",)),
)

ALL_METRICS: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The content of ``BENCHMARK.json`` at the root of the repository."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.driver_bound or m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
