"""Macro-benchmark — the shard-per-worker serving layer.

Two sections, one table (``results/sharded_serving.txt``):

* **Shard scaling** — the million-op read-heavy endurance trace (the same
  recipe the vectorised-execute benchmark pins) is served at 1, 2 and 4
  shards.  Each shard replays its hash-partitioned slice of the stream
  (``shard_operations``) through the replay loop on a tree holding its
  partition of the keys; the table pins the per-shard operation counts and
  the fleet's merged page counters.  What sharding buys in time — each shard
  probes a tree a fraction of the size — is measured by ``bench/``
  (``sharded_serving``: ``serving.critical_path_s``), not here.

* **Admission pacing** — an adaptive run over a bursty drift sequence
  (calm read sessions alternating with write-burst sessions that trigger
  incremental re-tuning migrations).  Under the classic fixed cadence the
  plan's page traffic lands inside whatever session is being served;
  under ``queue-depth`` admission steps defer until the backlog drains
  and drain in the inter-session lulls (``note_idle``), so the paced run
  is pinned to a strictly lower worst-session I/O cost per query — even
  in configurations where deferral lets *more* total migration work
  happen.  Both runs are deterministic: every row here is drift-checked.
"""

from conftest import run_once

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import OnlineConfig
from repro.serving import partition_keys, shard_operations
from repro.storage import ExecutorConfig, LSMTree, WorkloadExecutor
from repro.storage.lsm_tree import execute_operations_batched
from repro.workloads import (
    KeySpace,
    Session,
    SessionSequence,
    SessionType,
    TraceGenerator,
    Workload,
)

#: The endurance trace of the vectorised-execute benchmark: a million ops,
#: 98% point reads, over a 20k-entry leveled tree.
SERVING_OPS = 1_000_000
SERVING_WORKLOAD = Workload(z0=0.30, z1=0.68, q=0.01, w=0.01)
SHARD_COUNTS = (1, 2, 4)

TUNING = LSMTuning(size_ratio=6.0, bits_per_entry=8.0, policy=Policy.LEVELING)

#: Admission section: calm read sessions alternating with write bursts that
#: drive the online controller into incremental migrations.
EXPECTED = Workload(z0=0.45, z1=0.45, q=0.05, w=0.05)
BURST = Workload(z0=0.05, z1=0.05, q=0.0, w=0.90)
QUERIES_PER_SESSION = 2_000


def _system():
    return simulator_system(num_entries=20_000)


def _fresh_tree(system, keys) -> LSMTree:
    tree = LSMTree(TUNING, system, seed=7)
    tree.bulk_load(keys)
    tree.disk.reset()
    return tree


def _shard_scaling() -> list[dict[str, object]]:
    system = _system()
    space = KeySpace.build(system.num_entries, seed=29)
    operations = TraceGenerator(space, seed=29).operations(
        SERVING_WORKLOAD, SERVING_OPS
    )
    rows = []
    for num_shards in SHARD_COUNTS:
        parts = partition_keys(space.existing, num_shards)
        streams = [
            shard_operations(operations, shard, num_shards)
            for shard in range(num_shards)
        ]
        trees = [_fresh_tree(system, part) for part in parts]
        for tree, stream in zip(trees, streams):
            execute_operations_batched(tree, stream)
        merged = {
            field: sum(getattr(tree.disk.counters, field) for tree in trees)
            for field in (
                "query_reads", "query_writes", "flush_writes",
                "compaction_reads", "compaction_writes",
            )
        }
        rows.append(
            {
                "num_shards": num_shards,
                "merged": merged,
                "ops_per_shard": [len(stream) for stream in streams],
            }
        )
    return rows


def _admission_run(admission: str):
    calm = Session(SessionType.EXPECTED, "calm", (EXPECTED,))
    burst = Session(SessionType.WRITE, "burst", (BURST,))
    sequence = SessionSequence(
        expected=EXPECTED, sessions=(calm, burst, calm, burst, calm)
    )
    online = OnlineConfig(
        window=600, check_interval=64, min_observations=256, cooldown=4_000,
        confirm_checks=2, mode="nominal", horizon_ops=200_000,
        migration="incremental", migration_step_ops=32,
        migration_step_pages=8, admission=admission,
        admission_max_backlog=0, admission_starvation_ops=100_000,
        admission_idle_steps=1_000,
    )
    executor = WorkloadExecutor(
        _system(), ExecutorConfig(queries_per_workload=QUERIES_PER_SESSION, seed=29)
    )
    return executor.run_sequence_adaptive(TUNING, sequence, online=online)


def _run_benchmark():
    scaling = _shard_scaling()
    admission = {mode: _admission_run(mode) for mode in ("fixed", "queue-depth")}
    return scaling, admission


def test_sharded_serving(benchmark, report):
    rows, admission = run_once(benchmark, _run_benchmark)

    # Admission pacing must strictly improve the worst session, and the
    # per-session io/q rows are fully deterministic (drift-checked).
    worst = {
        mode: max(s.ios_per_query for s in m.sessions)
        for mode, m in admission.items()
    }
    assert worst["queue-depth"] < worst["fixed"], (
        f"queue-depth admission did not beat the fixed cadence on "
        f"worst-session io/q: {worst['queue-depth']:.4f} vs {worst['fixed']:.4f}"
    )

    lines = [
        f"sharded serving — {SERVING_OPS} ops, read-heavy "
        f"(z0={SERVING_WORKLOAD.z0} z1={SERVING_WORKLOAD.z1} "
        f"q={SERVING_WORKLOAD.q} w={SERVING_WORKLOAD.w}), "
        f"20k entries, leveling T=6 h=8",
        f"{'shards':>6}{'ops/shard':>30}{'query_reads':>13}{'query_writes':>14}"
        f"{'flush_writes':>14}{'compaction_reads':>18}{'compaction_writes':>19}",
    ]
    for row in rows:
        m = row["merged"]
        per_shard = "/".join(str(n) for n in row["ops_per_shard"])
        lines.append(
            f"{row['num_shards']:>6}{per_shard:>30}{m['query_reads']:>13}"
            f"{m['query_writes']:>14}{m['flush_writes']:>14}"
            f"{m['compaction_reads']:>18}{m['compaction_writes']:>19}"
        )
    # True by construction: one loop replays both, and a one-shard mask keeps
    # every row (tests/serving pins ``num_shards=1`` against the unsharded
    # executor).  The line stays so the drift-checked table does not move.
    lines.append(
        "single-shard parity: counters, stats and tree fingerprint identical "
        "to the classic batched executor replay"
    )
    lines.append(
        f"admission pacing — 5 sessions x {QUERIES_PER_SESSION} queries "
        "(calm/burst alternating), incremental migration step_ops=32 "
        "step_pages=8, queue-depth max_backlog=0"
    )
    for mode, measurement in admission.items():
        ios = " ".join(f"{s.ios_per_query:.4f}" for s in measurement.sessions)
        lines.append(
            f"admission={mode:<12} session io/q: {ios}  worst={worst[mode]:.4f}  "
            f"migrations={measurement.num_migrations} "
            f"pages={measurement.migration_pages}"
        )
    lines.append(
        f"admission win: queue-depth worst {worst['queue-depth']:.4f} < "
        f"fixed worst {worst['fixed']:.4f}"
    )
    text = "\n".join(lines)
    report("sharded_serving", text)
    print("\n" + text)
