"""Macro-benchmark — the tree on real files against the cost model.

A ``FileStore`` puts real files behind the one ``LSMTree``: every write goes
through a write-ahead log, flushes materialise SSTables (one file each:
records, then fences and Bloom filter in a footer), and compactions rewrite
files on disk.  The tree itself is the
simulated one — same runs, same Bloom seeds, same ``VirtualDisk`` page
counters — so what this table pins is what the engine *moved* on files,
lsmtreedb ``simple_bench`` style:

* **simple_bench** — fillrandom (N puts from empty) then readrandom
  (N gets), with compaction on and off: the page counters and run counts of
  both variants.
* **model vs measured** — a read-tuned and a write-tuned deployment each
  replay a read-heavy and a write-heavy trace.  The analytical cost model
  (Endure Eqs. 12–16) must rank the two tunings the way the pages they
  moved do, priced by ``VirtualDisk.latency_us``, on both workloads:
  reproducing the paper's premise that the model's I/O costs track the
  system's.

Every line is deterministic.  How long the files take is ``bench/``'s
business (the ``persistent_mixed`` workload), not Tier-1's.
"""

import tempfile

import numpy as np
from conftest import run_once

from repro.lsm import LSMCostModel, LSMTuning, Policy, simulator_system
from repro.storage import PersistentLSMTree
from repro.storage.lsm_tree import execute_operation
from repro.workloads import KeySpace, TraceGenerator, Workload

#: Operations per simple_bench phase and per ranking trace.
SIMPLE_BENCH_OPS = 5_000
RANKING_OPS = 20_000

#: The two deployments the model must rank.  The read-tuned tree spends
#: memory on Bloom filters and merges eagerly; the write-tuned tree stacks
#: runs with near-useless filters, trading read I/O for cheap writes.
TUNINGS = (
    ("read-tuned", LSMTuning(6.0, 10.0, Policy.LEVELING)),
    ("write-tuned", LSMTuning(8.0, 1.0, Policy.TIERING)),
)

WORKLOADS = (
    ("read-heavy", Workload(z0=0.30, z1=0.55, q=0.11, w=0.04)),
    ("write-heavy", Workload(z0=0.05, z1=0.15, q=0.05, w=0.75)),
)

#: Middle-of-the-road deployment for the simple_bench phases.
BENCH_TUNING = LSMTuning(6.0, 8.0, Policy.LEVELING)


def _fresh_tree(system, tuning, compaction_enabled=True) -> PersistentLSMTree:
    data_dir = tempfile.mkdtemp(prefix="bench-tree-")
    tree = PersistentLSMTree(tuning, system, data_dir=data_dir, seed=7)
    tree.compaction_enabled = compaction_enabled
    return tree


def _simple_bench(system) -> list[dict[str, object]]:
    """fillrandom then readrandom on an initially empty tree, both
    compaction modes; returns per-mode counters and run counts."""
    rng = np.random.default_rng(17)
    fill_keys = rng.choice(
        np.arange(4 * system.num_entries), size=SIMPLE_BENCH_OPS, replace=False
    )
    read_keys = rng.choice(fill_keys, size=SIMPLE_BENCH_OPS, replace=True)
    rows = []
    for compaction in (True, False):
        tree = _fresh_tree(system, BENCH_TUNING, compaction_enabled=compaction)
        try:
            for key in fill_keys.tolist():
                tree.put(key)
            for key in read_keys.tolist():
                tree.get(key)
            rows.append(
                {
                    "compaction": compaction,
                    "counters": tree.disk.counters.snapshot(),
                    "num_runs": sum(len(runs) for runs in tree.levels),
                }
            )
        finally:
            tree.destroy()
    return rows


def _ranking(system) -> dict[str, object]:
    """Replay each workload trace on each deployment; model + pages moved."""
    space = KeySpace.build(system.num_entries, seed=29)
    trace = TraceGenerator(space, seed=29)
    model = LSMCostModel(system)
    traces = {
        label: trace.operations(workload, RANKING_OPS)
        for label, workload in WORKLOADS
    }
    cells: dict[tuple[str, str], dict[str, object]] = {}
    for tuning_label, tuning in TUNINGS:
        for workload_label, workload in WORKLOADS:
            tree = _fresh_tree(system, tuning)
            try:
                tree.bulk_load(space.existing)
                tree.disk.reset()
                for operation in traces[workload_label]:
                    execute_operation(tree, operation)
                cells[tuning_label, workload_label] = {
                    "model_cost": float(
                        workload.as_array() @ model.cost_vector(tuning)
                    ),
                    "counters": tree.disk.counters.snapshot(),
                    "latency_us": tree.disk.latency_us(),
                }
            finally:
                tree.destroy()
    return cells


def _winner(cells, workload_label, field):
    read = cells["read-tuned", workload_label][field]
    write = cells["write-tuned", workload_label][field]
    return "read-tuned" if read < write else "write-tuned"


def _run_benchmark() -> tuple[list, dict]:
    system = simulator_system(num_entries=20_000)
    return _simple_bench(system), _ranking(system)


def test_persistent_backend_model_vs_measured(benchmark, report):
    bench_rows, cells = run_once(benchmark, _run_benchmark)

    # The model's verdicts are analytic; the measured ones price the pages
    # each deployment moved on the trace.
    for workload_label, _ in WORKLOADS:
        assert _winner(cells, workload_label, "model_cost") == _winner(
            cells, workload_label, "latency_us"
        ), f"cost model and counted pages disagree on the {workload_label} workload"
    # Compaction-off must actually skip compaction I/O.
    off = next(r for r in bench_rows if not r["compaction"])
    assert off["counters"].compaction_writes == 0

    lines = [
        "persistent SSTable backend — simple_bench + model-vs-measured ranking",
        f"simple_bench: {SIMPLE_BENCH_OPS} fillrandom puts then "
        f"{SIMPLE_BENCH_OPS} readrandom gets, leveling T=6 h=8, WAL buffered",
    ]
    for row in bench_rows:
        c = row["counters"]
        mode = "on " if row["compaction"] else "off"
        lines.append(
            f"compaction={mode} runs={row['num_runs']:>3} "
            f"query_reads={c.query_reads:>7} flush_writes={c.flush_writes:>6} "
            f"compaction_reads={c.compaction_reads:>7} "
            f"compaction_writes={c.compaction_writes:>7}"
        )
    lines.append(
        f"ranking traces: {RANKING_OPS} ops over a bulk-loaded 20k-entry tree; "
        "tunings read-tuned=leveling T=6 h=10, write-tuned=tiering T=8 h=1"
    )
    for workload_label, workload in WORKLOADS:
        parts = []
        for tuning_label, _ in TUNINGS:
            cell = cells[tuning_label, workload_label]
            parts.append(f"{tuning_label}={cell['model_cost']:.3f}")
        lines.append(
            f"model cost/op {workload_label:<11} {' '.join(parts)} "
            f"-> {_winner(cells, workload_label, 'model_cost')} first"
        )
    for tuning_label, _ in TUNINGS:
        for workload_label, _ in WORKLOADS:
            c = cells[tuning_label, workload_label]["counters"]
            lines.append(
                f"counters {tuning_label:<11} {workload_label:<11} "
                f"reads={c.total_reads:>7} writes={c.total_writes:>7}"
            )
    text = "\n".join(lines)
    report("persistent_backend", text)
    print("\n" + text)
