"""Macro-benchmark — the replay loop against the scalar reference.

The simulator's hot path is trace replay.  The one loop
(``execute_operations_batched``) routes the run side of the reads between two
flushes through the batched read stack (``might_contain_many`` →
``lookup_many`` → ``probe_runs_many`` for point reads, ``locate_many`` →
``count_runs_many`` for ranges), whose contract is *bit identity*: the virtual
disk must record exactly the counters a row-by-row replay through
``execute_operation`` records.

This benchmark replays a million-op read-heavy endurance trace and a mixed
read/write trace both ways, asserts the I/O counters match byte for byte,
and pins the counters.  How fast either path runs is measured by ``bench/``
(``point_read`` and ``write_ingest``), not here.
"""

from conftest import run_once

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.storage import LSMTree
from repro.storage.lsm_tree import execute_operation, execute_operations_batched
from repro.workloads import KeySpace, TraceGenerator, Workload

#: (label, workload, operations) rows replayed by the benchmark.  The first
#: row is the headline: an endurance-style read phase (98% point reads, the
#: stream an online tuner idles through between drift events) at 1M ops.
TRACES = (
    ("read-heavy", Workload(z0=0.30, z1=0.68, q=0.01, w=0.01), 1_000_000),
    ("mixed", Workload(z0=0.20, z1=0.30, q=0.20, w=0.30), 200_000),
)


def _fresh_tree(system, space) -> LSMTree:
    tuning = LSMTuning(size_ratio=6.0, bits_per_entry=8.0, policy=Policy.LEVELING)
    tree = LSMTree(tuning, system, seed=7)
    tree.bulk_load(space.existing)
    tree.disk.reset()
    return tree


def _replay_both_ways() -> list[dict[str, object]]:
    system = simulator_system(num_entries=20_000)
    space = KeySpace.build(system.num_entries, seed=29)
    generator = TraceGenerator(space, seed=29)
    rows: list[dict[str, object]] = []
    for label, workload, num_ops in TRACES:
        trace = generator.operations(workload, num_ops)
        scalar_tree = _fresh_tree(system, space)
        for operation in trace:
            execute_operation(scalar_tree, operation)
        batched_tree = _fresh_tree(system, space)
        execute_operations_batched(batched_tree, trace)
        # The contract: batching changes wall-clock, never the measurement.
        assert batched_tree.disk.counters == scalar_tree.disk.counters
        assert batched_tree.stats() == scalar_tree.stats()
        rows.append({"trace": label, "ops": num_ops, "counters": scalar_tree.disk.counters})
    return rows


def test_vectorized_execute_io_parity(benchmark, report):
    rows = run_once(benchmark, _replay_both_ways)

    lines = [
        f"{'trace':<12}{'ops':>10}{'query_reads':>13}{'query_writes':>14}"
        f"{'flush_writes':>14}{'compaction_reads':>18}{'compaction_writes':>19}"
    ]
    for row in rows:
        c = row["counters"]
        lines.append(
            f"{row['trace']:<12}{row['ops']:>10}{c.query_reads:>13}"
            f"{c.query_writes:>14}{c.flush_writes:>14}{c.compaction_reads:>18}"
            f"{c.compaction_writes:>19}"
        )
    lines.append("io parity: batched == scalar, counter for counter")
    text = "\n".join(lines)
    report("vectorized_execute", text)
    print("\n" + text)
