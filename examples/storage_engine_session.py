#!/usr/bin/env python3
"""Deploy tunings on the simulated storage engine (a miniature Section 8).

Builds two instances of the pure-Python LSM-tree engine — one with the
nominal tuning, one with the robust tuning — bulk-loads the same data into
both, replays a paper-style sequence of workload sessions (reads, range
scans, empty reads, writes, …) and reports the model-predicted and measured
I/Os per query, like the I/O panels of Figures 8–18.

Run with::

    python examples/storage_engine_session.py
"""

from __future__ import annotations

from repro.analysis import Experiment, format_comparison
from repro.lsm import simulator_system
from repro.storage import ExecutorConfig
from repro.workloads import UncertaintyBenchmark, expected_workload


def main() -> None:
    # A laptop-scale database: 20k entries of 1 KiB (the paper uses 10M on a
    # server); the per-entry memory budget matches the paper's setup so the
    # resulting tunings have the same shape.
    experiment = Experiment(
        system=simulator_system(num_entries=20_000),
        executor_config=ExecutorConfig(queries_per_workload=1_000, seed=3),
        benchmark=UncertaintyBenchmark(size=500, seed=3),
        seed=3,
    )

    # Expected workload w11 (33% empty reads, 33% reads, 33% ranges, 1% writes)
    # with the uncertainty radius the paper uses for Figure 11.
    expected = expected_workload(11)
    print(f"Expected workload {expected.name}: {expected.workload.describe()}\n")

    comparison = experiment.run(expected.workload, rho=0.25, include_writes=True)
    print(format_comparison(comparison))

    summary = comparison.summary
    print(
        "\nOver the whole sequence the robust tuning reduces measured I/O by "
        f"{100 * summary['io_reduction']:.0f}% relative to the nominal tuning."
    )


if __name__ == "__main__":
    main()
