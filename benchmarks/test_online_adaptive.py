"""Online adaptive tuning over a drifting sequence — the online analogue of
the Figure 8–18 system experiments.

A read-heavy expected workload (w11) drifts into a sustained write-heavy
phase.  The static nominal tuning keeps paying the write amplification of
its read-optimised configuration; the adaptive executor detects the drift,
re-tunes on the observed stream, migrates the live tree — with every
migrated page charged to its measured I/O — and settles at the tuning a
hindsight operator would have deployed for the write phase.

Pinned claims (the ISSUE-2 acceptance criteria):

* adaptive beats the static nominal tuning on measured I/Os per query, with
  migration I/O included in the accounting, and
* once converged, the adaptive executor is within noise of the best
  per-phase static tuning.
"""

from conftest import run_once

from repro.analysis import AdaptiveExperiment, format_adaptive_comparison
from repro.workloads import expected_workload

#: Expected workload of the static tunings (w11: read-heavy trimodal).
EXPECTED_INDEX = 11

#: Radius of the static robust baseline.
RHO = 0.5

#: Converged sessions may exceed the per-phase oracle by at most this factor
#: (simulator noise between identically shaped runs is ~20-30%).
CONVERGED_NOISE_FACTOR = 1.5


def test_adaptive_beats_static_nominal_under_drift(benchmark, report):
    experiment = AdaptiveExperiment(seed=29)
    comparison = run_once(
        benchmark,
        lambda: experiment.run(expected_workload(EXPECTED_INDEX).workload, rho=RHO),
    )
    summary = comparison.summary
    adaptive = comparison.measurements["adaptive"]

    # The drift was detected and at least one migration was applied, and its
    # pages were charged to the measured stream.
    assert adaptive.num_migrations >= 1
    assert adaptive.migration_pages > 0

    # Adaptive beats the static nominal tuning outright (migration included).
    assert (
        summary["adaptive_mean_io_per_query"] < summary["nominal_mean_io_per_query"]
    ), "adaptive executor should beat the static nominal tuning under drift"

    # After convergence the adaptive executor tracks the hindsight per-phase
    # static tuning to within simulator noise.
    assert summary["adaptive_vs_oracle_converged"] <= CONVERGED_NOISE_FACTOR, (
        f"converged adaptive sessions are "
        f"{summary['adaptive_vs_oracle_converged']:.2f}x the per-phase oracle"
    )

    text = format_adaptive_comparison(comparison)
    report("online_adaptive", text)
    print("\n" + text)
