"""Shared driver for the system-experiment figures (Figures 8–18).

Each of those figures has the same structure: pick an expected workload and a
value of ρ, compute the nominal and robust tunings, execute the six-session
query sequence on the storage engine under both, and report the model I/Os,
measured I/Os and latency per session.  This module implements that driver
once; the per-figure benchmark files parameterise it.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import Comparison, format_comparison
from repro.workloads import expected_workload


def run_system_figure(
    benchmark,
    system_experiment,
    report,
    name: str,
    expected_index: int,
    rho: float,
    include_writes: bool = True,
    expect_robust_wins_overall: bool | None = None,
) -> Comparison:
    """Run one Figure 8–18 style experiment and record its report.

    Parameters
    ----------
    benchmark, system_experiment, report:
        The pytest-benchmark fixture and the shared session fixtures.
    name:
        Report file name (e.g. ``"fig11_w11_writes"``).
    expected_index:
        Index of the expected workload in Table 2.
    rho:
        Uncertainty radius used for the robust tuning (the paper sets it to
        the KL divergence it expects the observed sessions to exhibit).
    include_writes:
        Whether the sequence contains a write-dominated session (Figures
        10–18) or is read-only (Figures 8–9).
    expect_robust_wins_overall:
        If not ``None``, assert that the robust tuning does (or does not)
        reduce total measured I/O over the whole sequence.
    """
    expected = expected_workload(expected_index)

    comparison = run_once(
        benchmark,
        lambda: system_experiment.run(
            expected.workload, rho=rho, include_writes=include_writes
        ),
    )
    assert len(comparison.labels) == 6

    # Sanity: every session produced finite, non-negative measurements under
    # both tunings.
    for tuning_name in ("nominal", "robust"):
        assert all(0.0 <= ios < 1e5 for ios in comparison.system_ios(tuning_name))
        assert all(0.0 <= us < 1e8 for us in comparison.latency_us(tuning_name))

    # Record whether the model-predicted ordering of the two tunings matches
    # the measured one over the whole sequence.  The paper itself reports
    # discrepancies for several workloads (fence pointers on short range
    # queries in Figure 8, tree-structure changes after the write session for
    # w9/w10 in §8.3), so this is reported rather than asserted; hard
    # assertions live in the per-figure files where the paper's claim is
    # unambiguous (e.g. Figure 11).
    model_nominal = sum(comparison.model_ios["nominal"])
    model_robust = sum(comparison.model_ios["robust"])
    system_nominal = sum(comparison.system_ios("nominal"))
    system_robust = sum(comparison.system_ios("robust"))
    orderings_agree = (model_robust < model_nominal) == (system_robust < system_nominal)

    if expect_robust_wins_overall is not None:
        robust_wins = comparison.summary["io_reduction"] > 0.0
        assert robust_wins == expect_robust_wins_overall

    header = f"{name}: expected workload {expected.name} {expected.workload.describe()}"
    text = (
        header
        + "\n"
        + format_comparison(comparison)
        + f"\n  model/system ordering agree: {orderings_agree}"
    )
    report(name, text)
    print("\n" + text)
    return comparison
