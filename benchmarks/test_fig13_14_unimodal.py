"""Figures 13–14 — system sequences for the unimodal workloads w1–w4."""

import pytest

from _system_figures import run_system_figure

#: (figure name, Table 2 index, rho).  The paper matches rho to the observed
#: divergence of the executed sessions (1.5–1.8 for the unimodal workloads).
_CASES = [
    ("fig13_w1_unimodal", 1, 1.5),
    ("fig13_w2_unimodal", 2, 1.5),
    ("fig14_w3_unimodal", 3, 1.75),
    ("fig14_w4_unimodal", 4, 1.75),
]


@pytest.mark.parametrize("name,index,rho", _CASES)
def test_fig13_14_unimodal_workloads(benchmark, system_experiment, report, name, index, rho):
    comparison = run_system_figure(
        benchmark,
        system_experiment,
        report,
        name=name,
        expected_index=index,
        rho=rho,
        include_writes=True,
    )
    # Unimodal expected workloads produce strongly specialised nominal
    # tunings, so the *model* must predict that the robust tuning protects
    # the worst session of the shifted sequence.  (Measured session costs can
    # be lumpy because a single deep compaction lands in one session — the
    # paper makes the same observation for w3/w4 in §8.3.)
    worst_nominal = max(comparison.model_ios["nominal"])
    worst_robust = max(comparison.model_ios["robust"])
    assert worst_robust <= worst_nominal * 1.05
