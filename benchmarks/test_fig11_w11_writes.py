"""Figure 11 — w11 sequence with writes: the paper's headline system result."""

from _system_figures import run_system_figure


def test_fig11_w11_sequence_with_writes(benchmark, system_experiment, report):
    comparison = run_system_figure(
        benchmark,
        system_experiment,
        report,
        name="fig11_w11_writes",
        expected_index=11,
        rho=0.25,
        include_writes=True,
        expect_robust_wins_overall=True,
    )
    # The nominal tuning for w11 uses a very large size ratio; once the write
    # session arrives its compactions become much more expensive than the
    # robust tuning's (the paper reports up to 90% I/O and latency reduction).
    write = comparison.labels.index("write")
    assert comparison.system_ios("robust")[write] < comparison.system_ios("nominal")[write]
    assert comparison.latency_us("robust")[write] < comparison.latency_us("nominal")[write]
