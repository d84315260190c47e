"""Figure 9 — read-only sequence for w11 where the observed workload stays close."""

from _system_figures import run_system_figure


def test_fig09_w11_read_only_sequence(benchmark, system_experiment, report):
    comparison = run_system_figure(
        benchmark,
        system_experiment,
        report,
        name="fig09_w11_readonly",
        expected_index=11,
        rho=0.25,
        include_writes=False,
    )
    # Read-only sessions keep the tree shape fixed, so per-session measured
    # I/Os should stay modest for both tunings (no compaction storms).
    assert max(comparison.system_ios("nominal")) < 50
    assert max(comparison.system_ios("robust")) < 50
