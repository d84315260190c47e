"""Figure 12 — uniform expected workload w0: nominal and robust nearly coincide."""

from _system_figures import run_system_figure


def test_fig12_uniform_workload(benchmark, system_experiment, report):
    comparison = run_system_figure(
        benchmark,
        system_experiment,
        report,
        name="fig12_uniform",
        expected_index=0,
        rho=0.01,
        include_writes=True,
    )
    nominal = comparison.tunings["nominal"]
    robust = comparison.tunings["robust"]
    # With the uniform workload and essentially no uncertainty the two
    # tunings produce similar designs and similar performance.
    assert nominal.policy == robust.policy
    assert abs(nominal.size_ratio - robust.size_ratio) <= 2.0
    assert abs(comparison.summary["io_reduction"]) < 0.5
