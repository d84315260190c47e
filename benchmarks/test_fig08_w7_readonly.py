"""Figure 8 — read-only sequence for w7 with ρ matching the observed divergence."""

from _system_figures import run_system_figure


def test_fig08_w7_read_only_sequence(benchmark, system_experiment, report):
    comparison = run_system_figure(
        benchmark,
        system_experiment,
        report,
        name="fig08_w7_readonly",
        expected_index=7,
        rho=2.0,
        include_writes=False,
    )
    # w7 expects half point reads / half writes, so its nominal tuning leans
    # on tiering; under a read-only observed sequence the robust leveling
    # tuning should be predicted cheaper by the model on range queries.
    first_range = comparison.labels.index("range")
    model = comparison.model_ios
    assert model["robust"][first_range] <= model["nominal"][first_range]
