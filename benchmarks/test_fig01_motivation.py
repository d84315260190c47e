"""Figure 1 — motivating example: expected tuning vs per-session perfect tuning.

A database tuned for a point-read-heavy workload experiences a session whose
reads shift to short range queries.  The paper shows the average I/Os per
query roughly doubling during the shifted session, while a perfectly re-tuned
system would not degrade.
"""

from conftest import run_once

from repro.core import NominalTuner
from repro.workloads import Workload


def test_fig01_motivating_example(benchmark, system_experiment, report):
    expected = Workload(z0=0.20, z1=0.20, q=0.06, w=0.54)
    shifted = Workload(z0=0.02, z1=0.02, q=0.41, w=0.55)

    comparison = run_once(
        benchmark,
        lambda: system_experiment.run_motivation(expected, shifted, rho=1.0),
    )
    assert len(comparison.labels) == 3

    # Per-session "perfect" tunings for the second line of the figure.
    tuner = NominalTuner(system=system_experiment.system)
    perfect = {
        "expected workload": tuner.tune(expected).tuning,
        "uncertain workload": tuner.tune(shifted).tuning,
    }
    model = system_experiment.cost_model

    lines = [
        "Figure 1: expected tuning vs per-session perfect tuning (model I/Os per query)",
        f"{'session':<22}{'expected tuning':<18}{'perfect tuning':<18}",
    ]
    expected_tuning_degrades = []
    for label, observed, expected_cost in zip(
        comparison.labels, comparison.observed_workloads, comparison.model_ios["nominal"]
    ):
        perfect_cost = model.workload_cost(observed, perfect[label])
        expected_tuning_degrades.append(expected_cost)
        lines.append(f"{label:<22}{expected_cost:<18.2f}{perfect_cost:<18.2f}")

    # Paper shape: the shifted middle session costs the statically tuned
    # system noticeably more than the surrounding expected sessions.
    assert expected_tuning_degrades[1] > expected_tuning_degrades[0]
    assert expected_tuning_degrades[1] > expected_tuning_degrades[2]

    text = "\n".join(lines)
    report("fig01_motivation", text)
    print("\n" + text)
