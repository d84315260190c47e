"""Tests for the system-based evaluation drivers (Figures 1 and 8-18)."""

import pytest

from repro.analysis import SystemExperiment, format_comparison
from repro.lsm import simulator_system
from repro.storage import ExecutorConfig
from repro.workloads import SessionGenerator, UncertaintyBenchmark, Workload, expected_workload


@pytest.fixture(scope="module")
def experiment():
    return SystemExperiment(
        system=simulator_system(num_entries=6_000),
        executor_config=ExecutorConfig(queries_per_workload=300, seed=5),
        benchmark=UncertaintyBenchmark(size=200, seed=5),
        seed=5,
    )


@pytest.fixture(scope="module")
def w11_comparison(experiment):
    return experiment.run(expected_workload(11).workload, rho=1.0, include_writes=True,
                          workloads_per_session=1)


class TestSystemExperiment:
    def test_tunings_are_deployable(self, experiment):
        tunings = experiment.tunings_for(expected_workload(11).workload, rho=1.0)
        assert set(tunings) == {"nominal", "robust"}
        for tuning in tunings.values():
            assert float(tuning.size_ratio).is_integer()

    def test_comparison_has_six_sessions(self, w11_comparison):
        assert len(w11_comparison.labels) == 6

    def test_each_session_reports_model_and_system_numbers(self, w11_comparison):
        assert set(w11_comparison.model_ios) == {"nominal", "robust"}
        assert set(w11_comparison.measurements) == {"nominal", "robust"}
        for name in ("nominal", "robust"):
            assert len(w11_comparison.model_ios[name]) == 6
            assert len(w11_comparison.system_ios(name)) == 6
            assert all(v >= 0 for v in w11_comparison.system_ios(name))

    def test_model_predicts_robust_wins_write_session(self, w11_comparison):
        """Figure 11's mechanism: w11's nominal tuning has a huge size ratio,
        so the model predicts it loses badly once writes appear."""
        write = w11_comparison.labels.index("write")
        model = w11_comparison.model_ios
        assert model["robust"][write] < model["nominal"][write]

    def test_system_confirms_robust_wins_write_session(self, w11_comparison):
        write = w11_comparison.labels.index("write")
        system = w11_comparison.system_ios
        assert system("robust")[write] < system("nominal")[write]

    def test_summary_reports_reductions(self, w11_comparison):
        summary = w11_comparison.summary
        assert "io_reduction" in summary
        assert summary["io_reduction"] > 0.0  # robust reduces total I/O for w11

    def test_observed_divergence_recorded(self, w11_comparison):
        assert w11_comparison.observed_divergence >= 0.0

    def test_format_comparison_mentions_sessions_and_tunings(self, w11_comparison):
        text = format_comparison(w11_comparison)
        assert "write" in text
        assert "nominal" in text and "robust" in text
        assert "I/O reduction" in text


class TestMotivationExperiment:
    def test_figure1_shift_degrades_expected_tuning(self, experiment):
        """Figure 1: the range-heavy shift degrades the tuning that expected
        mostly point reads, and the session returns to normal afterwards."""
        expected = Workload(0.20, 0.20, 0.06, 0.54)
        shifted = Workload(0.02, 0.02, 0.41, 0.55)
        sequence = SessionGenerator(experiment.benchmark, seed=experiment.seed).motivation_sequence(
            expected, shifted, workloads_per_session=1
        )
        deployed = experiment.tunings_for(expected, 1.0)["nominal"]
        nominal_io = [
            experiment.cost_model.workload_cost(session.average, deployed) for session in sequence
        ]
        assert len(nominal_io) == 3
        # The middle (shifted) session is the expensive one for the expected tuning.
        assert nominal_io[1] > nominal_io[0]
        assert nominal_io[1] > nominal_io[2]


class TestUniformWorkload:
    def test_figure12_nominal_and_robust_are_similar(self, experiment):
        """Figure 12: with the uniform workload and tiny rho the two tunings
        nearly coincide, and so does their performance."""
        comparison = experiment.run(
            expected_workload(0).workload, rho=0.01, workloads_per_session=1
        )
        nominal = comparison.tunings["nominal"]
        robust = comparison.tunings["robust"]
        assert nominal.policy == robust.policy
        assert abs(nominal.size_ratio - robust.size_ratio) <= 2.0
        summary = comparison.summary
        assert abs(summary["io_reduction"]) < 0.5
