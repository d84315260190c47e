"""Tests for the online adaptive-tuning evaluation: ``Experiment.drift``."""

import pytest

from repro.analysis import Experiment, format_adaptive_comparison
from repro.analysis.comparison import ADAPTIVE, adaptive_vs_static, phase_names
from repro.lsm import simulator_system
from repro.online import OnlineConfig
from repro.storage import ExecutorConfig


@pytest.fixture(scope="module")
def comparison(bench_set, w11):
    experiment = Experiment(
        system=simulator_system(num_entries=4_000),
        executor_config=ExecutorConfig(queries_per_workload=250, seed=13),
        benchmark=bench_set,
        seed=13,
    )
    online = OnlineConfig(
        window=250,
        check_interval=50,
        min_observations=128,
        cooldown=512,
        confirm_checks=3,
        rho=1.0,
        mode="nominal",
        horizon_ops=100_000,
    )
    return experiment.drift(w11, 0.5, {ADAPTIVE: online}, sessions_per_phase=2).claiming(
        adaptive_vs_static
    )


class TestReturningPhase:
    def test_returning_phases_get_distinct_names(self):
        assert phase_names(["read", "write", "read"]) == [
            "phase-read",
            "phase-write",
            "phase-read-2",
        ]

    def test_each_phase_occurrence_keeps_its_own_oracle(self, bench_set, w11):
        """An A→B→A sequence must not collapse the two A phases onto one
        per-phase static tuning."""
        experiment = Experiment(
            system=simulator_system(num_entries=3_000),
            executor_config=ExecutorConfig(queries_per_workload=120, seed=17),
            benchmark=bench_set,
            seed=17,
        )
        online = OnlineConfig(
            window=150,
            check_interval=50,
            min_observations=100,
            cooldown=400,
            confirm_checks=2,
            rho=1.0,
            mode="nominal",
        )
        comparison = experiment.drift(
            w11, 0.5, {ADAPTIVE: online}, phases=("read", "write", "read"), sessions_per_phase=1
        ).claiming(adaptive_vs_static)
        assert {"phase-read", "phase-write", "phase-read-2"} <= set(
            comparison.tunings
        )
        assert comparison.oracle_names == ("phase-read", "phase-write", "phase-read-2")
        # The converged metric covers both drifted-away-from-start phases.
        assert comparison.summary["adaptive_vs_oracle_converged"] > 0


class TestAdaptiveComparison:
    def test_has_static_phase_and_adaptive_columns(self, comparison):
        assert {"nominal", "robust", "phase-read", "phase-write"} == set(
            comparison.tunings
        )
        assert set(comparison.measurements) == set(comparison.tunings) | {"adaptive"}
        for row in comparison.to_dict()["sessions"]:
            assert set(row["system_ios"]) == set(comparison.measurements)

    def test_sessions_are_phase_tagged(self, comparison):
        assert comparison.phases == ("read", "read", "write", "write")
        assert comparison.oracle_names == tuple(
            f"phase-{phase}" for phase in comparison.phases
        )

    def test_summary_reports_the_headline_metrics(self, comparison):
        summary = comparison.summary
        assert {
            "nominal_mean_io_per_query",
            "adaptive_mean_io_per_query",
            "oracle_mean_io_per_query",
            "adaptive_vs_nominal_reduction",
            "adaptive_vs_oracle_converged",
            "num_migrations",
        } <= set(summary)
        assert summary["oracle_mean_io_per_query"] > 0

    def test_to_dict_round_trips_to_json(self, comparison):
        import json

        payload = json.loads(json.dumps(comparison.to_dict()))
        adaptive = comparison.measurements["adaptive"]
        assert payload["summary"]["num_migrations"] == adaptive.num_migrations
        assert len(payload["sessions"]) == len(comparison.labels)

    def test_format_renders_all_columns(self, comparison):
        text = format_adaptive_comparison(comparison)
        assert "adaptive" in text
        assert "phase-write" in text
        assert "mean I/Os per query" in text
