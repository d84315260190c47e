"""Tests for the evaluation metrics of Section 7.1."""

import numpy as np
import pytest

from repro.analysis import (
    average_delta_throughput,
    delta_throughput,
    throughput,
    throughput_range,
    throughputs,
    win_rate,
)
from repro.lsm import LSMCostModel, LSMTuning, Policy


@pytest.fixture(scope="module")
def model():
    from repro.lsm import SystemConfig

    return LSMCostModel(SystemConfig())


@pytest.fixture(scope="module")
def read_tuning():
    return LSMTuning(30.0, 10.0, Policy.LEVELING)


@pytest.fixture(scope="module")
def write_tuning():
    return LSMTuning(4.0, 2.0, Policy.TIERING)


class TestThroughput:
    def test_is_reciprocal_of_cost(self, model, read_tuning, w11):
        assert throughput(model, w11, read_tuning) == pytest.approx(
            1.0 / model.workload_cost(w11, read_tuning)
        )

    def test_throughputs_vectorises(self, model, read_tuning, bench_set):
        workloads = list(bench_set)[:20]
        values = throughputs(model, workloads, read_tuning)
        assert values.shape == (20,)
        assert np.all(values > 0)


class TestDeltaThroughput:
    def test_zero_for_identical_tunings(self, model, read_tuning, w11):
        assert delta_throughput(model, w11, read_tuning, read_tuning) == pytest.approx(0.0)

    def test_sign_convention(self, model, read_tuning, write_tuning, w11):
        """Positive when the candidate beats the baseline, and antisymmetric in
        the normalised sense of the paper's definition."""
        forward = delta_throughput(model, w11, read_tuning, write_tuning)
        backward = delta_throughput(model, w11, write_tuning, read_tuning)
        assert (forward > 0) != (backward > 0)

    def test_write_heavy_workload_favours_write_tuning(self, model, read_tuning, write_tuning):
        from repro.workloads import expected_workload

        write_heavy = expected_workload(4).workload
        assert delta_throughput(model, write_heavy, read_tuning, write_tuning) > 0

    def test_average_delta(self, model, read_tuning, write_tuning, bench_set):
        workloads = list(bench_set)[:30]
        mean = average_delta_throughput(model, workloads, read_tuning, write_tuning)
        individual = [
            delta_throughput(model, w, read_tuning, write_tuning) for w in workloads
        ]
        assert mean == pytest.approx(np.mean(individual))

    def test_average_delta_rejects_empty(self, model, read_tuning, write_tuning):
        with pytest.raises(ValueError):
            average_delta_throughput(model, [], read_tuning, write_tuning)


class TestThroughputRange:
    def test_non_negative(self, model, read_tuning, bench_set):
        workloads = list(bench_set)[:30]
        assert throughput_range(model, workloads, read_tuning) >= 0.0

    def test_zero_for_single_workload(self, model, read_tuning, w11):
        assert throughput_range(model, [w11], read_tuning) == pytest.approx(0.0)

    def test_matches_max_minus_min(self, model, read_tuning, bench_set):
        workloads = list(bench_set)[:30]
        values = throughputs(model, workloads, read_tuning)
        assert throughput_range(model, workloads, read_tuning) == pytest.approx(
            values.max() - values.min()
        )

    def test_rejects_empty(self, model, read_tuning):
        with pytest.raises(ValueError):
            throughput_range(model, [], read_tuning)


class TestWinRate:
    def test_bounds(self, model, read_tuning, write_tuning, bench_set):
        workloads = list(bench_set)[:30]
        rate = win_rate(model, workloads, read_tuning, write_tuning)
        assert 0.0 <= rate <= 1.0

    def test_complementary_rates(self, model, read_tuning, write_tuning, bench_set):
        workloads = list(bench_set)[:30]
        forward = win_rate(model, workloads, read_tuning, write_tuning)
        backward = win_rate(model, workloads, write_tuning, read_tuning)
        assert forward + backward <= 1.0 + 1e-9

    def test_identical_tunings_never_win(self, model, read_tuning, bench_set):
        workloads = list(bench_set)[:10]
        assert win_rate(model, workloads, read_tuning, read_tuning) == 0.0

    def test_rejects_empty(self, model, read_tuning, write_tuning):
        with pytest.raises(ValueError):
            win_rate(model, [], read_tuning, write_tuning)


class TestOneCostVectorPerTuning:
    """``c(Φ)`` depends on ``(Φ, ν)`` only: built once per call, not per workload."""

    @pytest.fixture()
    def counting(self, model, monkeypatch):
        calls = []
        real = model.cost_vector

        def cost_vector(tuning, long_range_fraction=0.0):
            calls.append((tuning, long_range_fraction))
            return real(tuning, long_range_fraction)

        monkeypatch.setattr(model, "cost_vector", cost_vector)
        return calls

    def test_average_delta_builds_two_vectors_for_a_thousand_workloads(
        self, model, read_tuning, write_tuning, bench_set, counting
    ):
        workloads = list(bench_set) * 2
        assert len(workloads) == 1_000
        assert len({w.long_range_fraction for w in workloads}) == 1
        average_delta_throughput(model, workloads, read_tuning, write_tuning)
        assert len(counting) <= 2

    def test_one_vector_per_distinct_nu(self, model, read_tuning, bench_set, counting):
        from dataclasses import replace

        workloads = list(bench_set)[:30]
        workloads += [replace(w, long_range_fraction=0.5) for w in workloads]
        throughputs(model, workloads, read_tuning)
        assert sorted(nu for _, nu in counting) == [0.0, 0.5]

    def test_every_float_is_the_per_workload_one(
        self, model, read_tuning, write_tuning, bench_set
    ):
        from dataclasses import replace

        workloads = list(bench_set)[:40]
        workloads += [replace(w, long_range_fraction=0.3) for w in workloads[:10]]
        singles = [throughput(model, w, read_tuning) for w in workloads]
        assert throughputs(model, workloads, read_tuning).tolist() == singles
        assert throughput_range(model, workloads, read_tuning) == max(singles) - min(singles)
        deltas = [delta_throughput(model, w, read_tuning, write_tuning) for w in workloads]
        mean = average_delta_throughput(model, iter(workloads), read_tuning, write_tuning)
        assert mean == float(np.mean(deltas))
        for tolerance in (0.0, 0.1):
            wins = sum(delta > tolerance for delta in deltas)
            assert win_rate(
                model, workloads, read_tuning, write_tuning, tolerance
            ) == wins / len(workloads)

    def test_a_non_positive_cost_is_refused(self, model, read_tuning, w11, monkeypatch):
        monkeypatch.setattr(model, "cost_vector", lambda tuning, nu=0.0: np.zeros(4))
        with pytest.raises(ValueError, match="must be positive"):
            throughputs(model, [w11], read_tuning)
        with pytest.raises(ValueError, match="must be positive"):
            throughput(model, w11, read_tuning)
