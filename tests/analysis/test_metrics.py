"""Tests for the evaluation metrics of Section 7.1.

The metrics reduce throughput vectors; the vectors come from
``LSMCostModel.throughputs``, the one place a throughput is computed.
"""

import numpy as np
import pytest

from repro.analysis import delta_throughputs, throughput_range, win_rate
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


def _delta(model, workloads, baseline, candidate):
    """``Δ_w(baseline, candidate)`` on ``workloads``, from their vectors."""
    return delta_throughputs(
        model.throughputs(workloads, baseline), model.throughputs(workloads, candidate)
    )


class TestThroughput:
    def test_is_reciprocal_of_cost(self, model, read_tuning, w11):
        assert model.throughputs([w11], read_tuning)[0] == pytest.approx(
            1.0 / model.workload_cost(w11, read_tuning)
        )

    def test_throughputs_vectorises(self, model, read_tuning, bench_set):
        workloads = list(bench_set)[:20]
        values = model.throughputs(workloads, read_tuning)
        assert values.shape == (20,)
        assert np.all(values > 0)


class TestDeltaThroughput:
    def test_zero_for_identical_tunings(self, model, read_tuning, w11):
        assert _delta(model, [w11], read_tuning, read_tuning).tolist() == [0.0]

    def test_sign_convention(self, model, read_tuning, write_tuning, w11):
        """Positive when the candidate beats the baseline, and antisymmetric in
        the normalised sense of the paper's definition."""
        forward = _delta(model, [w11], read_tuning, write_tuning)[0]
        backward = _delta(model, [w11], write_tuning, read_tuning)[0]
        assert (forward > 0) != (backward > 0)

    def test_write_heavy_workload_favours_write_tuning(self, model, read_tuning, write_tuning):
        from repro.workloads import expected_workload

        write_heavy = expected_workload(4).workload
        assert _delta(model, [write_heavy], read_tuning, write_tuning)[0] > 0

    def test_average_delta(self, model, read_tuning, write_tuning, bench_set):
        workloads = list(bench_set)[:30]
        mean = np.mean(_delta(model, workloads, read_tuning, write_tuning))
        individual = [
            _delta(model, [w], read_tuning, write_tuning)[0] for w in workloads
        ]
        assert mean == pytest.approx(np.mean(individual))

    def test_average_delta_rejects_empty(self, model, read_tuning):
        """An empty benchmark set is refused where its vector is built."""
        with pytest.raises(ValueError, match="at least one workload"):
            model.throughputs([], read_tuning)


class TestThroughputRange:
    def test_non_negative(self, model, read_tuning, bench_set):
        workloads = list(bench_set)[:30]
        assert throughput_range(model.throughputs(workloads, read_tuning)) >= 0.0

    def test_zero_for_single_workload(self, model, read_tuning, w11):
        assert throughput_range(model.throughputs([w11], read_tuning)) == 0.0

    def test_matches_max_minus_min(self, model, read_tuning, bench_set):
        values = model.throughputs(list(bench_set)[:30], read_tuning)
        assert throughput_range(values) == float(values.max() - values.min())

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            throughput_range(np.array([]))


class TestWinRate:
    def test_bounds(self, model, read_tuning, write_tuning, bench_set):
        workloads = list(bench_set)[:30]
        base, cand = (model.throughputs(workloads, t) for t in (read_tuning, write_tuning))
        assert 0.0 <= win_rate(base, cand) <= 1.0

    def test_complementary_rates(self, model, read_tuning, write_tuning, bench_set):
        workloads = list(bench_set)[:30]
        base, cand = (model.throughputs(workloads, t) for t in (read_tuning, write_tuning))
        assert win_rate(base, cand) + win_rate(cand, base) <= 1.0 + 1e-9

    def test_identical_tunings_never_win(self, model, read_tuning, bench_set):
        values = model.throughputs(list(bench_set)[:10], read_tuning)
        assert win_rate(values, values) == 0.0

    def test_rejects_empty(self, model, write_tuning):
        """No win rate over an empty set: its vector is never built."""
        with pytest.raises(ValueError, match="at least one workload"):
            model.throughputs(iter(()), write_tuning)


class TestOneCostVectorPerTuning:
    """``c(Φ)`` depends on ``(Φ, ν)`` only: built once per call, not per
    workload (once per tuning per catalog, not per figure, is
    ``tests/test_figure_rows.py``'s)."""

    @pytest.fixture()
    def counting(self, model, count_cost_vectors):
        return count_cost_vectors(model)

    def test_one_vector_per_distinct_nu(self, model, read_tuning, bench_set, counting):
        from dataclasses import replace

        workloads = list(bench_set)[:30]
        workloads += [replace(w, long_range_fraction=0.5) for w in workloads]
        model.throughputs(workloads, read_tuning)
        assert sorted(nu for _, nu in counting) == [0.0, 0.5]

    def test_every_float_is_the_per_workload_one(
        self, model, read_tuning, write_tuning, bench_set
    ):
        from dataclasses import replace

        workloads = list(bench_set)[:40]
        workloads += [replace(w, long_range_fraction=0.3) for w in workloads[:10]]
        singles = [1.0 / model.workload_cost(w, read_tuning) for w in workloads]
        others = [1.0 / model.workload_cost(w, write_tuning) for w in workloads]
        base = model.throughputs(iter(workloads), read_tuning)
        cand = model.throughputs(workloads, write_tuning)
        assert base.tolist() == singles
        assert throughput_range(base) == max(singles) - min(singles)
        deltas = [(c - b) / b for b, c in zip(singles, others)]
        assert delta_throughputs(base, cand).tolist() == deltas
        assert float(np.mean(delta_throughputs(base, cand))) == float(np.mean(deltas))
        for tolerance in (0.0, 0.1):
            wins = sum(delta > tolerance for delta in deltas)
            assert win_rate(base, cand, tolerance) == wins / len(workloads)

    def test_a_non_positive_cost_is_refused(self, model, read_tuning, w11, monkeypatch):
        monkeypatch.setattr(model, "cost_vector", lambda tuning, nu=0.0: np.zeros(4))
        with pytest.raises(ValueError, match="must be positive"):
            model.throughputs([w11], read_tuning)
