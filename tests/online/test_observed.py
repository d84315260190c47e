"""Tests for the rolling observed-workload estimator."""

import numpy as np
import pytest

from repro.online import ObservedWorkload
from repro.workloads import (
    KeySpace,
    Operation,
    OperationType,
    Trace,
    TraceGenerator,
    Workload,
)


def _ops(kind: OperationType, count: int) -> Trace:
    return Trace.of(Operation(kind, key) for key in range(count))


class TestConstruction:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            ObservedWorkload(window=0)

    def test_empty_estimator_has_no_workload(self):
        estimator = ObservedWorkload(window=100)
        assert estimator.workload() is None
        assert estimator.observations == 0
        assert estimator.weight == 0.0


class TestRecording:
    def test_single_type_stream_estimates_a_point_mass(self):
        estimator = ObservedWorkload(window=50)
        estimator.record_batch(_ops(OperationType.PUT, 200))
        estimate = estimator.workload()
        assert estimate.w == pytest.approx(1.0)
        assert estimate.z0 == estimate.z1 == estimate.q == 0.0

    def test_uniform_stream_estimates_uniform(self):
        estimator = ObservedWorkload(window=400)
        for _ in range(100):
            for kind in OperationType:
                estimator.record_kind(kind)
        estimate = estimator.workload().as_array()
        assert np.allclose(estimate, 0.25, atol=0.02)

    def test_weight_converges_to_window(self):
        estimator = ObservedWorkload(window=100)
        estimator.record_batch(_ops(OperationType.GET, 1_000))
        assert estimator.weight == pytest.approx(100.0, rel=0.01)
        assert estimator.observations == 1_000

    def test_matches_trace_generator_mix(self):
        """Folding a real trace recovers its realised workload proportions."""
        workload = Workload(0.2, 0.3, 0.1, 0.4)
        trace = TraceGenerator(KeySpace.build(2_000, seed=3), seed=5)
        operations = trace.operations(workload, 4_000)
        estimator = ObservedWorkload(window=100_000)
        estimator.record_batch(operations)
        estimate = estimator.workload().as_array()
        # A window much larger than the trace reduces to the plain empirical
        # mix (up to the negligible decay within the trace).
        assert np.allclose(estimate, workload.as_array(), atol=0.05)

    def test_reset_forgets_everything(self):
        estimator = ObservedWorkload(window=100)
        estimator.record_batch(_ops(OperationType.RANGE, 50))
        estimator.reset()
        assert estimator.workload() is None
        assert estimator.observations == 0


class TestBatchFold:
    """``record_batch`` folds exactly what a ``record_kind`` loop folds."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_is_bit_identical_to_a_record_kind_loop(self, seed):
        rng = np.random.default_rng(seed)
        batched, looped = ObservedWorkload(window=37), ObservedWorkload(window=37)
        for size in (0, 1, 700, 0, 2_500, 64):
            if size == 64:
                batched.reset()
                looped.reset()
            kinds = rng.choice(4, size=size, p=rng.dirichlet(np.ones(4)))
            batched.record_batch(Trace(kinds, np.zeros(size), np.zeros(size)))
            for kind in kinds.tolist():
                looped.record_kind(kind)
            assert batched._counts == looped._counts
            assert batched._weight == looped._weight
            assert batched.observations == looped.observations

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError):
            ObservedWorkload(window=10).record_batch(Trace([4], [0], [0]))


class TestWindowing:
    def test_short_window_tracks_the_new_mix(self):
        """A window shorter than one session forgets the previous session."""
        estimator = ObservedWorkload(window=50)
        estimator.record_batch(_ops(OperationType.PUT, 1_000))
        estimator.record_batch(_ops(OperationType.GET, 300))
        estimate = estimator.workload()
        # 300 ops = 6 windows: the write phase has decayed to ~e^-6.
        assert estimate.z1 > 0.99
        assert estimate.w < 0.01

    def test_long_window_blends_both_phases(self):
        estimator = ObservedWorkload(window=10_000)
        estimator.record_batch(_ops(OperationType.PUT, 500))
        estimator.record_batch(_ops(OperationType.GET, 500))
        estimate = estimator.workload()
        assert 0.4 < estimate.w < 0.6
        assert 0.4 < estimate.z1 < 0.6
