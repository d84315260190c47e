"""Tests for the session generator used by the system experiments."""

import pytest

from repro.workloads import (
    DOMINANT_FRACTION,
    EXPECTED_DIVERGENCE_THRESHOLD,
    SessionGenerator,
    SessionType,
    UncertaintyBenchmark,
    Workload,
    expected_workload,
)


@pytest.fixture(scope="module")
def generator() -> SessionGenerator:
    return SessionGenerator(UncertaintyBenchmark(size=400, seed=21), seed=5)


class TestSingleSessions:
    def test_expected_session_stays_close(self, generator, w11):
        session = generator.session(SessionType.EXPECTED, w11, workloads_per_session=4)
        assert session.average.distance_to(w11) <= EXPECTED_DIVERGENCE_THRESHOLD + 0.1

    def test_write_session_is_write_dominated(self, generator, w11):
        session = generator.session(SessionType.WRITE, w11, workloads_per_session=4)
        for workload in session.workloads:
            assert workload.w == pytest.approx(DOMINANT_FRACTION, abs=1e-6)

    def test_range_session_is_range_dominated(self, generator, w11):
        session = generator.session(SessionType.RANGE, w11, workloads_per_session=4)
        for workload in session.workloads:
            assert workload.q == pytest.approx(DOMINANT_FRACTION, abs=1e-6)

    def test_empty_read_session_dominated_by_z0(self, generator, w11):
        session = generator.session(SessionType.EMPTY_READ, w11)
        for workload in session.workloads:
            assert workload.z0 == pytest.approx(DOMINANT_FRACTION, abs=1e-6)

    def test_read_session_dominated_by_point_reads(self, generator, w11):
        session = generator.session(SessionType.READ, w11, workloads_per_session=4)
        for workload in session.workloads:
            assert workload.z0 + workload.z1 == pytest.approx(
                DOMINANT_FRACTION, abs=1e-6
            )

    def test_session_accepts_string_type(self, generator, w11):
        session = generator.session("write", w11)
        assert session.session_type is SessionType.WRITE

    def test_rejects_non_positive_length(self, generator, w11):
        with pytest.raises(ValueError):
            generator.session(SessionType.READ, w11, workloads_per_session=0)

    def test_session_length(self, generator, w11):
        session = generator.session(SessionType.READ, w11, workloads_per_session=3)
        assert len(session.workloads) == 3

    def test_expected_session_for_extreme_workload_still_works(self, generator):
        # w1 is 97% empty reads; the benchmark may contain nothing that close,
        # so the generator falls back to perturbing the expected workload.
        extreme = expected_workload(1).workload
        session = generator.session(SessionType.EXPECTED, extreme)
        assert len(session.workloads) > 0


class TestSequences:
    def test_paper_sequence_has_six_sessions(self, generator, w11):
        sequence = generator.paper_sequence(w11)
        assert len(sequence) == 6

    def test_write_sequence_session_order(self, generator, w11):
        sequence = generator.paper_sequence(w11, include_writes=True)
        kinds = [s.session_type for s in sequence]
        assert kinds[1] is SessionType.RANGE
        assert kinds[4] is SessionType.WRITE
        assert kinds[5] is SessionType.EXPECTED

    def test_read_only_sequence_has_no_write_session(self, generator, w7):
        sequence = generator.paper_sequence(w7, include_writes=False)
        assert all(s.session_type is not SessionType.WRITE for s in sequence)

    def test_observed_average_is_valid_workload(self, generator, w11):
        sequence = generator.paper_sequence(w11)
        observed = sequence.observed_average
        assert sum(observed.as_tuple()) == pytest.approx(1.0)

    def test_observed_divergence_positive_for_shifted_sessions(self, generator, w11):
        sequence = generator.paper_sequence(w11)
        assert sequence.observed_divergence() > 0.0

    def test_motivation_sequence_structure(self, generator):
        expected = Workload(0.20, 0.20, 0.06, 0.54)
        shifted = Workload(0.02, 0.02, 0.41, 0.55)
        sequence = generator.motivation_sequence(expected, shifted)
        assert len(sequence) == 3
        assert sequence.sessions[0].workloads[0] == expected
        assert sequence.sessions[1].workloads[0] == shifted
        assert sequence.sessions[2].workloads[0] == expected

    def test_sequences_are_reproducible_per_generator_seed(self, w11):
        bench = UncertaintyBenchmark(size=400, seed=21)
        seq_a = SessionGenerator(bench, seed=9).paper_sequence(w11)
        seq_b = SessionGenerator(bench, seed=9).paper_sequence(w11)
        for sa, sb in zip(seq_a, seq_b):
            assert sa.workloads == sb.workloads
