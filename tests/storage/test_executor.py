"""Tests for the workload executor (system-measurement harness)."""

import pytest

from repro.lsm import LSMTuning, Policy
from repro.online import OnlineConfig
from repro.storage import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    SequenceMeasurement,
    SessionMeasurement,
)
from repro.workloads import SessionSequence, SessionType, Workload
from repro.workloads.traces import RANGE_SCAN_KEYS


def _session_measurement(num_queries, **overrides):
    base = dict(
        label="s",
        workload=Workload(0.25, 0.25, 0.25, 0.25),
        num_queries=num_queries,
        query_reads=0,
        query_writes=0,
        flush_writes=0,
        compaction_reads=0,
        compaction_writes=0,
    )
    base.update(overrides)
    return SessionMeasurement(**base)


@pytest.fixture(scope="module")
def tunings():
    return {
        "nominal": LSMTuning(size_ratio=20.0, bits_per_entry=10.0, policy=Policy.LEVELING),
        "robust": LSMTuning(size_ratio=5.0, bits_per_entry=3.0, policy=Policy.LEVELING),
    }


class TestExecutorBasics:
    def test_build_tree_bulk_loads_and_resets_io(self, executor, tunings):
        tree = executor.build_tree(tunings["robust"])
        assert tree.num_entries == executor.system.num_entries
        assert tree.disk.counters.total == 0

    def test_same_key_space_across_tunings(self, executor, tunings):
        tree_a = executor.build_tree(tunings["nominal"])
        tree_b = executor.build_tree(tunings["robust"])
        assert tree_a.num_entries == tree_b.num_entries

    def test_run_session_reports_query_count(self, executor, tunings, session_generator, w11):
        session = session_generator.session(SessionType.READ, w11, workloads_per_session=2)
        sequence = SessionSequence(expected=w11, sessions=(session,))
        (measurement,) = executor.run_sequence(tunings["robust"], sequence).sessions
        assert measurement.num_queries == 2 * executor.config.queries_per_workload

    def test_session_measurement_has_non_negative_ios(
        self, executor, tunings, session_generator, w11
    ):
        measurement = executor.run_sequence(
            tunings["robust"], session_generator.paper_sequence(w11, workloads_per_session=1)
        )
        for session in measurement.sessions:
            assert session.ios_per_query >= 0.0

    def test_trace_generator_scans_the_generators_default_range(self, executor):
        """No knob sets the short-range length: every measurement path scans
        the generator's one constant."""
        trace = executor.trace_generator().operations(Workload(0.0, 0.0, 1.0, 0.0), 50)
        assert set(trace.scan_lengths.tolist()) == {RANGE_SCAN_KEYS} == {16}

    @pytest.mark.parametrize(
        "option", [{"sync_writes": True}, {"data_dir": "trees"}], ids=["sync_writes", "data_dir"]
    )
    def test_files_only_options_require_the_persistent_backend(self, option):
        """On memory they would be accepted and silently ignored."""
        (name,) = option
        with pytest.raises(ValueError, match=f"{name} requires backend='persistent'"):
            ExecutorConfig(**option)
        assert getattr(ExecutorConfig(backend="persistent", **option), name) == option[name]


class TestSequenceExecution:
    def test_sequence_measurement_has_one_entry_per_session(
        self, executor, tunings, session_generator, w11
    ):
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        measurement = executor.run_sequence(tunings["robust"], sequence)
        assert len(measurement.sessions) == len(sequence)

    def test_write_session_generates_write_io(
        self, executor, tunings, session_generator, w11
    ):
        sequence = session_generator.paper_sequence(
            w11, include_writes=True, workloads_per_session=1
        )
        measurement = executor.run_sequence(tunings["robust"], sequence)
        write_sessions = [s for s in measurement.sessions if s.label == "write"]
        assert write_sessions
        assert write_sessions[0].flush_writes + write_sessions[0].compaction_writes > 0

    def test_read_only_sequence_generates_no_write_io(
        self, executor, tunings, session_generator, w7
    ):
        sequence = session_generator.paper_sequence(
            w7, include_writes=False, workloads_per_session=1
        )
        measurement = executor.run_sequence(tunings["robust"], sequence)
        # Only the small non-dominant write fraction can flush; it should be
        # a negligible share of total traffic.
        total_reads = sum(s.query_reads for s in measurement.sessions)
        total_compaction = sum(s.compaction_writes for s in measurement.sessions)
        assert total_reads > 0
        assert total_compaction <= total_reads

    def test_compare_runs_all_tunings(self, executor, tunings, session_generator, w11):
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        results = executor.compare(tunings, sequence)
        assert set(results) == {"nominal", "robust"}

    def test_parallel_compare_matches_sequential_exactly(
        self, executor, tunings, session_generator, w11
    ):
        """The multiprocessing pool must reproduce the sequential measurements
        bit for bit: every worker rebuilds the same key space and traces."""
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        sequential = executor.compare(tunings, sequence, parallel=False)
        parallel = executor.compare(tunings, sequence, parallel=True, processes=2)
        assert set(parallel) == set(sequential)
        for name in sequential:
            assert parallel[name] == sequential[name]

    def test_average_metrics_are_finite(self, executor, tunings, session_generator, w11):
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        measurement = executor.run_sequence(tunings["nominal"], sequence)
        assert measurement.average_ios_per_query >= 0.0


class TestAdaptiveExecution:
    @pytest.fixture()
    def online_config(self):
        return OnlineConfig(
            window=150,
            check_interval=50,
            min_observations=100,
            cooldown=600,
            confirm_checks=2,
            rho=0.5,
            mode="nominal",
            horizon_ops=100_000,
        )

    def test_adaptive_sequence_measures_every_session(
        self, executor, tunings, session_generator, w11, online_config
    ):
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        measurement = executor.run_sequence_adaptive(
            tunings["nominal"], sequence, online=online_config
        )
        assert isinstance(measurement, AdaptiveSequenceMeasurement)
        assert len(measurement.sessions) == len(sequence)
        assert measurement.tuning == tunings["nominal"].rounded()
        assert measurement.average_ios_per_query >= 0.0

    def test_adaptive_migration_io_lands_in_session_measurements(
        self, executor, tunings, session_generator, w11, online_config
    ):
        """Migration pages must show up as compaction traffic in the very
        sessions where the migrations happened — adaptivity is not free."""
        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        measurement = executor.run_sequence_adaptive(
            tunings["nominal"], sequence, online=online_config
        )
        if measurement.num_migrations == 0:
            pytest.skip("no drift fired for this sequence/seed")
        total_compaction = sum(
            s.compaction_reads + s.compaction_writes for s in measurement.sessions
        )
        assert total_compaction >= measurement.migration_pages

    def test_in_flight_incremental_plan_is_drained_at_stream_end(
        self, executor, tunings, session_generator, w11, online_config
    ):
        """A migration plan still running when the stream ends is drained
        before the measurement is returned: the events' planned page totals
        are fully charged, ``final_tuning`` is the tuning actually reached,
        and no tombstone hold survives on the live tree."""
        from dataclasses import replace

        sequence = session_generator.paper_sequence(w11, workloads_per_session=1)
        # Steps so far apart the plan cannot finish within the stream.
        online = replace(
            online_config,
            migration="incremental",
            migration_step_ops=10**6,
            migration_step_pages=16,
        )
        measurement = executor.run_sequence_adaptive(
            tunings["nominal"], sequence, online=online
        )
        if measurement.num_migrations == 0:
            pytest.skip("no drift fired for this sequence/seed")
        migrated = [e for e in measurement.events if e.migrated][0]
        assert measurement.final_tuning == migrated.decision.proposed
        total_compaction = sum(
            s.compaction_reads + s.compaction_writes for s in measurement.sessions
        )
        # The trailing drained steps land outside the session windows, so
        # the in-session compaction total undercuts the planned pages...
        assert total_compaction < measurement.migration_pages


class TestEmptySessionAccounting:
    """Zero-query sessions must not invent a phantom query to amortise over.

    ``ios_per_query`` used to divide by ``max(1, num_queries)``, so a session
    that executed nothing but still saw background traffic (a flush riding on
    the disk between snapshots) reported that traffic as the cost of one
    query that never ran — and dragged sequence averages with it.
    """

    def test_empty_session_reports_zero_ios_per_query(self):
        ghost = _session_measurement(num_queries=0, flush_writes=128,
                                     compaction_reads=64, compaction_writes=64)
        assert ghost.ios_per_query == 0.0
        assert ghost.read_ios_per_query == 0.0

    def test_single_query_session_still_amortises_normally(self):
        single = _session_measurement(num_queries=1, query_reads=3, flush_writes=5)
        assert single.ios_per_query == 8.0
        assert single.read_ios_per_query == 3.0

    def test_sequence_average_skips_empty_sessions(self):
        """The sequence mean weights non-empty sessions equally (the paper
        averages per-session costs) and excludes empty ones entirely — a
        zero-query session measured nothing, so averaging its 0.0 in would
        understate the sequence's cost."""
        tuning = LSMTuning(5.0, 5.0, policy=Policy.LEVELING)
        busy_a = _session_measurement(num_queries=10, query_reads=40)
        busy_b = _session_measurement(num_queries=1_000, query_reads=2_000)
        ghost = _session_measurement(num_queries=0, flush_writes=512)
        sequence = SequenceMeasurement(
            tuning=tuning, sessions=(busy_a, ghost, busy_b)
        )
        # (40/10 + 2000/1000) / 2 — equal session weights, ghost excluded.
        assert sequence.average_ios_per_query == pytest.approx(3.0)

    def test_all_empty_sequence_averages_to_zero(self):
        tuning = LSMTuning(5.0, 5.0, policy=Policy.LEVELING)
        sequence = SequenceMeasurement(
            tuning=tuning, sessions=(_session_measurement(num_queries=0),)
        )
        assert sequence.average_ios_per_query == 0.0


class TestLazyLevelingExecution:
    def test_run_sequence_with_lazy_leveling_tuning(
        self, executor, session_generator, w7
    ):
        """End-to-end: a lazy-leveling tuning executes a full write-bearing
        sequence and produces non-trivial compaction traffic."""
        tuning = LSMTuning(
            size_ratio=4.0, bits_per_entry=4.0, policy=Policy.LAZY_LEVELING
        )
        sequence = session_generator.paper_sequence(
            w7, include_writes=True, workloads_per_session=1
        )
        measurement = executor.run_sequence(tuning, sequence)
        assert measurement.tuning.policy is Policy.LAZY_LEVELING
        assert len(measurement.sessions) == len(sequence)
        compactions = sum(
            s.compaction_reads + s.compaction_writes for s in measurement.sessions
        )
        assert compactions > 0
        assert measurement.average_ios_per_query > 0.0
