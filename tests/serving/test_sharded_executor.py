"""The executor as a shard fleet: bit-identity, merging, pooling, disposal."""

from __future__ import annotations

import tempfile
from dataclasses import fields, replace

import pytest

from repro.analysis import Comparison, format_comparison
from repro.analysis.comparison import robust_vs_nominal
from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import OnlineConfig
from repro.serving import sharding
from repro.serving.sharding import partition_keys, shard_operations
from repro.storage import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    IOCounters,
    SequenceMeasurement,
    WorkloadExecutor,
)
from repro.storage.executor import fleet_percentiles, tree_fingerprint
from repro.storage.lsm_tree import execute_operation
from repro.workloads import KeySpace, SessionGenerator, UncertaintyBenchmark, Workload

_SYSTEM = simulator_system(num_entries=4_000)
_TUNING = LSMTuning(size_ratio=5.0, bits_per_entry=5.0, policy=Policy.LEVELING)
_EXPECTED = Workload(z0=0.25, z1=0.55, q=0.05, w=0.15)
_ONLINE = OnlineConfig(
    window=400, check_interval=64, min_observations=128, cooldown=512,
    confirm_checks=2, mode="nominal", horizon_ops=12_000,
    migration="incremental", migration_step_ops=32, migration_step_pages=8,
)


@pytest.fixture(scope="module")
def sequence():
    generator = SessionGenerator(UncertaintyBenchmark(size=200, seed=13), seed=13)
    return generator.paper_sequence(_EXPECTED, workloads_per_session=1)


def _config(**kwargs) -> ExecutorConfig:
    base = dict(queries_per_workload=250, seed=17)
    base.update(kwargs)
    return ExecutorConfig(**base)


class TestSingleShardBitIdentity:
    """num_shards=1 must be a bare ``run_shard`` byte for byte: no key
    partition, no route, no merge."""

    def test_static_sessions_match_a_bare_run(self, sequence):
        executor = WorkloadExecutor(_SYSTEM, _config())
        base = executor.run_shard(_TUNING, sequence).measurement
        one = executor.run_sequence(_TUNING, sequence)
        assert one.num_shards == len(one.shards) == 1
        assert one.sessions == base.sessions
        assert one.average_ios_per_query == base.average_ios_per_query

    def test_one_shard_computes_no_partition_or_route(self, sequence, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a 1-shard fleet partitioned or routed")

        monkeypatch.setattr(sharding, "partition_keys", unreachable)
        monkeypatch.setattr(sharding, "shard_operations", unreachable)
        executor = WorkloadExecutor(_SYSTEM, _config())
        assert executor.run_sequence(_TUNING, sequence).num_shards == 1
        assert len(executor.compare({"only": _TUNING}, sequence)["only"].shards) == 1

    def test_static_final_state_matches_scalar_replay(self, sequence):
        one = WorkloadExecutor(_SYSTEM, _config()).run_sequence(_TUNING, sequence)
        executor = WorkloadExecutor(_SYSTEM, _config())
        tree = executor.build_tree(_TUNING)
        trace = executor.trace_generator()
        for session in sequence:
            for workload in session.workloads:
                for op in trace.operations(workload, 250):
                    execute_operation(tree, op)
        assert one.shards[0].fingerprint == tree_fingerprint(tree)
        assert one.shards[0].stats == tree.stats()

    @pytest.mark.parametrize("admission", ["fixed", "queue-depth"])
    def test_adaptive_run_matches_a_bare_run(self, sequence, admission):
        online = replace(_ONLINE, admission=admission)
        executor = WorkloadExecutor(_SYSTEM, _config())
        base = executor.run_shard(
            _TUNING, sequence, adaptive=True, online=online
        ).measurement
        one = executor.run_sequence_adaptive(_TUNING, sequence, online=online)
        shard = one.shards[0].measurement
        assert shard.sessions == base.sessions
        assert shard.events == base.events
        assert shard.final_tuning == base.final_tuning
        assert one.sessions == base.sessions


class TestOneRunner:
    """``run_sequence*`` are ``run_shard(...).measurement`` — one code path."""

    def test_run_sequence_is_shard_zero_of_one(self, sequence):
        executor = WorkloadExecutor(_SYSTEM, _config())
        run = executor.run_shard(_TUNING, sequence)
        assert run.shard == 0
        assert type(run.measurement) is SequenceMeasurement
        assert executor.run_sequence(_TUNING, sequence) == run.measurement

    def test_run_sequence_adaptive_is_the_adaptive_shard(self, sequence):
        executor = WorkloadExecutor(_SYSTEM, _config())
        run = executor.run_shard(_TUNING, sequence, adaptive=True, online=_ONLINE)
        measured = executor.run_sequence_adaptive(_TUNING, sequence, online=_ONLINE)
        assert isinstance(measured, AdaptiveSequenceMeasurement)
        assert measured.events  # the comparison below is not vacuous
        assert measured.sessions == run.measurement.sessions
        assert measured.events == run.measurement.events
        assert measured.final_tuning == run.measurement.final_tuning
        assert measured == run.measurement

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_fleet_session_is_the_sum_of_its_shards(self, sequence, num_shards):
        """A merged session holds each of its shards' five counters summed,
        amortised over the global stream's query count."""
        executor = WorkloadExecutor(_SYSTEM, _config(num_shards=num_shards))
        fleet = executor.run_sequence(_TUNING, sequence)
        counters = [counter.name for counter in fields(IOCounters)]
        for index, (merged, session) in enumerate(zip(fleet.sessions, sequence)):
            parts = [run.measurement.sessions[index] for run in fleet.shards]
            summed = {name: sum(getattr(part, name) for part in parts) for name in counters}
            assert {name: getattr(merged, name) for name in counters} == summed
            assert merged.num_queries == 250 * len(session.workloads)
            assert merged.ios_per_query == sum(summed.values()) / merged.num_queries
        # The sums are not vacuous: the sequence reads and writes pages.
        assert sum(s.query_reads for s in fleet.sessions) > 0
        assert sum(s.flush_writes for s in fleet.sessions) > 0
        if num_shards == 1:
            base = executor.run_shard(_TUNING, sequence).measurement
            assert fleet.sessions == base.sessions


class TestShardedRuns:
    def test_shard_trees_load_the_hash_partition(self, sequence):
        runs = WorkloadExecutor(_SYSTEM, _config(num_shards=3)).run_sequence(
            _TUNING, sequence
        ).shards
        parts = partition_keys(
            WorkloadExecutor(_SYSTEM, _config()).key_space.existing, 3
        )
        assert len(runs) == 3
        # Entry counts reflect the partition plus this shard's writes.
        for run, part in zip(runs, parts):
            assert run.stats.num_entries >= part.size

    @pytest.mark.parametrize("entry", ["run_sequence", "compare"])
    def test_merged_sessions_sum_shard_counters(self, sequence, entry):
        """Every entry point serves the configured number of shards."""
        executor = WorkloadExecutor(_SYSTEM, _config(num_shards=3))
        if entry == "compare":
            measurement = executor.compare({"only": _TUNING}, sequence)["only"]
        else:
            measurement = executor.run_sequence(_TUNING, sequence)
        assert measurement.num_shards == len(measurement.shards) == 3
        assert [run.shard for run in measurement.shards] == [0, 1, 2]
        for index, merged in enumerate(measurement.sessions):
            parts = [run.measurement.sessions[index] for run in measurement.shards]
            for field in (
                "query_reads", "query_writes", "flush_writes",
                "compaction_reads", "compaction_writes",
            ):
                assert getattr(merged, field) == sum(
                    getattr(p, field) for p in parts
                )
            # The merged query count is the *global* stream's (ranges counted
            # once), so it is bounded by the per-shard sum that double-counts
            # fanned-out scans.
            assert merged.num_queries == 250
            assert sum(p.num_queries for p in parts) >= merged.num_queries

    def test_fleet_counters_equal_scalar_replay_of_the_masked_trace(self, sequence):
        """Each shard's sessions and final tree equal a row-by-row replay of
        the global trace masked down to that shard."""
        num_shards = 2
        fleet = WorkloadExecutor(_SYSTEM, _config(num_shards=num_shards)).run_sequence(
            _TUNING, sequence
        )
        executor = WorkloadExecutor(_SYSTEM, _config())
        parts = partition_keys(executor.key_space.existing, num_shards)
        for run, shard_keys in zip(fleet.shards, parts):
            tree = executor.build_tree(_TUNING, keys=shard_keys)
            trace = executor.trace_generator()
            for session, measured in zip(sequence, run.measurement.sessions):
                before = tree.disk.snapshot()
                queries = 0
                for workload in session.workloads:
                    mine = shard_operations(
                        trace.operations(workload, 250), run.shard, num_shards
                    )
                    queries += len(mine)
                    for op in mine:
                        execute_operation(tree, op)
                assert measured.num_queries == queries
                assert tree.disk.counters.delta(before) == IOCounters(
                    query_reads=measured.query_reads,
                    query_writes=measured.query_writes,
                    compaction_reads=measured.compaction_reads,
                    compaction_writes=measured.compaction_writes,
                    flush_writes=measured.flush_writes,
                )
            assert run.fingerprint == tree_fingerprint(tree)

    def test_sequential_fleet_reuses_the_executor_key_space(self, sequence, monkeypatch):
        """Only a pool worker rebuilds the key space (from ``(system, config)``)."""
        executor = WorkloadExecutor(_SYSTEM, _config(num_shards=2))

        def unreachable(*args, **kwargs):
            raise AssertionError("the sequential path rebuilt the key space")

        monkeypatch.setattr(KeySpace, "build", unreachable)
        assert executor.compare({"only": _TUNING}, sequence)["only"].num_shards == 2

    def test_parallel_pool_matches_sequential(self, sequence):
        config = _config(num_shards=2)
        sequential = WorkloadExecutor(_SYSTEM, config).run_sequence(
            _TUNING, sequence
        )
        pooled = WorkloadExecutor(_SYSTEM, config).run_sequence(
            _TUNING, sequence, parallel=True, processes=2
        )
        assert pooled.sessions == sequential.sessions
        for a, b in zip(pooled.shards, sequential.shards):
            assert a.measurement == b.measurement
            assert a.fingerprint == b.fingerprint

    def test_parallel_compare_matches_sequential_on_one_pool(self, sequence):
        """Every tuning x shard task shares one pool; results come back in
        task order, so each tuning gets its own shards."""
        tunings = {
            "nominal": _TUNING,
            "robust": LSMTuning(8.0, 6.0, Policy.TIERING),
        }
        executor = WorkloadExecutor(_SYSTEM, _config(num_shards=2))
        sequential = executor.compare(tunings, sequence)
        pooled = executor.compare(tunings, sequence, parallel=True, processes=2)
        assert list(pooled) == list(sequential) == list(tunings)
        for name in tunings:
            assert pooled[name].tuning == sequential[name].tuning == tunings[name]
            assert pooled[name].sessions == sequential[name].sessions
            for a, b in zip(pooled[name].shards, sequential[name].shards, strict=True):
                assert a.shard == b.shard
                assert a.measurement == b.measurement
                assert a.stats == b.stats
                assert a.fingerprint == b.fingerprint
        assert (
            pooled["nominal"].shards[0].fingerprint
            != pooled["robust"].shards[0].fingerprint
        )

    def test_wall_clock_views(self, sequence):
        measurement = WorkloadExecutor(_SYSTEM, _config(num_shards=2)).run_sequence(
            _TUNING, sequence
        )
        per_shard = [run.elapsed_s for run in measurement.shards]
        assert measurement.critical_path_s == max(per_shard)
        assert measurement.total_cpu_s == pytest.approx(sum(per_shard))


class TestPersistentSharding:
    def test_each_shard_gets_its_own_data_dir(self, sequence, tmp_path):
        config = _config(
            num_shards=2, backend="persistent", data_dir=str(tmp_path / "fleet")
        )
        WorkloadExecutor(_SYSTEM, config).run_sequence(_TUNING, sequence)
        shard_dirs = sorted(p.name for p in (tmp_path / "fleet").iterdir())
        assert shard_dirs == ["shard-00", "shard-01"]
        for name in shard_dirs:
            kept = list((tmp_path / "fleet" / name).glob("tree-*"))
            assert len(kept) == 1  # user-chosen dirs keep trees for inspection

    def test_temp_dir_shards_are_disposed(self, sequence, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        config = _config(num_shards=2, backend="persistent")
        measurement = WorkloadExecutor(_SYSTEM, config).run_sequence(
            _TUNING, sequence
        )
        assert measurement.num_shards == 2
        assert list(tmp_path.iterdir()) == []

    def test_one_shard_builds_directly_under_the_data_dir(self, sequence, tmp_path):
        config = _config(backend="persistent", data_dir=str(tmp_path / "one"))
        WorkloadExecutor(_SYSTEM, config).run_sequence(_TUNING, sequence)
        kept = [p.name for p in (tmp_path / "one").iterdir()]
        assert len(kept) == 1 and kept[0].startswith("tree-")

    def test_adaptive_fleet_fails_before_building_a_tree(self, sequence, tmp_path):
        config = _config(
            num_shards=2, backend="persistent", data_dir=str(tmp_path / "fleet")
        )
        with pytest.raises(ValueError, match="single tree"):
            WorkloadExecutor(_SYSTEM, config).run_sequence_adaptive(
                _TUNING, sequence, online=_ONLINE
            )
        assert list(tmp_path.glob("**/tree-*")) == []

    def test_persistent_matches_simulated_counters(self, sequence):
        simulated = WorkloadExecutor(_SYSTEM, _config(num_shards=2)).run_sequence(
            _TUNING, sequence
        )
        persistent = WorkloadExecutor(
            _SYSTEM, _config(num_shards=2, backend="persistent")
        ).run_sequence(_TUNING, sequence)
        assert simulated.sessions == persistent.sessions
        for a, b in zip(simulated.shards, persistent.shards):
            assert a.measurement == b.measurement
            assert a.fingerprint == b.fingerprint


class TestFleetViews:
    def test_fleet_percentiles(self):
        pct = fleet_percentiles([1.0, 2.0, 3.0, 10.0])
        assert pct["p50"] == pytest.approx(2.5)
        assert pct["worst"] == 10.0
        assert pct["p95"] <= pct["worst"]
        assert fleet_percentiles([]) == {"p50": 0.0, "p95": 0.0, "worst": 0.0}

    def test_comparison_summary_format_and_json(self, sequence):
        executor = WorkloadExecutor(_SYSTEM, _config(num_shards=2))
        tunings = {
            "nominal": _TUNING,
            "robust": LSMTuning(8.0, 6.0, Policy.TIERING),
        }
        comparison = Comparison(
            expected=_EXPECTED,
            rho=0.25,
            observed_divergence=sequence.observed_divergence(),
            tunings=tunings,
            measurements=executor.compare(tunings, sequence),
            model_ios={name: (0.0,) * len(sequence) for name in tunings},
        ).claiming(robust_vs_nominal)
        for name in tunings:
            assert comparison.summary[f"{name}_mean_io_per_query"] == pytest.approx(
                comparison.measurements[name].average_ios_per_query
            )
            assert comparison.summary[f"{name}_mean_io_per_query"] > 0
        payload = comparison.to_dict()
        assert payload["num_shards"] == 2
        assert set(payload["results"]) == {"nominal", "robust"}
        assert len(payload["results"]["nominal"]["shard_ios"]) == 2
        text = format_comparison(comparison)
        assert "shards=2" in text
        assert "fleet io/q" in text
        assert "wall-clock critical-path=" in text

    def test_worst_shard_session_ios(self, sequence):
        measurement = WorkloadExecutor(_SYSTEM, _config(num_shards=2)).run_sequence(
            _TUNING, sequence
        )
        worst = measurement.worst_shard_session_ios()
        assert worst >= max(
            run.measurement.average_ios_per_query for run in measurement.shards
        )


class TestConfigValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            ExecutorConfig(num_shards=0)

    def test_rejects_unknown_admission(self, sequence):
        """``admission`` lives on ``OnlineConfig`` only: the executor config
        has no such field, and an unknown mode dies where the adaptive entry
        point's ``OnlineConfig`` is built."""
        with pytest.raises(TypeError, match="admission"):
            ExecutorConfig(admission="asap")
        executor = WorkloadExecutor(_SYSTEM, _config())
        with pytest.raises(ValueError, match="admission"):
            executor.run_sequence_adaptive(
                _TUNING, sequence, online=OnlineConfig(admission="asap")
            )
