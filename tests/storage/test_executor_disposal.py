"""Persistent-backend hygiene on exception and parallel paths.

Every tree the executor builds must be released exactly once, even when a
session raises mid-run, a bulk load crashes half way, an incremental
migration is in flight, or the run is fanned out over a process pool.  A
leaked ``tree-*`` directory in the system temp dir is a regression.
"""

from __future__ import annotations

import os
import tempfile
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import OnlineConfig, OnlineLSMController
from repro.storage import ExecutorConfig, FileStore, LSMTree, WorkloadExecutor
from repro.workloads import Session, SessionSequence, SessionType, Workload

_SYSTEM = simulator_system(num_entries=2_000)
_TUNING = LSMTuning(size_ratio=5.0, bits_per_entry=5.0, policy=Policy.LEVELING)


def _sequence(workload: Workload, sessions: int = 2) -> SessionSequence:
    session = Session(
        session_type=SessionType.WRITE, label="w", workloads=(workload,)
    )
    return SessionSequence(
        expected=Workload(z0=0.45, z1=0.45, q=0.05, w=0.05),
        sessions=(session,) * sessions,
    )


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """Redirect mkdtemp into an inspectable, initially empty directory."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return tmp_path


def _persistent_executor(**kwargs) -> WorkloadExecutor:
    config = ExecutorConfig(
        queries_per_workload=150, seed=11, backend="persistent", **kwargs
    )
    return WorkloadExecutor(_SYSTEM, config)


class TestBuildTreeFailure:
    def test_failed_bulk_load_removes_the_half_built_dir(
        self, private_tmp, monkeypatch
    ):
        def explode(self, keys):
            raise RuntimeError("disk full")

        monkeypatch.setattr(LSMTree, "bulk_load", explode)
        with pytest.raises(RuntimeError, match="disk full"):
            _persistent_executor().build_tree(_TUNING)
        assert list(private_tmp.iterdir()) == []

    def test_failed_store_removes_its_dir(self, private_tmp, monkeypatch):
        def explode(self, data_dir, sync_writes=False):
            raise OSError("too many open files")

        monkeypatch.setattr(FileStore, "__init__", explode)
        with pytest.raises(OSError, match="too many open files"):
            _persistent_executor().build_tree(_TUNING)
        assert list(private_tmp.iterdir()) == []

    def test_failed_bulk_load_cleans_a_user_data_dir_too(
        self, tmp_path, monkeypatch
    ):
        def explode(self, keys):
            raise RuntimeError("disk full")

        monkeypatch.setattr(LSMTree, "bulk_load", explode)
        executor = _persistent_executor(data_dir=str(tmp_path / "db"))
        with pytest.raises(RuntimeError):
            executor.build_tree(_TUNING)
        assert list((tmp_path / "db").glob("tree-*")) == []


class TestMidRunDisposal:
    def test_run_sequence_disposes_on_a_mid_session_crash(
        self, private_tmp, monkeypatch
    ):
        state = {"puts": 0}
        original = LSMTree.put

        def poisoned(self, key):
            state["puts"] += 1
            if state["puts"] > 40:
                raise RuntimeError("injected put failure")
            return original(self, key)

        monkeypatch.setattr(LSMTree, "put", poisoned)
        executor = _persistent_executor()
        with pytest.raises(RuntimeError, match="injected put failure"):
            executor.run_sequence(_TUNING, _sequence(Workload(0, 0, 0, 1.0)))
        assert state["puts"] > 40  # the crash happened mid-session
        assert list(private_tmp.iterdir()) == []

    def test_adaptive_run_disposes_a_mid_flight_migration_target(
        self, private_tmp, monkeypatch
    ):
        """A crash while a plan is in flight must release *both* trees."""
        saw_plan = []
        original = OnlineLSMController.execute_batched

        def poisoned(self, operations, max_batch_ops):
            original(self, operations, max_batch_ops)
            if self.migration_plan is not None:
                saw_plan.append(True)
                raise RuntimeError("crashed while migrating")

        monkeypatch.setattr(OnlineLSMController, "execute_batched", poisoned)
        executor = _persistent_executor()
        online = OnlineConfig(
            window=150, check_interval=32, min_observations=64,
            cooldown=100_000, confirm_checks=1, rho=0.25, mode="nominal",
            horizon_ops=100_000, migration="incremental",
            migration_step_ops=10**6, migration_step_pages=8,
        )
        with pytest.raises(RuntimeError, match="crashed while migrating"):
            executor.run_sequence_adaptive(
                _TUNING,
                _sequence(Workload(0, 0, 1.0, 0), sessions=6),
                online=online,
            )
        assert saw_plan  # the injected crash really hit an in-flight plan
        assert list(private_tmp.iterdir()) == []


class TestParallelCompareHygiene:
    """The ``compare(parallel=True)`` × persistent-backend regression."""

    _TUNINGS = {
        "nominal": _TUNING,
        "robust": LSMTuning(8.0, 6.0, Policy.TIERING),
    }

    def test_parallel_compare_leaves_no_orphan_tree_dirs(self, private_tmp):
        executor = _persistent_executor()
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        results = executor.compare(
            self._TUNINGS, sequence, parallel=True, processes=2
        )
        assert set(results) == set(self._TUNINGS)
        assert list(private_tmp.iterdir()) == []

    def test_parallel_matches_sequential_measurements(self, private_tmp):
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        sequential = _persistent_executor().compare(self._TUNINGS, sequence)
        parallel = _persistent_executor().compare(
            self._TUNINGS, sequence, parallel=True, processes=2
        )
        assert parallel == sequential

    def test_shared_user_data_dir_keeps_one_tree_per_worker(self, tmp_path):
        executor = _persistent_executor(data_dir=str(tmp_path / "shared"))
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        executor.compare(self._TUNINGS, sequence, parallel=True, processes=2)
        kept = list((tmp_path / "shared").glob("tree-*"))
        assert len(kept) == 2  # mkdtemp names are collision-free across workers

    def test_failing_worker_does_not_orphan_directories(
        self, private_tmp, monkeypatch
    ):
        def explode(self, keys):
            raise RuntimeError("worker down")

        monkeypatch.setattr(LSMTree, "bulk_load", explode)
        executor = _persistent_executor()
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        with pytest.raises(RuntimeError, match="worker down"):
            executor.compare(self._TUNINGS, sequence, parallel=True, processes=2)
        assert list(private_tmp.iterdir()) == []


class TestWorkerDeath:
    """A killed worker (``os._exit``, OOM kill) must fail the run promptly.

    ``multiprocessing.Pool.map`` blocks forever when a worker dies; the pool
    raises ``BrokenProcessPool`` instead.  The call runs on a daemon thread so
    a regression shows up as a 30 s timeout here, not as a hung test suite.
    """

    _TUNINGS = TestParallelCompareHygiene._TUNINGS

    @staticmethod
    def _outcome_within(seconds, call):
        outcome = []

        def target():
            try:
                outcome.append(call())
            except BaseException as error:  # reported to the asserting thread
                outcome.append(error)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), f"still blocked after {seconds} s"
        return outcome[0]

    _CONFIG = ExecutorConfig(queries_per_workload=150, seed=11, num_shards=2)

    @pytest.fixture
    def dying_bulk_load(self, monkeypatch):
        # Workers are forked, so they inherit the patched class; the simulated
        # backend keeps a worker that cannot clean up from leaving a directory.
        monkeypatch.setattr(LSMTree, "bulk_load", lambda self, keys: os._exit(1))

    def test_compare_raises_when_a_worker_dies(self, dying_bulk_load):
        executor = WorkloadExecutor(_SYSTEM, self._CONFIG)
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        outcome = self._outcome_within(
            30,
            lambda: executor.compare(
                self._TUNINGS, sequence, parallel=True, processes=2
            ),
        )
        assert isinstance(outcome, BrokenProcessPool)

    def test_sharded_run_raises_when_a_worker_dies(self, dying_bulk_load):
        executor = WorkloadExecutor(_SYSTEM, self._CONFIG)
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        outcome = self._outcome_within(
            30, lambda: executor.run_sequence(_TUNING, sequence, parallel=True)
        )
        assert isinstance(outcome, BrokenProcessPool)

    @pytest.mark.parametrize("processes", [0, -1])
    def test_rejects_a_non_positive_worker_count(self, processes):
        executor = WorkloadExecutor(_SYSTEM, ExecutorConfig(queries_per_workload=50))
        sequence = _sequence(Workload(0.3, 0.3, 0.1, 0.3))
        with pytest.raises(ValueError, match="processes"):
            executor.compare(self._TUNINGS, sequence, processes=processes)
        with pytest.raises(ValueError, match="processes"):
            executor.run_sequence(_TUNING, sequence, processes=processes)
