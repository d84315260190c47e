"""Shared fixtures for the Endure reproduction test-suite.

Expensive objects (tuner solutions, the sampled bench_set, bulk-loaded
simulator trees) are session-scoped so the suite stays fast while still
exercising the real solvers and the real storage engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import TuningCatalog
from repro.core import NominalTuner, RobustTuner
from repro.lsm import LSMCostModel, LSMTuning, Policy, SystemConfig, simulator_system
from repro.storage import ExecutorConfig, LSMTree, WorkloadExecutor
from repro.workloads import (
    SessionGenerator,
    UncertaintyBenchmark,
    Workload,
    expected_workload,
)


@pytest.fixture(scope="session")
def system() -> SystemConfig:
    """Model-scale system configuration used across the analytical tests."""
    return SystemConfig()


@pytest.fixture(scope="session")
def cost_model(system: SystemConfig) -> LSMCostModel:
    """Cost model bound to the default system."""
    return LSMCostModel(system)


@pytest.fixture(scope="session")
def small_system() -> SystemConfig:
    """Simulator-scale system configuration (small database)."""
    return simulator_system(num_entries=8_000)


@pytest.fixture(scope="session")
def bench_set() -> UncertaintyBenchmark:
    """A reduced bench_set set (500 samples) used by evaluation tests."""
    return UncertaintyBenchmark(size=500, seed=42)


@pytest.fixture(scope="session")
def small_benchmark() -> UncertaintyBenchmark:
    """A 200-sample benchmark set for the model-evaluation tests."""
    return UncertaintyBenchmark(size=200, seed=17)


@pytest.fixture(scope="session")
def catalog(small_benchmark: UncertaintyBenchmark) -> TuningCatalog:
    """Tunings and their throughput vectors over ``small_benchmark``."""
    return TuningCatalog(benchmark=small_benchmark)


@pytest.fixture()
def count_cost_vectors(monkeypatch):
    """``count(model)`` records the ``(tuning, ν)`` of every later
    ``model.cost_vector`` call in the list it returns."""

    def count(model: LSMCostModel) -> list:
        calls = []
        real = model.cost_vector

        def cost_vector(tuning, long_range_fraction=0.0):
            calls.append((tuning, long_range_fraction))
            return real(tuning, long_range_fraction)

        monkeypatch.setattr(model, "cost_vector", cost_vector)
        return calls

    return count


@pytest.fixture(scope="session")
def w0() -> Workload:
    """The uniform expected workload."""
    return expected_workload(0).workload


@pytest.fixture(scope="session")
def w7() -> Workload:
    """The bimodal read/write expected workload."""
    return expected_workload(7).workload


@pytest.fixture(scope="session")
def w11() -> Workload:
    """The trimodal read-heavy expected workload."""
    return expected_workload(11).workload


@pytest.fixture(scope="session")
def nominal_w11(system: SystemConfig, w11: Workload):
    """Nominal tuning for w11 (solved once per test session)."""
    return NominalTuner(system=system, seed=1).tune(w11)


@pytest.fixture(scope="session")
def robust_w11_rho1(system: SystemConfig, w11: Workload):
    """Robust tuning for w11 with rho = 1 (solved once per test session)."""
    return RobustTuner(rho=1.0, system=system, seed=1).tune(w11)


@pytest.fixture(scope="session")
def nominal_w7(system: SystemConfig, w7: Workload):
    """Nominal tuning for w7 (solved once per test session)."""
    return NominalTuner(system=system, seed=1).tune(w7)


@pytest.fixture(scope="session")
def robust_w7_rho1(system: SystemConfig, w7: Workload):
    """Robust tuning for w7 with rho = 1 (solved once per test session)."""
    return RobustTuner(rho=1.0, system=system, seed=1).tune(w7)


@pytest.fixture()
def leveling_tuning() -> LSMTuning:
    """A representative leveling tuning."""
    return LSMTuning(size_ratio=5.0, bits_per_entry=5.0, policy=Policy.LEVELING)


@pytest.fixture()
def tiering_tuning() -> LSMTuning:
    """A representative tiering tuning."""
    return LSMTuning(size_ratio=5.0, bits_per_entry=5.0, policy=Policy.TIERING)


@pytest.fixture(scope="session")
def loaded_tree(small_system: SystemConfig) -> LSMTree:
    """A bulk-loaded leveling tree shared by read-only storage tests."""
    tree = LSMTree(
        LSMTuning(size_ratio=4.0, bits_per_entry=6.0, policy=Policy.LEVELING),
        small_system,
    )
    tree.bulk_load(np.arange(0, 2 * small_system.num_entries, 2))
    tree.disk.reset()
    return tree


@pytest.fixture(scope="session")
def executor(small_system: SystemConfig) -> WorkloadExecutor:
    """A workload executor over the small simulator system."""
    return WorkloadExecutor(
        small_system, ExecutorConfig(queries_per_workload=300, seed=5)
    )


@pytest.fixture(scope="session")
def session_generator(bench_set: UncertaintyBenchmark) -> SessionGenerator:
    """Session generator over the reduced bench_set."""
    return SessionGenerator(bench_set, seed=3)
