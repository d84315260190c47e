"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Expensive
shared state (the tuning catalog, the sampled uncertainty benchmark, the
simulator experiment) is session-scoped so tunings computed for one figure
are reused by the others, mirroring how the paper's experiment pipeline runs.

Each benchmark also writes a plain-text report with the regenerated
rows/series to ``benchmarks/results/``; the committed copies are the
paper-vs-measured record (README.md, "Paper-reproduction notes").  Scale
knobs (benchmark-set size, queries per session, ρ grid) default to
laptop-friendly values; the paper's own settings are noted next to each knob.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import SystemExperiment, TuningCatalog
from repro.lsm import SystemConfig, simulator_system
from repro.storage import ExecutorConfig
from repro.workloads import UncertaintyBenchmark

#: Directory where the regenerated figure/table data is written.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Reduced ρ grid reused across model-based figures (paper: 0…4 step 0.25).
RHO_VALUES = (0.25, 0.5, 1.0, 2.0)


@pytest.fixture(scope="session")
def model_system() -> SystemConfig:
    """Model-scale system configuration (paper defaults)."""
    return SystemConfig()


@pytest.fixture(scope="session")
def catalog(model_system) -> TuningCatalog:
    """Session-wide cache of nominal and robust tunings."""
    return TuningCatalog(system=model_system)


@pytest.fixture(scope="session")
def bench_set() -> UncertaintyBenchmark:
    """The sampled uncertainty benchmark B (reduced to 1000 samples)."""
    return UncertaintyBenchmark(size=1_000, seed=42)


@pytest.fixture(scope="session")
def system_experiment() -> SystemExperiment:
    """Simulator-backed experiment used by the Figure 8–18 benchmarks."""
    return SystemExperiment(
        system=simulator_system(num_entries=20_000),
        executor_config=ExecutorConfig(queries_per_workload=1_000, seed=29),
        benchmark=UncertaintyBenchmark(size=500, seed=29),
        seed=29,
    )


@pytest.fixture(scope="session")
def report():
    """Writer that records each benchmark's regenerated data under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")

    return write


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
