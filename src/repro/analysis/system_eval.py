"""System-based evaluation drivers (Section 8, Figures 1 and 8–18).

These functions pair the analytical cost model's predictions with actual
measurements from the pure-Python LSM-tree simulator, the reproduction's
stand-in for RocksDB.  Each driver returns, per session of a query sequence,

* the model-predicted I/Os per query for the nominal and robust tunings,
* the measured I/Os per query on the simulator,
* the simulated latency per query,

which is exactly the triptych (model I/O, system I/O, latency) the paper
plots in Figures 8–18.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.nominal import NominalTuner
from ..core.robust import RobustTuner
from ..lsm.cost_model import LSMCostModel
from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig, simulator_system
from ..lsm.tuning import LSMTuning
from ..storage.executor import ExecutorConfig, WorkloadExecutor
from ..workloads.benchmark import UncertaintyBenchmark, expected_workloads
from ..workloads.sessions import SessionGenerator, SessionSequence
from ..workloads.workload import Workload


@dataclass(frozen=True)
class SessionComparison:
    """Model and system measurements of one session under two tunings."""

    session: str
    observed_workload: Workload
    model_ios: Mapping[str, float]
    system_ios: Mapping[str, float]
    latency_us: Mapping[str, float]

    def to_dict(self) -> dict[str, object]:
        """Serialise to plain JSON-compatible data."""
        return {
            "session": self.session,
            "observed_workload": self.observed_workload.as_dict(),
            "model_ios": dict(self.model_ios),
            "system_ios": dict(self.system_ios),
            "latency_us": dict(self.latency_us),
        }


@dataclass(frozen=True)
class SequenceComparison:
    """Full comparison of nominal vs robust tunings over a session sequence."""

    expected: Workload
    rho: float
    observed_divergence: float
    tunings: Mapping[str, LSMTuning]
    sessions: tuple[SessionComparison, ...]

    def summary(self) -> dict[str, float]:
        """Aggregate I/O and latency reductions of robust over nominal."""
        nominal_io = np.array([s.system_ios["nominal"] for s in self.sessions])
        robust_io = np.array([s.system_ios["robust"] for s in self.sessions])
        nominal_lat = np.array([s.latency_us["nominal"] for s in self.sessions])
        robust_lat = np.array([s.latency_us["robust"] for s in self.sessions])
        io_reduction = 1.0 - robust_io.sum() / max(nominal_io.sum(), 1e-12)
        latency_reduction = 1.0 - robust_lat.sum() / max(nominal_lat.sum(), 1e-12)
        return {
            "io_reduction": float(io_reduction),
            "latency_reduction": float(latency_reduction),
            "nominal_mean_io_per_query": float(nominal_io.mean()),
            "robust_mean_io_per_query": float(robust_io.mean()),
        }

    def to_dict(self) -> dict[str, object]:
        """Serialise the whole comparison to plain JSON-compatible data.

        This is what ``repro-endure compare --json`` emits, so downstream
        tooling can consume the experiment without scraping the text table.
        """
        return {
            "expected_workload": self.expected.as_dict(),
            "rho": self.rho,
            "observed_divergence": self.observed_divergence,
            "tunings": {
                name: tuning.to_dict() for name, tuning in self.tunings.items()
            },
            "sessions": [session.to_dict() for session in self.sessions],
            "summary": self.summary(),
        }


@dataclass
class SystemExperiment:
    """Runs one paper-style system experiment for a given expected workload.

    Parameters
    ----------
    system:
        Simulator-scale system configuration; defaults to a 50k-entry store.
    executor_config:
        Execution knobs (queries per session workload, latency model, seed).
    benchmark:
        Uncertainty benchmark supplying the session workloads.
    policies:
        Compaction policies the tuners may choose from (the paper's
        classical pair by default; include
        :data:`~repro.lsm.policy.Policy.LAZY_LEVELING` to let the
        experiment deploy lazy-leveling trees).
    """

    system: SystemConfig = field(default_factory=simulator_system)
    executor_config: ExecutorConfig = field(default_factory=ExecutorConfig)
    benchmark: UncertaintyBenchmark | None = None
    policies: Sequence[Policy] = CLASSIC_POLICIES
    seed: int = 11

    def __post_init__(self) -> None:
        if self.benchmark is None:
            self.benchmark = UncertaintyBenchmark(size=1_000, seed=self.seed)
        self.cost_model = LSMCostModel(self.system)
        self.executor = WorkloadExecutor(self.system, self.executor_config)

    # ------------------------------------------------------------------
    # Tunings
    # ------------------------------------------------------------------
    def tunings_for(self, expected: Workload, rho: float) -> dict[str, LSMTuning]:
        """Nominal and robust tunings (deployable, integer T) for ``expected``.

        Searched on the integer size ratios (``polish=False``): a fractional
        optimum sits on a level cliff, and rounding it down would deploy a
        tree one level deeper than the one the tuner priced.
        """
        options = dict(system=self.system, policies=self.policies, polish=False)
        return {
            "nominal": NominalTuner(**options).tune(expected).tuning.rounded(),
            "robust": RobustTuner(rho=rho, **options).tune(expected).tuning.rounded(),
        }

    # ------------------------------------------------------------------
    # Experiment execution
    # ------------------------------------------------------------------
    def _paper_sequence(
        self, expected: Workload, include_writes: bool, workloads_per_session: int
    ) -> SessionSequence:
        """The six-session sequence of Figures 8–18 around ``expected``.

        When ``expected`` carries a long-range fraction, the same split is
        applied to every session workload: the benchmark set is sampled over
        the four query types only, so the short/long range regime is a
        property of the experiment, not of the sampling.
        """
        sequence = SessionGenerator(self.benchmark, seed=self.seed).paper_sequence(
            expected,
            include_writes=include_writes,
            workloads_per_session=workloads_per_session,
        )
        if expected.long_range_fraction > 0.0:
            sequence = sequence.with_long_range_fraction(
                expected.long_range_fraction
            )
        return sequence

    def run(
        self,
        expected: Workload,
        rho: float,
        include_writes: bool = True,
        workloads_per_session: int = 2,
    ) -> SequenceComparison:
        """Execute the six-session comparison of Figures 8–18."""
        sequence = self._paper_sequence(expected, include_writes, workloads_per_session)
        tunings = self.tunings_for(expected, rho)
        return self._compare(expected, rho, sequence, tunings)

    def run_sharded(
        self,
        expected: Workload,
        rho: float,
        include_writes: bool = True,
        workloads_per_session: int = 2,
        parallel: bool = False,
    ):
        """The :meth:`run` comparison served by a hash-partitioned shard fleet.

        Shard count (and per-shard data dirs for the persistent backend)
        come from ``executor_config``; the merged fleet measurements read
        like :meth:`run`'s and collapse to them exactly at ``num_shards=1``.
        Returns a :class:`~repro.serving.executor.ShardedComparison`.
        """
        # Imported here: analysis stays importable without the serving layer.
        from ..serving import ShardedComparison, ShardedExecutor

        sequence = self._paper_sequence(expected, include_writes, workloads_per_session)
        tunings = self.tunings_for(expected, rho)
        sharded = ShardedExecutor(self.system, self.executor_config)
        measurements = sharded.compare(tunings, sequence, parallel=parallel)
        return ShardedComparison(
            expected=expected,
            rho=rho,
            num_shards=self.executor_config.num_shards,
            tunings=tunings,
            measurements=measurements,
        )

    def run_motivation(
        self,
        expected: Workload,
        shifted: Workload,
        rho: float = 1.0,
        workloads_per_session: int = 2,
    ) -> SequenceComparison:
        """Figure 1: expected / shifted / expected sessions, expected vs ideal tuning."""
        generator = SessionGenerator(self.benchmark, seed=self.seed)
        sequence = generator.motivation_sequence(
            expected, shifted, workloads_per_session=workloads_per_session
        )
        tunings = self.tunings_for(expected, rho)
        return self._compare(expected, rho, sequence, tunings)

    def _compare(
        self,
        expected: Workload,
        rho: float,
        sequence: SessionSequence,
        tunings: dict[str, LSMTuning],
    ) -> SequenceComparison:
        measurements = self.executor.compare(tunings, sequence)
        sessions = []
        for position, session in enumerate(sequence):
            observed = session.average
            model_ios = {
                name: self.cost_model.workload_cost(observed, tuning)
                for name, tuning in tunings.items()
            }
            system_ios = {
                name: measurements[name].sessions[position].ios_per_query
                for name in tunings
            }
            latency = {
                name: measurements[name].sessions[position].latency_us_per_query
                for name in tunings
            }
            sessions.append(
                SessionComparison(
                    session=session.label,
                    observed_workload=observed,
                    model_ios=model_ios,
                    system_ios=system_ios,
                    latency_us=latency,
                )
            )
        return SequenceComparison(
            expected=expected,
            rho=rho,
            observed_divergence=sequence.observed_divergence(),
            tunings=tunings,
            sessions=tuple(sessions),
        )


# ----------------------------------------------------------------------
# Figure 16 — scaling with database size
# ----------------------------------------------------------------------
def scaling_experiment(
    expected_index: int = 11,
    rho: float = 0.25,
    sizes: Sequence[int] = (10_000, 30_000, 100_000),
    queries_per_workload: int = 1_000,
    seed: int = 11,
) -> list[dict[str, float | str]]:
    """Average I/Os per query as the database size ``N`` grows (Figure 16).

    The nominal and robust tunings are computed once on the model-scale
    system (they depend only on the workload and the per-entry memory
    budget), then deployed on simulators of increasing size; the paper's
    observation is that the performance gap is stable across sizes.
    """
    expected = expected_workloads()[expected_index].workload
    rows: list[dict[str, float | str]] = []
    for size in sizes:
        system = simulator_system(num_entries=size)
        experiment = SystemExperiment(
            system=system,
            executor_config=ExecutorConfig(queries_per_workload=queries_per_workload),
            benchmark=UncertaintyBenchmark(size=500, seed=seed),
            seed=seed,
        )
        comparison = experiment.run(expected, rho=rho, include_writes=True)
        summary = comparison.summary()
        buffer_bytes = {
            name: tuning.buffer_memory_bytes(system)
            for name, tuning in comparison.tunings.items()
        }
        rows.append(
            {
                "num_entries": float(size),
                "nominal_io_per_query": summary["nominal_mean_io_per_query"],
                "robust_io_per_query": summary["robust_mean_io_per_query"],
                "nominal_tuning": comparison.tunings["nominal"].describe(),
                "robust_tuning": comparison.tunings["robust"].describe(),
                "nominal_buffer_bytes": float(buffer_bytes["nominal"]),
                "robust_buffer_bytes": float(buffer_bytes["robust"]),
            }
        )
    return rows


def format_comparison(comparison: SequenceComparison) -> str:
    """Render a :class:`SequenceComparison` as the paper-style text table."""
    lines = [
        f"expected workload: {comparison.expected.describe()}  rho={comparison.rho:g}"
        f"  observed KL={comparison.observed_divergence:.2f}",
        f"  nominal: {comparison.tunings['nominal'].describe()}",
        f"  robust:  {comparison.tunings['robust'].describe()}",
    ]
    header = (
        f"  {'session':<16}{'model N':>9}{'model R':>9}"
        f"{'sys N':>9}{'sys R':>9}{'lat N(us)':>11}{'lat R(us)':>11}"
    )
    lines.append(header)
    for session in comparison.sessions:
        lines.append(
            f"  {session.session:<16}"
            f"{session.model_ios['nominal']:>9.2f}{session.model_ios['robust']:>9.2f}"
            f"{session.system_ios['nominal']:>9.2f}{session.system_ios['robust']:>9.2f}"
            f"{session.latency_us['nominal']:>11.1f}{session.latency_us['robust']:>11.1f}"
        )
    summary = comparison.summary()
    lines.append(
        f"  I/O reduction: {100 * summary['io_reduction']:.1f}%"
        f"  latency reduction: {100 * summary['latency_reduction']:.1f}%"
    )
    return "\n".join(lines)
