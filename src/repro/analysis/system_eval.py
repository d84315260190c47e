"""System-based evaluation (Section 8, Figures 8–18).

A :class:`SystemExperiment` runs a query sequence on the pure-Python LSM-tree
simulator, the reproduction's stand-in for RocksDB, and pairs each session's
measured I/Os per query with the cost model's prediction: the system and
model panels of Figures 8–18.  The paper's third panel, latency, is RocksDB
wall-clock, which the simulator does not reproduce: it counts pages and
prices no time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.nominal import NominalTuner
from ..core.robust import RobustTuner
from ..lsm.cost_model import LSMCostModel
from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig, simulator_system
from ..lsm.tuning import LSMTuning
from ..online.config import OnlineConfig
from ..storage.executor import ExecutorConfig, WorkloadExecutor
from ..workloads.benchmark import UncertaintyBenchmark
from ..workloads.sessions import SessionGenerator, SessionSequence
from ..workloads.workload import Workload
from .comparison import Comparison, robust_vs_nominal


@dataclass
class SystemExperiment:
    """Runs one paper-style system experiment for a given expected workload.

    Parameters
    ----------
    system:
        Simulator-scale system configuration; defaults to a 50k-entry store.
    executor_config:
        Execution knobs (queries per session workload, trace shape, seed).
        The executor serves every static column from ``num_shards``
        hash-partitioned shards (per-shard data dirs for the persistent
        backend); the merged fleet measurements read like a single tree's,
        and ``num_shards=1`` is the single tree.  Adaptive variants need one
        shard.
    benchmark:
        Uncertainty benchmark supplying the session workloads.
    policies:
        Compaction policies the tuners may choose from (the paper's
        classical pair by default; include
        :data:`~repro.lsm.policy.Policy.LAZY_LEVELING` to let the
        experiment deploy lazy-leveling trees).
    parallel:
        Measure the static tunings on the executor's process pool.
    """

    system: SystemConfig = field(default_factory=simulator_system)
    executor_config: ExecutorConfig = field(default_factory=ExecutorConfig)
    benchmark: UncertaintyBenchmark | None = None
    policies: Sequence[Policy] = CLASSIC_POLICIES
    parallel: bool = False
    seed: int = 11

    def __post_init__(self) -> None:
        if self.benchmark is None:
            self.benchmark = UncertaintyBenchmark(size=1_000, seed=self.seed)
        self.cost_model = LSMCostModel(self.system)
        self.executor = WorkloadExecutor(self.system, self.executor_config)

    def _deployed(self, tuner: type, workload: Workload, **options) -> LSMTuning:
        """``tuner``'s deployable (integer ``T``) tuning for ``workload``.

        Searched on the integer size ratios (``polish=False``): a fractional
        optimum sits on a level cliff, and rounding it down would deploy a
        tree one level deeper than the one the tuner priced.
        """
        search = tuner(system=self.system, policies=self.policies, polish=False, **options)
        return search.tune(workload).tuning.rounded()

    def tunings_for(self, expected: Workload, rho: float) -> dict[str, LSMTuning]:
        """Nominal and robust tunings for ``expected``, as deployed."""
        return {
            "nominal": self._deployed(NominalTuner, expected),
            "robust": self._deployed(RobustTuner, expected, rho=rho),
        }

    def run(
        self,
        expected: Workload,
        rho: float,
        include_writes: bool = True,
        workloads_per_session: int = 2,
    ) -> Comparison:
        """Execute the six-session comparison of Figures 8–18.

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
        comparison = self._compare(sequence, rho, self.tunings_for(expected, rho), {})
        return comparison.claiming(robust_vs_nominal)

    def _compare(
        self,
        sequence: SessionSequence,
        rho: float,
        tunings: dict[str, LSMTuning],
        variants: Mapping[str, OnlineConfig],
        phases: tuple[str, ...] = (),
        oracle_names: tuple[str, ...] = (),
    ) -> Comparison:
        """Measure every column of one grid over ``sequence``.

        The static ``tunings`` go through ``executor.compare``; each of the
        ``variants`` replays the *same* operation stream through its own
        adaptive executor, started from the nominal tuning.  ``phases`` and
        ``oracle_names`` are a drifting sequence's, one entry per row.
        """
        # The variants run first, so a fleet, which cannot run them, fails
        # before any static column is measured.
        adaptive = {
            name: self.executor.run_sequence_adaptive(
                tunings["nominal"], sequence, online=online, policies=self.policies
            )
            for name, online in variants.items()
        }
        measurements = {
            **self.executor.compare(tunings, sequence, parallel=self.parallel),
            **adaptive,
        }
        return Comparison(
            expected=sequence.expected,
            rho=rho,
            observed_divergence=sequence.observed_divergence(),
            tunings=tunings,
            measurements=measurements,
            model_ios={
                name: tuple(
                    self.cost_model.workload_cost(session.average, tuning)
                    for session in sequence
                )
                for name, tuning in tunings.items()
            },
            phases=phases,
            oracle_names=oracle_names,
        )
