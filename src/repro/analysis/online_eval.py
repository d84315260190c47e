"""Online adaptive tuning evaluation — the online analogue of Figures 8–18.

The paper's system experiments replay *drifting* session sequences against
statically tuned trees; this driver replays the same kind of sequences with
the online adaptive subsystem enabled and tabulates, per session,

* the measured I/Os per query of the *static nominal* tuning (tuned once for
  the expected workload),
* the static *robust* tuning (tuned once for the KL ball around it),
* the *per-phase static* tunings — one nominal tuning per drift phase, the
  hindsight configurations an oracle operator would have deployed —
* and the *adaptive* executor, which starts from the static nominal tuning
  and re-tunes on drift, with every migrated page charged to its stream.

The headline comparison: adaptive should beat static nominal outright (the
drift escapes the expectation) and, once its migration has converged, track
the best per-phase static tuning, while paying for its own migrations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.nominal import NominalTuner
from ..lsm.system import SystemConfig, simulator_system
from ..online.config import OnlineConfig
from ..storage.executor import ExecutorConfig
from ..workloads.benchmark import UncertaintyBenchmark
from ..workloads.sessions import SessionGenerator, SessionSequence, SessionType
from ..workloads.workload import Workload, average_workload
from .comparison import ADAPTIVE, Comparison, adaptive_vs_static
from .system_eval import SystemExperiment

#: Prefix of the per-phase static tunings' column names.
PHASE_PREFIX = "phase-"


def drifting_sequence(
    generator: SessionGenerator,
    expected: Workload,
    phases: Sequence[SessionType | str] = (SessionType.READ, SessionType.WRITE),
    sessions_per_phase: int = 3,
    workloads_per_session: int = 2,
) -> SessionSequence:
    """A session sequence that dwells in each phase before drifting to the next.

    Unlike :meth:`~repro.workloads.sessions.SessionGenerator.paper_sequence`,
    which hops between session types every session, this produces sustained
    phases (``sessions_per_phase`` sessions each) — the kind of drift a
    windowed estimator can actually detect and a migration can pay off on.
    """
    if sessions_per_phase <= 0:
        raise ValueError("sessions_per_phase must be positive")
    if not phases:
        raise ValueError("at least one phase is required")
    sessions = tuple(
        generator.session(phase, expected, workloads_per_session)
        for phase in phases
        for _ in range(sessions_per_phase)
    )
    return SessionSequence(expected=expected, sessions=sessions)


def phase_names(phases: Sequence[SessionType | str]) -> list[str]:
    """Unique table-column name of each phase occurrence.

    A session type that recurs (e.g. the returning phase of an A→B→A
    sequence) gets an occurrence suffix, so every phase keeps its own
    per-phase static tuning instead of silently sharing one.
    """
    names: list[str] = []
    seen: dict[str, int] = {}
    for phase in phases:
        base = PHASE_PREFIX + str(SessionType(phase).value)
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}-{seen[base]}")
    return names


@dataclass
class AdaptiveExperiment(SystemExperiment):
    """Runs one static-vs-adaptive experiment over a drifting sequence.

    A :class:`~repro.analysis.system_eval.SystemExperiment` with sustained
    drift phases, one hindsight static column per phase, and the online
    subsystem in the comparison.
    """

    system: SystemConfig = field(default_factory=lambda: simulator_system(10_000))
    executor_config: ExecutorConfig = field(
        default_factory=lambda: ExecutorConfig(queries_per_workload=1_000)
    )
    online: OnlineConfig = field(
        default_factory=lambda: OnlineConfig(
            window=400,
            check_interval=64,
            min_observations=256,
            cooldown=2_048,
            confirm_checks=5,
            rho=1.0,
            mode="nominal",
            horizon_ops=12_000,
        )
    )

    def __post_init__(self) -> None:
        if self.benchmark is None:
            self.benchmark = UncertaintyBenchmark(size=500, seed=self.seed)
        super().__post_init__()

    def run(
        self,
        expected: Workload,
        rho: float,
        phases: Sequence[SessionType | str] = (SessionType.READ, SessionType.WRITE),
        sessions_per_phase: int = 3,
        workloads_per_session: int = 2,
    ) -> Comparison:
        """The static-vs-adaptive comparison: ``self.online`` as the one
        ``adaptive`` column, under the drift claim."""
        return self.run_variants(
            expected, rho, {ADAPTIVE: self.online}, phases, sessions_per_phase, workloads_per_session
        ).claiming(adaptive_vs_static)

    def run_variants(
        self,
        expected: Workload,
        rho: float,
        variants: Mapping[str, OnlineConfig],
        phases: Sequence[SessionType | str],
        sessions_per_phase: int = 3,
        workloads_per_session: int = 2,
    ) -> Comparison:
        """One comparison with an adaptive column per online configuration.

        The static columns are nominal + robust for ``expected`` plus one
        per drift phase: the nominal solution for the *realised* average
        workload of that phase's sessions — exactly what an oracle operator
        with hindsight would have deployed.  Every variant then replays the
        *same* operation stream through its own adaptive executor.  This is
        the endurance harness: e.g. ``{"full": ..., "incremental": ...,
        "adaptive-rho": ...}`` over an A→B→A sequence isolates what the
        migration mode and the drift-aware radius each change, everything
        else held fixed.  The grid comes back unclaimed (empty ``summary``).
        """
        phases = tuple(SessionType(phase) for phase in phases)
        generator = SessionGenerator(self.benchmark, seed=self.seed)
        sequence = drifting_sequence(
            generator, expected, phases, sessions_per_phase, workloads_per_session
        )
        tunings = self.tunings_for(expected, rho)
        names = phase_names(phases)
        phase_of = [index // sessions_per_phase for index in range(len(sequence))]
        for position, name in enumerate(names):
            dwell = (s for s, phase in zip(sequence, phase_of) if phase == position)
            realised = average_workload(w for session in dwell for w in session.workloads)
            tunings[name] = self._deployed(NominalTuner, realised)
        return self._compare(
            sequence,
            rho,
            tunings,
            variants,
            phases=tuple(str(phases[phase].value) for phase in phase_of),
            oracle_names=tuple(names[phase] for phase in phase_of),
        )
