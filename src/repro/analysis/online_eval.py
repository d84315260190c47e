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

import numpy as np

from ..core.nominal import NominalTuner
from ..core.robust import RobustTuner
from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig, simulator_system
from ..lsm.tuning import LSMTuning
from ..online.controller import OnlineConfig, RetuningEvent
from ..storage.executor import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    SequenceMeasurement,
    WorkloadExecutor,
)
from ..workloads.benchmark import UncertaintyBenchmark
from ..workloads.sessions import SessionGenerator, SessionSequence, SessionType
from ..workloads.workload import Workload, average_workload

#: Name of the adaptive executor's column in tables and dictionaries.
ADAPTIVE = "adaptive"

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


def _phase_of(index: int, num_phases: int, num_sessions: int) -> int:
    """Phase index of session ``index`` in an evenly phased sequence."""
    per_phase = num_sessions // num_phases
    return min(index // per_phase, num_phases - 1)


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


@dataclass(frozen=True)
class AdaptiveSessionRow:
    """Measured I/Os per query of one session under every executor."""

    session: str
    phase: str
    observed_workload: Workload
    system_ios: Mapping[str, float]
    latency_us: Mapping[str, float]
    #: The per-phase static tuning this session's phase belongs to.
    oracle_name: str

    @property
    def oracle_ios(self) -> float:
        """Measured I/Os of the hindsight (per-phase static) tuning."""
        return self.system_ios[self.oracle_name]

    def to_dict(self) -> dict[str, object]:
        """Serialise to plain JSON-compatible data."""
        return {
            "session": self.session,
            "phase": self.phase,
            "observed_workload": self.observed_workload.as_dict(),
            "system_ios": dict(self.system_ios),
            "latency_us": dict(self.latency_us),
            "oracle_name": self.oracle_name,
        }


@dataclass(frozen=True)
class AdaptiveComparison:
    """Static nominal / static robust / per-phase / adaptive over one sequence."""

    expected: Workload
    rho: float
    tunings: Mapping[str, LSMTuning]
    sessions: tuple[AdaptiveSessionRow, ...]
    events: tuple[RetuningEvent, ...]
    final_tuning: LSMTuning

    @property
    def num_migrations(self) -> int:
        """Migrations the adaptive executor applied."""
        return sum(1 for event in self.events if event.migrated)

    @property
    def migration_pages(self) -> int:
        """Total pages read + written by those migrations."""
        return sum(event.migration_pages for event in self.events)

    def mean_ios(self, name: str) -> float:
        """Mean measured I/Os per query of one executor over all sessions."""
        return float(np.mean([row.system_ios[name] for row in self.sessions]))

    @property
    def oracle_mean_ios(self) -> float:
        """Mean I/Os of the best per-phase static tuning (hindsight baseline)."""
        return float(np.mean([row.oracle_ios for row in self.sessions]))

    def summary(self) -> dict[str, float]:
        """Aggregate comparison of the adaptive executor against the statics.

        ``adaptive_vs_oracle_converged`` compares only the *last* session of
        each drifted phase (every phase after the first) — after the detector
        has fired and any migration settled — which is the steady-state
        question the oracle baseline really asks; the plain means still
        charge the full detection lag and migration.
        """
        adaptive = self.mean_ios(ADAPTIVE)
        nominal = self.mean_ios("nominal")
        robust = self.mean_ios("robust")
        oracle = self.oracle_mean_ios
        # Keyed by the per-occurrence oracle name, so a returning phase
        # (A→B→A) contributes its own converged session rather than being
        # collapsed into the first occurrence.
        last_rows = {row.oracle_name: row for row in self.sessions}
        first_phase = self.sessions[0].oracle_name
        drifted = [
            row for name, row in last_rows.items() if name != first_phase
        ] or list(last_rows.values())
        converged = float(
            np.mean(
                [
                    row.system_ios[ADAPTIVE] / max(row.oracle_ios, 1e-12)
                    for row in drifted
                ]
            )
        )
        return {
            "nominal_mean_io_per_query": nominal,
            "robust_mean_io_per_query": robust,
            "adaptive_mean_io_per_query": adaptive,
            "oracle_mean_io_per_query": oracle,
            "adaptive_vs_nominal_reduction": 1.0 - adaptive / max(nominal, 1e-12),
            "adaptive_vs_robust_reduction": 1.0 - adaptive / max(robust, 1e-12),
            "adaptive_vs_oracle_ratio": adaptive / max(oracle, 1e-12),
            "adaptive_vs_oracle_converged": converged,
            "num_migrations": float(self.num_migrations),
            "migration_pages": float(self.migration_pages),
        }

    def to_dict(self) -> dict[str, object]:
        """Serialise the whole comparison to plain JSON-compatible data."""
        return {
            "expected_workload": self.expected.as_dict(),
            "rho": self.rho,
            "tunings": {
                name: tuning.to_dict() for name, tuning in self.tunings.items()
            },
            "final_tuning": self.final_tuning.to_dict(),
            "sessions": [row.to_dict() for row in self.sessions],
            "events": [event.to_dict() for event in self.events],
            "summary": self.summary(),
        }


@dataclass
class AdaptiveExperiment:
    """Runs one static-vs-adaptive experiment over a drifting sequence.

    Mirrors :class:`~repro.analysis.system_eval.SystemExperiment` but with
    sustained drift phases and the online subsystem in the comparison.
    """

    system: SystemConfig = field(default_factory=lambda: simulator_system(10_000))
    executor_config: ExecutorConfig = field(
        default_factory=lambda: ExecutorConfig(queries_per_workload=1_000)
    )
    benchmark: UncertaintyBenchmark | None = None
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
    policies: Sequence[Policy] = CLASSIC_POLICIES
    parallel: bool = False
    seed: int = 11

    def __post_init__(self) -> None:
        if self.benchmark is None:
            self.benchmark = UncertaintyBenchmark(size=500, seed=self.seed)
        self.executor = WorkloadExecutor(self.system, self.executor_config)

    # ------------------------------------------------------------------
    # Tunings
    # ------------------------------------------------------------------
    def _nominal_for(self, workload: Workload) -> LSMTuning:
        # Deployed tunings are searched on the integer size ratios: rounding a
        # fractional optimum down would step off its level cliff.
        tuner = NominalTuner(system=self.system, policies=self.policies, polish=False)
        return tuner.tune(workload).tuning.rounded()

    def static_tunings(
        self, expected: Workload, rho: float, sequence: SessionSequence,
        phases: Sequence[SessionType | str],
    ) -> dict[str, LSMTuning]:
        """Static nominal + robust for ``expected``, plus one per drift phase.

        The per-phase tunings are nominal solutions for the *realised*
        average workload of each phase's sessions — exactly what an oracle
        operator with hindsight would have deployed.
        """
        tunings = {
            "nominal": self._nominal_for(expected),
            "robust": RobustTuner(
                rho=rho,
                system=self.system,
                policies=self.policies,
                polish=False,
            ).tune(expected).tuning.rounded(),
        }
        num_phases = len(phases)
        for phase_index, name in enumerate(phase_names(phases)):
            phase_sessions = [
                session
                for index, session in enumerate(sequence)
                if _phase_of(index, num_phases, len(sequence)) == phase_index
            ]
            phase_average = average_workload(
                workload for session in phase_sessions for workload in session.workloads
            )
            tunings[name] = self._nominal_for(phase_average)
        return tunings

    # ------------------------------------------------------------------
    # Experiment execution
    # ------------------------------------------------------------------
    def run(
        self,
        expected: Workload,
        rho: float,
        phases: Sequence[SessionType | str] = (SessionType.READ, SessionType.WRITE),
        sessions_per_phase: int = 3,
        workloads_per_session: int = 2,
    ) -> AdaptiveComparison:
        """Execute the full static-vs-adaptive comparison."""
        phases = tuple(SessionType(p) if isinstance(p, str) else p for p in phases)
        sequence = self._sequence(
            expected, phases, sessions_per_phase, workloads_per_session
        )
        tunings = self.static_tunings(expected, rho, sequence, phases)
        measurements = self.executor.compare_adaptive(
            tunings,
            sequence,
            adaptive_from="nominal",
            online=self.online,
            policies=self.policies,
            parallel=self.parallel,
        )
        return self._build_comparison(
            expected, rho, phases, sequence, tunings, measurements
        )

    def run_variants(
        self,
        expected: Workload,
        rho: float,
        variants: Mapping[str, OnlineConfig],
        phases: Sequence[SessionType | str] = (
            SessionType.READ,
            SessionType.WRITE,
            SessionType.READ,
        ),
        sessions_per_phase: int = 3,
        workloads_per_session: int = 2,
    ) -> dict[str, AdaptiveComparison]:
        """One adaptive comparison per online configuration, statics shared.

        The session sequence, the static tunings and their measurements are
        computed once; each variant then replays the *same* operation stream
        through its own adaptive executor.  This is the endurance harness:
        e.g. ``{"full": ..., "incremental": ..., "adaptive-rho": ...}`` over
        an A→B→A sequence isolates what the migration mode and the
        drift-aware radius each change, everything else held fixed.
        """
        phases = tuple(SessionType(p) if isinstance(p, str) else p for p in phases)
        sequence = self._sequence(
            expected, phases, sessions_per_phase, workloads_per_session
        )
        tunings = self.static_tunings(expected, rho, sequence, phases)
        static = dict(self.executor.compare(tunings, sequence, parallel=self.parallel))
        comparisons: dict[str, AdaptiveComparison] = {}
        for name, online in variants.items():
            adaptive = self.executor.run_sequence_adaptive(
                tunings["nominal"], sequence, online=online, policies=self.policies
            )
            measurements: dict[str, SequenceMeasurement] = dict(static)
            measurements[ADAPTIVE] = adaptive
            comparisons[name] = self._build_comparison(
                expected, rho, phases, sequence, tunings, measurements
            )
        return comparisons

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _sequence(
        self,
        expected: Workload,
        phases: tuple[SessionType, ...],
        sessions_per_phase: int,
        workloads_per_session: int,
    ) -> SessionSequence:
        generator = SessionGenerator(self.benchmark, seed=self.seed)
        return drifting_sequence(
            generator,
            expected,
            phases=phases,
            sessions_per_phase=sessions_per_phase,
            workloads_per_session=workloads_per_session,
        )

    def _build_comparison(
        self,
        expected: Workload,
        rho: float,
        phases: tuple[SessionType, ...],
        sequence: SessionSequence,
        tunings: dict[str, LSMTuning],
        measurements: Mapping[str, SequenceMeasurement],
    ) -> AdaptiveComparison:
        adaptive: AdaptiveSequenceMeasurement = measurements[ADAPTIVE]
        rows = []
        num_phases = len(phases)
        oracle_names = phase_names(phases)
        for index, session in enumerate(sequence):
            phase_index = _phase_of(index, num_phases, len(sequence))
            names = list(tunings) + [ADAPTIVE]
            rows.append(
                AdaptiveSessionRow(
                    session=f"{index + 1}:{session.label}",
                    phase=str(phases[phase_index].value),
                    observed_workload=session.average,
                    system_ios={
                        name: measurements[name].sessions[index].ios_per_query
                        for name in names
                    },
                    latency_us={
                        name: measurements[name].sessions[index].latency_us_per_query
                        for name in names
                    },
                    oracle_name=oracle_names[phase_index],
                )
            )
        return AdaptiveComparison(
            expected=expected,
            rho=rho,
            tunings=tunings,
            sessions=tuple(rows),
            events=adaptive.events,
            final_tuning=adaptive.final_tuning,
        )


@dataclass(frozen=True)
class EnduranceComparison:
    """Adaptive-executor variants over one returning-phase (A→B→A) sequence.

    Produced by :meth:`AdaptiveExperiment.run_variants`; expects (at least)
    the three canonical variants:

    * ``"full"`` — all-at-once migrations with a fixed radius,
    * ``"incremental"`` — the level-by-level migration plan, fixed radius,
    * ``"adaptive-rho"`` — incremental migrations with the drift-aware
      (volatility-widened) robust radius.
    """

    variants: Mapping[str, AdaptiveComparison]

    FULL = "full"
    INCREMENTAL = "incremental"
    ADAPTIVE_RHO = "adaptive-rho"

    def __post_init__(self) -> None:
        required = {self.FULL, self.INCREMENTAL, self.ADAPTIVE_RHO}
        missing = required - set(self.variants)
        if missing:
            raise ValueError(
                "EnduranceComparison needs the canonical variants "
                f"{sorted(required)}; missing {sorted(missing)} "
                "(run_variants accepts arbitrary names — wrap only the "
                "endurance trio in this comparison)"
            )

    def worst_session_ios(self, name: str) -> float:
        """Worst per-session I/Os per query of one variant's adaptive run.

        The endurance suite's spike metric: a full migration concentrates
        its whole rebuild in the session the detector fired in, an
        incremental plan spreads it.
        """
        return max(row.system_ios[ADAPTIVE] for row in self.variants[name].sessions)

    def summary(self) -> dict[str, float]:
        """The endurance suite's pinned claims, as one flat mapping."""
        full = self.variants[self.FULL]
        incremental = self.variants[self.INCREMENTAL]
        adaptive_rho = self.variants[self.ADAPTIVE_RHO]
        full_worst = self.worst_session_ios(self.FULL)
        incremental_worst = self.worst_session_ios(self.INCREMENTAL)
        return {
            "full_worst_session_io": full_worst,
            "incremental_worst_session_io": incremental_worst,
            "spike_reduction": 1.0 - incremental_worst / max(full_worst, 1e-12),
            "full_mean_io": full.mean_ios(ADAPTIVE),
            "incremental_mean_io": incremental.mean_ios(ADAPTIVE),
            "oracle_mean_io": incremental.oracle_mean_ios,
            "incremental_vs_oracle_ratio": incremental.mean_ios(ADAPTIVE)
            / max(incremental.oracle_mean_ios, 1e-12),
            "fixed_rho_migrations": float(incremental.num_migrations),
            "adaptive_rho_migrations": float(adaptive_rho.num_migrations),
            "adaptive_rho_mean_io": adaptive_rho.mean_ios(ADAPTIVE),
            "adaptive_rho_migration_pages": float(adaptive_rho.migration_pages),
            "incremental_migration_pages": float(incremental.migration_pages),
        }

    def to_dict(self) -> dict[str, object]:
        """Serialise the whole endurance comparison to plain data."""
        return {
            "variants": {
                name: comparison.to_dict()
                for name, comparison in self.variants.items()
            },
            "summary": self.summary(),
        }


def format_endurance_comparison(comparison: EnduranceComparison) -> str:
    """Render an :class:`EnduranceComparison` as a text table."""
    variants = comparison.variants
    reference = next(iter(variants.values()))
    lines = [
        f"expected workload: {reference.expected.describe()}"
        f"  rho={reference.rho:g}  (A->B->A endurance)",
    ]
    for name, tuning in reference.tunings.items():
        lines.append(f"  {name + ':':<13}{tuning.describe()}")

    names = list(variants)
    header = f"  {'session':<18}{'oracle':>13}" + "".join(
        f"{name:>15}" for name in names
    )
    lines.append(header)
    for index, row in enumerate(reference.sessions):
        cells = "".join(
            f"{variants[name].sessions[index].system_ios[ADAPTIVE]:>15.2f}"
            for name in names
        )
        lines.append(f"  {row.session:<18}{row.oracle_ios:>13.2f}" + cells)

    for name in names:
        comp = variants[name]
        lines.append(
            f"  {name}: {comp.num_migrations} migration(s),"
            f" {comp.migration_pages} pages,"
            f" worst session {comparison.worst_session_ios(name):.2f} io/q,"
            f" mean {comp.mean_ios(ADAPTIVE):.2f} io/q,"
            f" final [{comp.final_tuning.describe()}]"
        )
        for event in comp.events:
            decision = event.decision
            action = (
                f"migrated over {event.migration_steps} step(s)"
                f" to [{decision.proposed.describe()}]"
                if event.migrated
                else "declined"
            )
            lines.append(
                f"    drift @ op {event.position}:"
                f" rho={decision.rho:.2f}"
                f"  migration={decision.migration_ios:.0f} I/Os -> {action}"
            )

    summary = comparison.summary()
    lines.append(
        "  worst per-session I/O spike:"
        f" full {summary['full_worst_session_io']:.2f}"
        f" -> incremental {summary['incremental_worst_session_io']:.2f}"
        f" ({100 * summary['spike_reduction']:.1f}% lower)"
    )
    lines.append(
        "  mean I/Os per query:"
        f" full {summary['full_mean_io']:.2f}"
        f"  incremental {summary['incremental_mean_io']:.2f}"
        f"  adaptive-rho {summary['adaptive_rho_mean_io']:.2f}"
        f"  oracle {summary['oracle_mean_io']:.2f}"
        f"  (incremental {summary['incremental_vs_oracle_ratio']:.2f}x oracle)"
    )
    lines.append(
        "  migrations on the cyclic trace:"
        f" fixed-rho {summary['fixed_rho_migrations']:.0f}"
        f" -> adaptive-rho {summary['adaptive_rho_migrations']:.0f}"
    )
    return "\n".join(lines)


def format_adaptive_comparison(comparison: AdaptiveComparison) -> str:
    """Render an :class:`AdaptiveComparison` as a text table."""
    lines = [
        f"expected workload: {comparison.expected.describe()}"
        f"  rho={comparison.rho:g}",
    ]
    for name, tuning in comparison.tunings.items():
        lines.append(f"  {name + ':':<13}{tuning.describe()}")
    lines.append(f"  {'final:':<13}{comparison.final_tuning.describe()}  (adaptive)")

    names = list(comparison.tunings) + [ADAPTIVE]
    header = f"  {'session':<18}" + "".join(f"{name:>13}" for name in names)
    lines.append(header)
    for row in comparison.sessions:
        lines.append(
            f"  {row.session:<18}"
            + "".join(f"{row.system_ios[name]:>13.2f}" for name in names)
        )

    for event in comparison.events:
        decision = event.decision
        action = (
            f"migrated to [{decision.proposed.describe()}]"
            if event.migrated
            else "declined"
        )
        lines.append(
            f"  drift @ op {event.position}: KL={event.divergence:.2f}"
            f"  gain={decision.predicted_gain:.2f} io/q"
            f"  migration={decision.migration_ios:.0f} I/Os -> {action}"
        )

    summary = comparison.summary()
    lines.append(
        "  mean I/Os per query:"
        f"  nominal {summary['nominal_mean_io_per_query']:.2f}"
        f"  robust {summary['robust_mean_io_per_query']:.2f}"
        f"  oracle {summary['oracle_mean_io_per_query']:.2f}"
        f"  adaptive {summary['adaptive_mean_io_per_query']:.2f}"
    )
    lines.append(
        f"  adaptive vs nominal: {100 * summary['adaptive_vs_nominal_reduction']:.1f}%"
        f" fewer I/Os; vs best per-phase static:"
        f" {summary['adaptive_vs_oracle_ratio']:.2f}x overall,"
        f" {summary['adaptive_vs_oracle_converged']:.2f}x converged"
        f" ({comparison.num_migrations} migration(s),"
        f" {comparison.migration_pages} pages)"
    )
    return "\n".join(lines)
