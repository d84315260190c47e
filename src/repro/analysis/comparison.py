"""One experiment and the comparison it builds: the grid an executor
returned, and its text and JSON forms.

Every system result of the paper (Figures 8–18) and every experiment
built on top of them (the sharded fleet, static-vs-adaptive drift, the A→B→A
endurance trio of ``repro.figures``) is one shape: a column per named
deployment, a row per session.  :class:`Experiment` builds it — it tunes
nominal and robust for an expected workload and replays one session
sequence through both, the paper's (:meth:`Experiment.run`) or a drifting
one with adaptive columns beside (:meth:`Experiment.drift`).
``WorkloadExecutor.compare`` already returns that grid, so
:class:`Comparison` keeps its mapping as returned and adds only what an
engine cannot measure — the cost model's prediction for each static column
and, for a phased sequence, each row's phase and hindsight column.  What is
specific to a column lives on the column's own type: an
:class:`~repro.storage.executor.AdaptiveSequenceMeasurement` carries its
events and migrations, and every
:class:`~repro.storage.executor.SequenceMeasurement` its shards (a column
served by more than one is a fleet).

The numbers an experiment claims (``io_reduction``,
``adaptive_vs_oracle_converged`` …) are small functions of the grid —
:func:`robust_vs_nominal`, :func:`adaptive_vs_static` — stored on the
comparison as its ``summary`` by whoever makes the claim
(:meth:`Comparison.claiming`).  The tables (these two, and the endurance
row's) share one heading helper and one grid helper; each ``format_*`` owns
its column list and its footer sentences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.robust import RobustTuner
from ..lsm.cost_model import LSMCostModel
from ..lsm.policy import CLASSIC_POLICIES, Policy
from ..lsm.system import SystemConfig, simulator_system
from ..lsm.tuning import LSMTuning
from ..online.config import OnlineConfig
from ..storage.executor import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    SequenceMeasurement,
    WorkloadExecutor,
)
from ..workloads.benchmark import UncertaintyBenchmark
from ..workloads.sessions import (
    SessionGenerator,
    SessionSequence,
    SessionType,
    drifting_sequence,
)
from ..workloads.workload import Workload, average_workload

#: Name of the drift experiment's one adaptive column.
ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class Comparison:
    """Named deployments (columns) measured over one session sequence (rows)."""

    expected: Workload
    rho: float
    observed_divergence: float
    #: The static columns' tunings; every other column is an adaptive variant.
    tunings: Mapping[str, LSMTuning]
    #: ``{column: measurement}`` exactly as the executor returned it.
    measurements: Mapping[str, SequenceMeasurement]
    #: Model-predicted I/Os per query of each static column, per session.
    model_ios: Mapping[str, tuple[float, ...]]
    #: Of a phased (drifting) sequence: each row's phase and the name of its
    #: hindsight column — the per-phase static tuning an oracle would deploy.
    phases: tuple[str, ...] = ()
    oracle_names: tuple[str, ...] = ()
    #: The claim of the experiment that built the grid (see :meth:`claiming`).
    summary: Mapping[str, float] = field(default_factory=dict)

    def claiming(self, claim: Callable[["Comparison"], dict[str, float]]) -> "Comparison":
        """This grid with ``claim``'s numbers as its ``summary``."""
        return replace(self, summary=claim(self))

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    @property
    def _rows(self):
        return next(iter(self.measurements.values())).sessions

    @property
    def labels(self) -> list[str]:
        """Row labels; a drifting sequence numbers its sessions (``1:read``),
        since a phase repeats one label for its whole dwell."""
        labels = [session.label for session in self._rows]
        if self.phases:
            labels = [f"{index + 1}:{label}" for index, label in enumerate(labels)]
        return labels

    @property
    def observed_workloads(self) -> list[Workload]:
        """Average workload each session actually executed."""
        return [session.workload for session in self._rows]

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    @property
    def variants(self) -> list[str]:
        """Names of the adaptive columns (everything that is not static)."""
        return [name for name in self.measurements if name not in self.tunings]

    def system_ios(self, name: str) -> list[float]:
        """Measured I/Os per query of one column, per session."""
        return [s.ios_per_query for s in self.measurements[name].sessions]

    @property
    def oracle_ios(self) -> list[float]:
        """Measured I/Os of each row's hindsight (per-phase static) column."""
        return [
            self.measurements[name].sessions[index].ios_per_query
            for index, name in enumerate(self.oracle_names)
        ]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """The whole comparison as plain JSON-compatible data.

        This is what ``repro-endure compare --json`` / ``online --json``
        emit: the grid transposed to one row per session.  The drift
        document's one ``adaptive`` column keeps ``final_tuning`` and
        ``events`` at the top level; a fleet adds ``num_shards`` and the
        per-tuning ``results``.
        """
        system = {name: self.system_ios(name) for name in self.measurements}
        rows = []
        for index, (label, observed) in enumerate(zip(self.labels, self.observed_workloads)):
            row = {
                "session": label,
                "observed_workload": observed.as_dict(),
                "model_ios": {name: ios[index] for name, ios in self.model_ios.items()},
                "system_ios": {name: ios[index] for name, ios in system.items()},
            }
            if self.phases:
                row["phase"] = self.phases[index]
                row["oracle_name"] = self.oracle_names[index]
            rows.append(row)
        document = {
            "expected_workload": self.expected.as_dict(),
            "rho": self.rho,
            "observed_divergence": self.observed_divergence,
            "tunings": {name: tuning.to_dict() for name, tuning in self.tunings.items()},
            "sessions": rows,
            "summary": dict(self.summary),
        }
        adaptive = {
            name: {
                "final_tuning": m.final_tuning.to_dict(),
                "events": [event.to_dict() for event in m.events],
            }
            for name, m in self.measurements.items()
            if isinstance(m, AdaptiveSequenceMeasurement)
        }
        if adaptive:
            document["variants"] = adaptive
            document.update(adaptive.get(ADAPTIVE, {}))
        fleets = _fleets(self)
        if fleets:
            document["num_shards"] = next(iter(fleets.values())).num_shards
            document["results"] = {
                name: {
                    "mean_ios_per_query": m.average_ios_per_query,
                    "shard_percentiles": m.shard_ios_percentiles(),
                    "critical_path_s": m.critical_path_s,
                    "total_cpu_s": m.total_cpu_s,
                    "shard_ios": [run.measurement.average_ios_per_query for run in m.shards],
                }
                for name, m in fleets.items()
            }
        return document


def _fleets(comparison: Comparison) -> dict[str, SequenceMeasurement]:
    """The columns that were served by more than one shard."""
    return {name: m for name, m in comparison.measurements.items() if m.num_shards > 1}


# ----------------------------------------------------------------------
# Claims
# ----------------------------------------------------------------------
def robust_vs_nominal(comparison: Comparison) -> dict[str, float]:
    """Figures 8–18: aggregate I/O reduction of robust over nominal."""
    nominal_io = np.array(comparison.system_ios("nominal"))
    robust_io = np.array(comparison.system_ios("robust"))
    return {
        "io_reduction": float(1.0 - robust_io.sum() / max(nominal_io.sum(), 1e-12)),
        "nominal_mean_io_per_query": comparison.measurements["nominal"].average_ios_per_query,
        "robust_mean_io_per_query": comparison.measurements["robust"].average_ios_per_query,
    }


def adaptive_vs_static(comparison: Comparison) -> dict[str, float]:
    """Drift: the ``adaptive`` column against the statics and the oracle.

    ``adaptive_vs_oracle_converged`` compares only the *last* session of
    each drifted phase (every phase after the first) — after the detector
    has fired and any migration settled — which is the steady-state
    question the oracle baseline really asks; the plain means still
    charge the full detection lag and migration.
    """
    column = comparison.measurements[ADAPTIVE]
    adaptive_ios = comparison.system_ios(ADAPTIVE)
    oracle_ios = comparison.oracle_ios
    adaptive = column.average_ios_per_query
    nominal = comparison.measurements["nominal"].average_ios_per_query
    robust = comparison.measurements["robust"].average_ios_per_query
    oracle = float(np.mean(oracle_ios))
    # Keyed by the per-occurrence oracle name, so a returning phase
    # (A→B→A) contributes its own converged session rather than being
    # collapsed into the first occurrence.
    last_rows = {name: index for index, name in enumerate(comparison.oracle_names)}
    first_phase = comparison.oracle_names[0]
    drifted = [
        index for name, index in last_rows.items() if name != first_phase
    ] or list(last_rows.values())
    converged = float(
        np.mean([adaptive_ios[index] / max(oracle_ios[index], 1e-12) for index in drifted])
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
        "num_migrations": float(column.num_migrations),
        "migration_pages": float(column.migration_pages),
    }


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------
def phase_names(phases: Sequence[SessionType | str]) -> list[str]:
    """Unique table-column name of each phase occurrence: a session type that
    recurs (the returning phase of an A→B→A sequence) gets an occurrence
    suffix, so every phase keeps its own per-phase static tuning."""
    values = [SessionType(phase).value for phase in phases]
    counts = [values[: index + 1].count(value) for index, value in enumerate(values)]
    return [f"phase-{value}" + (f"-{n}" if n > 1 else "") for value, n in zip(values, counts)]


@dataclass
class Experiment:
    """Nominal and robust tunings for one expected workload, measured over
    one session sequence on the pure-Python LSM-tree simulator, the
    reproduction's stand-in for RocksDB.

    Each session's measured I/Os per query is paired with the cost model's
    prediction: the system and model panels of Figures 8–18.  The paper's
    third panel, latency, is RocksDB wall-clock, which the simulator does
    not reproduce: it counts pages and prices no time.

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

    def _deployed(self, workload: Workload, rho: float = 0.0) -> LSMTuning:
        """The tuning of radius ``rho`` for ``workload`` (it deploys as itself)."""
        search = RobustTuner(rho=rho, system=self.system, policies=self.policies)
        return search.tune(workload).tuning

    def tunings_for(self, expected: Workload, rho: float) -> dict[str, LSMTuning]:
        """Nominal and robust tunings for ``expected``, as deployed."""
        return {
            "nominal": self._deployed(expected),
            "robust": self._deployed(expected, rho),
        }

    def run(self, expected: Workload, rho: float, include_writes: bool = True) -> Comparison:
        """The six-session comparison of Figures 8–18, claiming
        :func:`robust_vs_nominal`.

        When ``expected`` carries a long-range fraction, the same split is
        applied to every session workload: the benchmark set is sampled over
        the four query types only, so the short/long range regime is a
        property of the experiment, not of the sampling.
        """
        sequence = SessionGenerator(self.benchmark, seed=self.seed).paper_sequence(
            expected, include_writes=include_writes, workloads_per_session=2
        )
        if expected.long_range_fraction > 0.0:
            sequence = sequence.with_long_range_fraction(expected.long_range_fraction)
        tunings = self.tunings_for(expected, rho)
        return self._compare(sequence, rho, tunings, {}).claiming(robust_vs_nominal)

    def drift(
        self,
        expected: Workload,
        rho: float,
        variants: Mapping[str, OnlineConfig],
        phases: Sequence[SessionType | str] = (SessionType.READ, SessionType.WRITE),
        sessions_per_phase: int = 3,
    ) -> Comparison:
        """A drifting sequence, with an adaptive column per online
        configuration; the grid comes back unclaimed (empty ``summary``).

        The static columns are nominal + robust for ``expected`` plus one
        per drift phase: the nominal solution for the *realised* average
        workload of that phase's sessions — what an oracle operator with
        hindsight would have deployed.  ``{ADAPTIVE: online}`` is the
        static-vs-adaptive experiment (claim :func:`adaptive_vs_static`);
        ``{"full": ..., "incremental": ..., "adaptive-rho": ...}`` over an
        A→B→A sequence isolates what the migration mode and the drift-aware
        radius each change, everything else held fixed.
        """
        generator = SessionGenerator(self.benchmark, seed=self.seed)
        sequence = drifting_sequence(generator, expected, phases, sessions_per_phase)
        tunings = self.tunings_for(expected, rho)
        names = phase_names(phases)
        for position, name in enumerate(names):
            dwell = sequence.sessions[position * sessions_per_phase :][:sessions_per_phase]
            realised = average_workload(w for session in dwell for w in session.workloads)
            tunings[name] = self._deployed(realised)
        oracle_names = tuple(name for name in names for _ in range(sessions_per_phase))
        return self._compare(sequence, rho, tunings, variants, oracle_names)

    def _compare(
        self,
        sequence: SessionSequence,
        rho: float,
        tunings: dict[str, LSMTuning],
        variants: Mapping[str, OnlineConfig],
        oracle_names: tuple[str, ...] = (),
    ) -> Comparison:
        """Measure every column of one grid over ``sequence``: the static
        ``tunings`` through ``executor.compare``, and each of the ``variants``
        by replaying the *same* operation stream through its own adaptive
        executor, started from the nominal tuning.  A drifting sequence names
        each row's hindsight column in ``oracle_names``."""
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
            phases=tuple(s.session_type.value for s in sequence) if oracle_names else (),
            oracle_names=oracle_names,
        )


#: The drift experiment's scale, read by ``repro online`` and the
#: ``online_adaptive`` and ``online_endurance`` rows: a 10 000-entry tree,
#: 1 000 queries per session workload and a 500-sample B.
DRIFT_ENTRIES = 10_000
DRIFT_EXECUTOR = ExecutorConfig(queries_per_workload=1_000)
DRIFT_BENCHMARK_SIZE = 500

#: The online controller of ``repro online`` and the ``online_adaptive`` row.
DRIFT_ONLINE = OnlineConfig(
    window=400, check_interval=64, min_observations=256, cooldown=2_048, confirm_checks=5,
    rho=1.0, mode="nominal", horizon_ops=12_000,
)


def drift_experiment(seed: int = Experiment.seed, **fields) -> Experiment:
    """An :class:`Experiment` at the drift scale, its B sampled with ``seed``;
    ``fields`` override the other fields."""
    return Experiment(
        **{"system": simulator_system(DRIFT_ENTRIES), "executor_config": DRIFT_EXECUTOR, **fields},
        benchmark=UncertaintyBenchmark(size=DRIFT_BENCHMARK_SIZE, seed=seed),
        seed=seed,
    )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def heading(title: str, tunings: Mapping[str, str]) -> list[str]:
    """Title line, then one ``name: tuning`` line per tuning, the labels
    padded to the longest name (plus its colon and a space)."""
    width = max(len(name) for name in tunings) + 2
    return [title] + [f"  {name + ':':<{width}}{text}" for name, text in tunings.items()]


def session_grid(
    labels: Sequence[str],
    label_width: int,
    columns: Sequence[tuple[str, int, str, Sequence[float]]],
) -> list[str]:
    """Header line and one line per session: the label, then each
    ``(header, width, format, values)`` column right-aligned in its width."""
    lines = [
        f"  {'session':<{label_width}}"
        + "".join(f"{header:>{width}}" for header, width, _, _ in columns)
    ]
    for index, label in enumerate(labels):
        lines.append(
            f"  {label:<{label_width}}"
            + "".join(f"{values[index]:>{width}{fmt}}" for _, width, fmt, values in columns)
        )
    return lines


def describe_tunings(tunings: Mapping[str, LSMTuning]) -> dict[str, str]:
    """Each tuning's one-line description, by name, for :func:`heading`."""
    return {name: tuning.describe() for name, tuning in tunings.items()}


def format_comparison(comparison: Comparison) -> str:
    """The paper-style table: model I/O and system I/O per static column,
    then — for a fleet — per-shard I/O percentiles and the two
    wall-clock views (critical path = slowest shard, harness total = summed
    shard seconds) of each tuning."""
    fleets = _fleets(comparison)
    title = (
        f"expected workload: {comparison.expected.describe()}  rho={comparison.rho:g}"
        f"  observed KL={comparison.observed_divergence:.2f}"
    )
    if fleets:
        title += f"  shards={next(iter(fleets.values())).num_shards}"
    initials = {name: name[0].upper() for name in comparison.tunings}
    columns = (
        [(f"model {i}", 9, ".2f", comparison.model_ios[n]) for n, i in initials.items()]
        + [(f"sys {i}", 9, ".2f", comparison.system_ios(n)) for n, i in initials.items()]
    )
    lines = heading(title, describe_tunings(comparison.tunings))
    lines += session_grid(comparison.labels, 16, columns)
    summary = comparison.summary
    lines.append(f"  I/O reduction: {100 * summary['io_reduction']:.1f}%")
    for name, fleet in fleets.items():
        pct = fleet.shard_ios_percentiles()
        lines.append(
            f"  {name}: fleet io/q p50={pct['p50']:.2f} p95={pct['p95']:.2f}"
            f" worst={pct['worst']:.2f}  mean={fleet.average_ios_per_query:.2f}"
        )
        lines.append(
            f"  {name}: wall-clock critical-path={fleet.critical_path_s:.3f}s"
            f" harness-total={fleet.total_cpu_s:.3f}s"
        )
    return "\n".join(lines)


def format_adaptive_comparison(comparison: Comparison) -> str:
    """The drift table: measured I/O of every static column, every per-phase
    static and the ``adaptive`` column, then its drift events."""
    adaptive = comparison.measurements[ADAPTIVE]
    tunings = describe_tunings(comparison.tunings)
    tunings["final"] = f"{adaptive.final_tuning.describe()}  (adaptive)"
    lines = heading(
        f"expected workload: {comparison.expected.describe()}  rho={comparison.rho:g}",
        tunings,
    )
    lines += session_grid(
        comparison.labels,
        18,
        [(name, 13, ".2f", comparison.system_ios(name)) for name in comparison.measurements],
    )
    for event in adaptive.events:
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
    summary = comparison.summary
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
        f" ({adaptive.num_migrations} migration(s),"
        f" {adaptive.migration_pages} pages)"
    )
    return "\n".join(lines)
