"""One comparison: the grid an executor returned, and its text and JSON forms.

Every system result of the paper (Figures 8–18) and every experiment
built on top of them (the sharded fleet, static-vs-adaptive drift, the A→B→A
endurance trio of ``repro.figures``) is one shape: a column per named
deployment, a row per session.  ``WorkloadExecutor.compare`` already returns
exactly that, so
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

from ..lsm.tuning import LSMTuning
from ..storage.executor import AdaptiveSequenceMeasurement, SequenceMeasurement
from ..workloads.workload import Workload

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
# Tables
# ----------------------------------------------------------------------
def _heading(title: str, tunings: Mapping[str, str]) -> list[str]:
    """Title line, then one ``name: tuning`` line per tuning, the labels
    padded to the longest name (plus its colon and a space)."""
    width = max(len(name) for name in tunings) + 2
    return [title] + [f"  {name + ':':<{width}}{text}" for name, text in tunings.items()]


def _grid(
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


def _describe(tunings: Mapping[str, LSMTuning]) -> dict[str, str]:
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
    lines = _heading(title, _describe(comparison.tunings))
    lines += _grid(comparison.labels, 16, columns)
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
    tunings = _describe(comparison.tunings)
    tunings["final"] = f"{adaptive.final_tuning.describe()}  (adaptive)"
    lines = _heading(
        f"expected workload: {comparison.expected.describe()}  rho={comparison.rho:g}",
        tunings,
    )
    lines += _grid(
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
