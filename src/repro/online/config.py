"""The knobs of the online adaptive-tuning loop, each declared once.

Every :class:`OnlineConfig` field is a :func:`~repro.knobs.knob`: its default,
its help text, its bound and its flag live on the field, ``__post_init__``
holds the value to the bound, ``repro-endure online --help`` lists the same
strings, and the components of the loop read the config they are handed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..knobs import NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE_INT, check_knobs, knob

#: Re-tuning modes: re-run the nominal tuner on the observed workload, or the
#: robust tuner with the configured radius around it.
RETUNING_MODES: tuple[str, ...] = ("nominal", "robust")

#: Migration execution modes: rebuild the whole tree in one shot, or spread a
#: level-by-level :class:`~repro.online.migration.MigrationPlan` over the
#: operation stream.
MIGRATION_MODES: tuple[str, ...] = ("full", "incremental")

#: Admission policies for incremental migration steps: a fixed cadence, or
#: steps deferred to the end of the stream's current window (see
#: :func:`~repro.online.controller.ops_until_step`).
ADMISSION_MODES: tuple[str, ...] = ("fixed", "queue-depth")


@dataclass
class OnlineConfig:
    """Knobs of the online adaptive-tuning loop."""

    window: int = knob(
        2_000, "effective window (operations) of the rolling workload estimator", POSITIVE_INT
    )
    check_interval: int = knob(256, "operations between drift checks", POSITIVE_INT)
    min_observations: int = knob(
        512, "estimator warm-up (observations) before drift may fire", NON_NEGATIVE_INT
    )
    cooldown: int = knob(
        4_096, "operations after a firing during which drift is suppressed", NON_NEGATIVE_INT
    )
    confirm_checks: int = knob(
        3,
        "consecutive out-of-region checks required before drift fires (lets the estimator "
        "window flush the pre-drift mix before re-tuning)",
        POSITIVE_INT,
    )
    threshold: float | None = knob(
        None,
        "KL drift threshold (default: the re-tuning radius — the detector watches the same "
        "ball the robust tuner optimised for)",
        NON_NEGATIVE,
    )
    mode: str = knob("robust", "re-tuner run on drift", RETUNING_MODES)
    rho: float = knob(
        0.25,
        "uncertainty radius of robust re-tunings (and the default drift threshold)",
        NON_NEGATIVE,
        flag="--retune-rho",
    )
    horizon_ops: int = knob(
        20_000,
        "operations over which a migration's cost must be recouped",
        POSITIVE_INT,
        flag="--horizon",
    )
    migration: str = knob(
        "full",
        "migration execution: 'full' rebuilds the tree at the firing (one concentrated I/O "
        "spike), 'incremental' spreads a level-by-level plan over the stream while a mixed "
        "old/new state serves queries",
        MIGRATION_MODES,
    )
    migration_step_ops: int = knob(
        256,
        "operations between incremental migration steps (the first runs at the firing)",
        POSITIVE_INT,
    )
    migration_step_pages: int | None = knob(
        None, "page cap per incremental migration step (default: one run per step)", POSITIVE_INT
    )
    admission: str = knob(
        "fixed",
        "incremental migration-step admission: 'fixed' paces one step every "
        "--migration-step-ops operations, 'queue-depth' defers a due step to the end of "
        "the stream's current 4096-operation window and drains the plan in idle gaps",
        ADMISSION_MODES,
    )
    rho_adaptive: bool = knob(
        False,
        "widen the robust re-tuning radius with the observed KL-trajectory volatility (cyclic "
        "workloads get tuned once for the whole cycle instead of migrating every phase); "
        "requires --mode robust",
    )

    def __post_init__(self) -> None:
        check_knobs(self)
        # Silently widening only the *detector* would leave it watching a
        # ball the deployed tuning does not cover.
        if self.rho_adaptive and self.mode != "robust":
            raise ValueError(
                "rho_adaptive requires mode='robust': nominal re-tunings have "
                "no radius to widen"
            )

    @property
    def drift_threshold(self) -> float:
        """The KL radius the drift detector watches."""
        return self.rho if self.threshold is None else self.threshold
