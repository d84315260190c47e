"""Re-tuning policy: solve for a new tuning and price the migration.

When the drift detector fires, the scheduler re-runs the offline machinery —
the nominal or robust tuner, whose band-by-band search runs on batched
:meth:`~repro.lsm.cost_model.LSMCostModel.cost_points` passes — on the
*observed* workload, and then decides whether deploying the winner is worth
it.  The decision is an amortisation argument: migrating rewrites the whole
tree (every resident page is read once and written once), so the predicted
per-query saving of the new tuning must recoup that I/O within a bounded
horizon of future operations.  The current tuning is always part of the
comparison ("seeded at the current tuning"): its integer size ratio lies on
the search's candidate rows, and the decision explicitly prices staying put,
so a re-tuning that cannot beat the deployed configuration never migrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.nominal import NominalTuner
from ..core.robust import RobustTuner
from ..lsm.cost_model import LSMCostModel
from ..lsm.policy import CLASSIC_POLICIES, CompactionPolicy, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..workloads.workload import Workload
from .config import OnlineConfig

#: Upper bound of a volatility-widened radius: the paper's ρ grid tops out at
#: 4, where robust tunings are essentially workload-agnostic.
RHO_CAP = 4.0

#: Multiplier on the detector's KL-trajectory volatility that a drift-aware
#: re-tuning adds to the configured ρ.
VOLATILITY_GAIN = 2.0


@dataclass(frozen=True)
class RetuningDecision:
    """A proposed re-tuning together with its predicted economics."""

    current: LSMTuning
    proposed: LSMTuning
    #: Model-predicted I/Os per query of the *current* tuning on the observed
    #: workload.
    current_cost: float
    #: Model-predicted I/Os per query of the *proposed* tuning on the same
    #: observed workload.
    proposed_cost: float
    #: Predicted I/O cost of migrating (reading and rewriting every resident
    #: page of the tree).
    migration_ios: float
    #: Number of future operations over which the migration is amortised.
    horizon_ops: int
    #: Uncertainty radius the proposal was solved for: the configured ρ, or
    #: the volatility-widened radius when drift-aware re-tuning is enabled
    #: (0 for nominal re-tunings of a non-adaptive tuner).
    rho: float = 0.0

    @property
    def predicted_gain(self) -> float:
        """Predicted per-query I/O saving of the proposed tuning."""
        return self.current_cost - self.proposed_cost

    @property
    def predicted_savings(self) -> float:
        """Predicted total I/O saving over the amortisation horizon."""
        return self.predicted_gain * self.horizon_ops

    @property
    def justified(self) -> bool:
        """Whether the predicted savings pay for the migration."""
        return (
            self.predicted_gain > 0.0
            and self.predicted_savings >= self.migration_ios
        )

    def to_dict(self) -> dict[str, object]:
        """Serialise to plain JSON-compatible data."""
        return {
            "current": self.current.to_dict(),
            "proposed": self.proposed.to_dict(),
            "current_cost": self.current_cost,
            "proposed_cost": self.proposed_cost,
            "migration_ios": self.migration_ios,
            "horizon_ops": self.horizon_ops,
            "rho": self.rho,
            "predicted_gain": self.predicted_gain,
            "justified": self.justified,
        }


class AdaptiveTuner:
    """Re-runs the offline tuner on the observed workload and prices migration.

    It reads its knobs off the :class:`~repro.online.config.OnlineConfig` it
    is handed: ``mode`` and ``rho`` (``"nominal"`` re-tunes for the observed
    point estimate, ``"robust"`` with radius ``rho`` around it — the stream
    that drifted once will drift again), ``horizon_ops`` and ``rho_adaptive``
    (:meth:`effective_rho`).

    Parameters
    ----------
    system:
        System configuration of the running tree.
    config:
        The online loop's knobs.
    policies:
        Compaction policies the re-tuner may deploy.  Entries may be enum
        members, strings, or explicit
        :class:`~repro.lsm.policy.CompactionPolicy` values — including ones
        pinning a per-level bound vector.
    """

    def __init__(
        self,
        system: SystemConfig,
        config: OnlineConfig,
        policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES,
    ) -> None:
        self.system = system
        self.config = config
        self._policies = tuple(policies)
        self.cost_model = LSMCostModel(system)
        self.tuner = self._tuner_for(config.rho)

    def _tuner_for(self, rho: float) -> NominalTuner | RobustTuner:
        """A tuner for a re-tuning of radius ``rho`` (unused in nominal mode).

        It searches the integer size ratios only: a deployment rounds ``T``
        anyway, so the online search prices the tunings that can actually be
        deployed — and nothing else.
        """
        options = dict(system=self.system, policies=self._policies, polish=False)
        if self.config.mode == "robust":
            return RobustTuner(rho=rho, **options)
        return NominalTuner(**options)

    # ------------------------------------------------------------------
    # Re-tuning
    # ------------------------------------------------------------------
    def migration_ios(self, resident_pages: int) -> float:
        """Predicted I/O cost of rebuilding a tree of ``resident_pages`` pages.

        Every resident page is read once and every page of the rebuilt tree
        is written once; the rebuilt tree occupies (approximately) the same
        number of pages, so the estimate is two passes over the data.
        """
        if resident_pages < 0:
            raise ValueError("resident_pages must be non-negative")
        return 2.0 * resident_pages

    def effective_rho(self, volatility: float = 0.0) -> float:
        """The uncertainty radius a re-tuning solves for, given ``volatility``.

        With drift-aware widening enabled, the configured ρ grows by
        :data:`VOLATILITY_GAIN` times the detector's KL-trajectory dispersion
        (capped at :data:`RHO_CAP`): the more the stream has been swinging
        around its nominal centre, the larger the ball the replacement tuning
        must cover.  A cyclic workload keeps re-escaping any tuning computed
        for either of its phases; the widened ball spans the whole cycle, so
        one migration serves it instead of one per phase.
        """
        config = self.config
        if not config.rho_adaptive or volatility <= 0.0:
            return config.rho
        # Widening can never cut below the configured radius, so a cap under
        # rho is simply inert — raised rather than rejected (a large
        # --retune-rho must not crash a non-adaptive run).
        cap = max(RHO_CAP, config.rho)
        return min(config.rho + VOLATILITY_GAIN * float(volatility), cap)

    def retune(
        self,
        observed: Workload,
        current: LSMTuning,
        resident_pages: int,
        volatility: float = 0.0,
    ) -> RetuningDecision:
        """Solve for the best tuning of ``observed`` and price the switch.

        The proposed tuning is deployable (integer size ratio); both it and
        the incumbent are evaluated by the analytical cost model on the same
        observed workload, so the decision compares like with like.
        ``volatility`` is the drift detector's KL-trajectory dispersion; it
        widens the robust radius when drift-aware re-tuning is enabled.
        """
        rho = self.effective_rho(volatility)
        tuner = self.tuner if rho == self.config.rho else self._tuner_for(rho)
        result = tuner.tune(observed)
        proposed = result.tuning.rounded()
        return RetuningDecision(
            current=current,
            proposed=proposed,
            current_cost=self.cost_model.workload_cost(observed, current),
            proposed_cost=self.cost_model.workload_cost(observed, proposed),
            migration_ios=self.migration_ios(resident_pages),
            horizon_ops=self.config.horizon_ops,
            rho=rho if self.config.mode == "robust" else 0.0,
        )
