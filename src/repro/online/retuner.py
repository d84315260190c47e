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

#: Re-tuning modes: re-run the nominal tuner on the observed workload, or the
#: robust tuner with the configured radius around it.
RETUNING_MODES: tuple[str, ...] = ("nominal", "robust")


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
    #: Multiplier on the migration cost the predicted savings must clear.
    safety_factor: float = 1.0
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
            and self.predicted_savings >= self.safety_factor * self.migration_ios
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
            "safety_factor": self.safety_factor,
            "rho": self.rho,
            "predicted_gain": self.predicted_gain,
            "justified": self.justified,
        }


class AdaptiveTuner:
    """Re-runs the offline tuner on the observed workload and prices migration.

    Parameters
    ----------
    system:
        System configuration of the running tree.
    mode:
        ``"nominal"`` re-tunes for the observed workload point estimate;
        ``"robust"`` re-tunes robustly with radius ``rho`` around it (the
        stream that drifted once will drift again).
    rho:
        Uncertainty radius of robust re-tunings (ignored in nominal mode).
    policies:
        Compaction policies the re-tuner may deploy.  Entries may be enum
        members, strings, or explicit
        :class:`~repro.lsm.policy.CompactionPolicy` values — including ones
        pinning a per-level bound vector.
    k_vector_search:
        Whether fluid re-tunings search per-level ``K_i`` bound vectors
        (structured families + coordinate descent over integer bounds),
        exactly like the offline tuners' flag.  A vector proposal
        flows through the migration machinery unchanged: the decision
        serialises the vector, and the rebuilt (or incrementally migrated)
        tree deploys it.
    horizon_ops:
        Amortisation horizon of migrations, in operations.
    safety_factor:
        Multiplier on the migration cost the predicted savings must clear
        before a migration is accepted.
    polish:
        Whether the re-tuner searches fractional size ratios inside each
        level band.  Off by default: a deployment rounds ``T`` anyway, so
        the online search prices the integer rows — the tunings that can
        actually be deployed — and nothing else.
    rho_adaptive:
        Whether the robust radius is widened with the drift detector's
        observed volatility (see :meth:`effective_rho`).  A cyclic workload
        keeps re-escaping any tuning computed for either of its phases; the
        widened ball covers the whole cycle, so the stream is re-tuned once
        for the cycle instead of migrating back and forth every phase.
        Requires ``mode="robust"`` — a nominal re-tuning has no radius to
        widen, and silently widening only the *detector* would leave it
        watching a ball the deployed tuning does not cover.
    volatility_gain:
        Multiplier on the KL-trajectory volatility added to ``rho``.
    rho_cap:
        Upper bound of the widened radius (the paper's ρ grid tops out at 4,
        where robust tunings are essentially workload-agnostic).
    """

    def __init__(
        self,
        system: SystemConfig,
        mode: str = "robust",
        rho: float = 0.25,
        policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES,
        horizon_ops: int = 20_000,
        safety_factor: float = 1.0,
        polish: bool = False,
        rho_adaptive: bool = False,
        volatility_gain: float = 2.0,
        rho_cap: float = 4.0,
        k_vector_search: bool = False,
    ) -> None:
        if mode not in RETUNING_MODES:
            raise ValueError(f"mode must be one of {RETUNING_MODES}, got {mode!r}")
        if rho < 0:
            raise ValueError("rho must be non-negative")
        if horizon_ops <= 0:
            raise ValueError("horizon_ops must be positive")
        if safety_factor <= 0:
            raise ValueError("safety_factor must be positive")
        if volatility_gain < 0:
            raise ValueError("volatility_gain must be non-negative")
        if rho_adaptive and mode != "robust":
            raise ValueError(
                "rho_adaptive requires mode='robust': nominal re-tunings have "
                "no radius to widen"
            )
        self.system = system
        self.mode = mode
        self.rho = float(rho)
        self.horizon_ops = int(horizon_ops)
        self.safety_factor = float(safety_factor)
        self.rho_adaptive = bool(rho_adaptive)
        self.volatility_gain = float(volatility_gain)
        # Widening can never cut below the configured radius, so a cap under
        # rho is simply inert — raised rather than rejected (a large
        # --retune-rho must not crash a non-adaptive run).
        self.rho_cap = max(float(rho_cap), self.rho)
        self._policies = tuple(policies)
        self._polish = bool(polish)
        self.k_vector_search = bool(k_vector_search)
        self.cost_model = LSMCostModel(system)
        if mode == "robust":
            self.tuner: NominalTuner | RobustTuner = RobustTuner(
                rho=self.rho,
                system=system,
                policies=policies,
                polish=polish,
                k_vector_search=self.k_vector_search,
            )
        else:
            self.tuner = NominalTuner(
                system=system,
                policies=policies,
                polish=polish,
                k_vector_search=self.k_vector_search,
            )

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
        ``volatility_gain`` times the detector's KL-trajectory dispersion
        (capped at ``rho_cap``): the more the stream has been swinging around
        its nominal centre, the larger the ball the replacement tuning must
        cover.  On a cyclic workload the widened ball spans both phases, so
        one migration serves the whole cycle.
        """
        if not self.rho_adaptive or volatility <= 0.0:
            return self.rho
        return min(self.rho + self.volatility_gain * float(volatility), self.rho_cap)

    def _tuner_for(self, rho: float) -> NominalTuner | RobustTuner:
        """The tuner solving a re-tuning of radius ``rho``."""
        if self.mode != "robust" or rho == self.rho:
            return self.tuner
        return RobustTuner(
            rho=rho,
            system=self.system,
            policies=self._policies,
            polish=self._polish,
            k_vector_search=self.k_vector_search,
        )

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
        result = self._tuner_for(rho).tune(observed)
        proposed = result.tuning.rounded()
        return RetuningDecision(
            current=current,
            proposed=proposed,
            current_cost=self.cost_model.workload_cost(observed, current),
            proposed_cost=self.cost_model.workload_cost(observed, proposed),
            migration_ios=self.migration_ios(resident_pages),
            horizon_ops=self.horizon_ops,
            safety_factor=self.safety_factor,
            rho=rho if self.mode == "robust" else 0.0,
        )
