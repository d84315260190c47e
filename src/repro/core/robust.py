"""The Robust Tuning problem (Problem 2, §3.3–§4).

Endure replaces the single-workload objective with the worst case over a
KL-divergence ball of radius ``ρ`` around the expected workload:

    min_Φ  max_{ŵ : I_KL(ŵ, w) ≤ ρ}  ŵ · c(Φ).

Following Ben-Tal et al. (2013), the inner maximisation is dualised with the
conjugate of the KL divergence (``φ*_KL(s) = eˢ − 1``).  Optimising the dual
variable ``η`` in closed form leaves the exponential-tilting dual

    g(Φ, λ) = ρ·λ + λ · log Σ_i w_i · exp(c_i(Φ) / λ),

a smooth function jointly minimised over the design and the remaining
Lagrangian variable ``λ ≥ 0``.  The original Endure implementation (§4)
hands that joint problem to SciPy's SLSQP; it left this reproduction because
the design half is *not* smooth — the level count is a step function, every
optimum sits on one of its cliffs, and a gradient step cannot cross one.
For a fixed design the minimisation over ``λ`` is one-dimensional and exact
(the exponential tilting of :class:`~repro.core.uncertainty.UncertaintyRegion`,
solved for a whole batch of designs at once), so the tuner evaluates the
primal worst-case cost itself on the band-by-band search of
:mod:`repro.core.base`.  Strong duality makes the two equal; the result
reports ``λ*`` and the dual value next to the primal one.
"""

from __future__ import annotations

import numpy as np

from ..workloads.workload import Workload
from .base import _TIE, _ZOOM_MARGIN, BaseTuner
from .nominal import NominalTuner
from .results import TuningResult
from .uncertainty import UncertaintyRegion

#: Range of the dual variable ``λ`` the reported dual value is evaluated in.
_LAMBDA_BOUNDS = (float(np.exp(-9.0)), float(np.exp(12.0)))

#: Relative slack taken off a mixture bound before it prunes: the bound and
#: the tilted worst case each carry their own rounding.
_BOUND_SLACK = 1e-12


class RobustTuner(BaseTuner):
    """Solves the robust tuning problem for a given uncertainty radius ``ρ``."""

    def __init__(self, rho: float, **kwargs) -> None:
        if rho < 0:
            raise ValueError("rho must be non-negative")
        super().__init__(**kwargs)
        self.rho = rho

    def dual_value(self, cost_vector: np.ndarray, workload: Workload, lam: float) -> float:
        """Evaluate ``g(Φ, λ) = ρλ + λ log Σ_i w_i exp(c_i/λ)``.

        This is the dual of the inner maximisation with ``η`` eliminated; for
        any ``λ > 0`` it upper-bounds the worst-case cost and its minimum over
        ``λ`` equals it (strong duality).  Only the workload's support enters
        the log-expectation, shifted by its largest supported cost: a
        zero-weight component contributes nothing, but if its cost dominated
        the shift it would drive every supported term to underflow.
        """
        lam = float(np.clip(lam, *_LAMBDA_BOUNDS))
        weights = workload.as_array()
        support = weights > 0.0
        scaled = np.asarray(cost_vector, dtype=float)[support] / lam
        shift = scaled.max()
        log_expectation = np.log(np.exp(scaled - shift) @ weights[support]) + shift
        return float(self.rho * lam + lam * log_expectation)

    def _objective_from_costs(
        self,
        costs: np.ndarray,
        workload: Workload,
        bound: float | None = None,
        coarse: bool = False,
    ) -> np.ndarray:
        """Exact worst-case cost of every cell of a batch of cost vectors.

        The nominal cost under the normalised workload
        (:meth:`UncertaintyRegion.nominal_costs`) is a free lower bound of
        the worst case, so under a ``bound`` the tilting is only solved for
        cells whose nominal cost beats it; an infinite one is first replaced
        by the worst case of the nominally best cell.

        On the ``coarse`` grid (axis 0 the policy axis) the tilt also skips a
        cell whose mixture bound (:meth:`UncertaintyRegion.mixture_bounds`,
        less ``1e-12`` relative) lies both beyond the zoom margin of
        ``bound`` and above its policy's seed — the worst case of the
        policy's nominally best cell, all seeds from one tilt call.  Such a
        cell can neither be zoomed into nor be its policy's best, so the
        search does not change.
        """
        if self.rho == 0.0:
            return NominalTuner._objective_from_costs(self, costs, workload)
        region = UncertaintyRegion(expected=workload, rho=self.rho)
        if bound is None:
            return region.worst_case_costs(costs)
        nominal = region.nominal_costs(costs)
        if coarse:
            policy = np.arange(len(nominal))
            best = nominal.argmin(axis=1)
            seeds = region.worst_case_costs(costs[policy, best])
            if not np.isfinite(bound):
                first = int(np.argmin(nominal[policy, best]))
                bound = max(seeds[first], nominal[first, best[first]])
        elif not np.isfinite(bound):
            seed = np.unravel_index(np.argmin(nominal), nominal.shape)
            bound = max(region.worst_case_cost(costs[seed]), nominal[seed])
        alive = nominal <= bound
        if coarse:
            lower = region.mixture_bounds(costs) * (1.0 - _BOUND_SLACK)
            reach = bound * _ZOOM_MARGIN * (1.0 + _TIE)
            alive &= (lower <= reach) | (lower <= seeds[:, None])
        values = np.full(nominal.shape, np.inf)
        values[alive] = region.worst_case_costs(costs[alive])
        return values

    def tune(self, workload: Workload) -> TuningResult:
        """Solve the robust problem; also report ``λ*`` and the dual value.

        The objective is the exact primal worst-case cost of the returned
        tuning; by strong duality the dual value at ``λ* = 1/θ*`` matches it.
        """
        result = super().tune(workload)
        costs = self.cost_model.cost_vector(result.tuning, workload.long_range_fraction)
        region = UncertaintyRegion(expected=workload, rho=self.rho)
        with np.errstate(divide="ignore"):
            lam = float(np.clip(1.0 / region.worst_case_tilt(costs), *_LAMBDA_BOUNDS))
        result.solver_info["lambda"] = lam
        result.solver_info["dual_objective"] = self.dual_value(costs, workload, lam)
        return result
