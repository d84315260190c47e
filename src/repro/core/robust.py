"""The Robust Tuning problem (Problem 2, §3.3–§4).

Endure replaces the single-workload objective with the worst case over a
KL-divergence ball of radius ``ρ`` around the expected workload:

    min_Φ  max_{ŵ : I_KL(ŵ, w) ≤ ρ}  ŵ · c(Φ).

Following Ben-Tal et al. (2013), the inner maximisation is dualised with the
conjugate of the KL divergence (``φ*_KL(s) = eˢ − 1``).  Optimising the dual
variable ``η`` in closed form leaves the exponential-tilting dual

    g(Φ, λ) = ρ·λ + λ · log Σ_i w_i · exp(c_i(Φ) / λ),

a smooth function jointly minimised over the design and the remaining
Lagrangian variable ``λ ≥ 0``.  The tuner sweeps candidate size ratios,
optimises ``(h, λ)`` at each with nested bounded minimisation, and refines
the winner with SciPy's SLSQP over the full continuous design — the solver
used by the original Endure implementation (§4).  Strong duality makes the
optimum equal the primal worst-case cost, which the test-suite verifies
against the exact inner-maximisation solver in :mod:`repro.core.uncertainty`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from ..lsm.policy import CompactionPolicy
from ..workloads.workload import Workload
from .base import BaseTuner
from .nominal import NominalTuner
from .results import TuningResult
from .uncertainty import UncertaintyRegion

#: Bounds of log(λ) used when optimising the dual variable.
_LOG_LAMBDA_BOUNDS = (-9.0, 12.0)

#: Bounds of λ used by the SLSQP polish step.
_LAMBDA_BOUNDS = (np.exp(_LOG_LAMBDA_BOUNDS[0]), np.exp(_LOG_LAMBDA_BOUNDS[1]))


class RobustTuner(BaseTuner):
    """Solves the robust tuning problem for a given uncertainty radius ``ρ``."""

    #: Inner variable layout at a fixed size ratio: ``[bits_per_entry, lambda]``.
    INNER_DIMENSION = 2

    def __init__(self, rho: float, **kwargs) -> None:
        if rho < 0:
            raise ValueError("rho must be non-negative")
        super().__init__(**kwargs)
        self.rho = rho

    # ------------------------------------------------------------------
    # Dual objective
    # ------------------------------------------------------------------
    def dual_value(self, cost_vector: np.ndarray, workload: Workload, lam: float) -> float:
        """Evaluate ``g(Φ, λ) = ρλ + λ log Σ_i w_i exp(c_i/λ)``.

        This is the dual of the inner maximisation with ``η`` eliminated; for
        any ``λ > 0`` it upper-bounds the worst-case cost and its minimum over
        ``λ`` equals it (strong duality).
        """
        lam = float(max(lam, _LAMBDA_BOUNDS[0]))
        weights = workload.as_array()
        support = weights > 0.0
        log_expectation = float(
            logsumexp(cost_vector[support] / lam, b=weights[support])
        )
        return self.rho * lam + lam * log_expectation

    def _dual_values_on_grid(
        self, cost_vector: np.ndarray, weights: np.ndarray, lams: np.ndarray
    ) -> np.ndarray:
        """Vectorised evaluation of the dual over a grid of λ values.

        Only the workload's support enters the log-expectation: a zero-weight
        component contributes nothing to ``Σ w_i exp(c_i/λ)``, but if its cost
        dominated the stabilising shift it would drive every supported term to
        underflow and the log to ``-inf`` for small λ.
        """
        support = weights > 0.0
        scaled = cost_vector[..., None, support] / lams[..., :, None]
        shift = scaled.max(axis=-1)
        log_expectation = (
            np.log(np.exp(scaled - shift[..., None]) @ weights[support]) + shift
        )
        return self.rho * lams + lams * log_expectation

    def _worst_case_batch(
        self, cost_matrix: np.ndarray, workload: Workload
    ) -> np.ndarray:
        """Worst-case cost of every cell of a batch of cost vectors.

        The batched counterpart of :meth:`_worst_case_of_cost`: evaluates the
        dual of all cells over the same logarithmic λ grid at once, then
        refines each cell inside its best bracket — one broadcasted pass for
        the tuner's whole ``(T, h)`` candidate grid.
        """
        weights = workload.as_array()
        support = weights > 0.0
        if self.rho == 0.0:
            # Support-restricted dot: a zero-weight query type with a
            # degenerate cost must not poison the batch (0 * inf guard).
            return cost_matrix[..., support] @ weights[support]
        log_grid = np.linspace(*_LOG_LAMBDA_BOUNDS, 64)
        values = self._dual_values_on_grid(cost_matrix, weights, np.exp(log_grid))
        best = np.argmin(values, axis=-1)
        lo = log_grid[np.maximum(best - 1, 0)]
        hi = log_grid[np.minimum(best + 1, log_grid.size - 1)]
        fractions = np.linspace(0.0, 1.0, 17)
        refine = lo[..., None] + (hi - lo)[..., None] * fractions
        refined = self._dual_values_on_grid(cost_matrix, weights, np.exp(refine))
        return refined.min(axis=-1)

    def _worst_case_of_cost(
        self, cost_vector: np.ndarray, workload: Workload
    ) -> tuple[float, float]:
        """Minimise the dual over ``λ`` for a fixed cost vector.

        Evaluates the dual on a logarithmic λ grid (vectorised) and refines the
        best point with a parabolic step in ``log λ``.  Returns
        ``(worst_case_value, lambda_star)``.  With ``ρ = 0`` the dual
        degenerates to the nominal expected cost (``λ → ∞``).
        """
        weights = workload.as_array()
        support = weights > 0.0
        if self.rho == 0.0:
            return float(cost_vector[support] @ weights[support]), float("inf")
        log_grid = np.linspace(*_LOG_LAMBDA_BOUNDS, 64)
        values = self._dual_values_on_grid(cost_vector, weights, np.exp(log_grid))
        best = int(np.argmin(values))
        lo, hi = max(best - 1, 0), min(best + 1, log_grid.size - 1)
        refine = np.linspace(log_grid[lo], log_grid[hi], 17)
        refined = self._dual_values_on_grid(cost_vector, weights, np.exp(refine))
        best_refined = int(np.argmin(refined))
        return float(refined[best_refined]), float(np.exp(refine[best_refined]))

    # ------------------------------------------------------------------
    # Candidate-sweep hooks (vectorised path)
    # ------------------------------------------------------------------
    def _objective_from_costs(
        self, cost_matrix: np.ndarray, workload: Workload
    ) -> np.ndarray:
        return self._worst_case_batch(cost_matrix, workload)

    def _value_at(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> float:
        try:
            tuning = self._tuning_from(size_ratio, bits, policy)
            cost_vector = self.cost_model.cost_vector(
                tuning, workload.long_range_fraction
            )
        except (ValueError, OverflowError):
            return float("inf")
        return self._worst_case_of_cost(cost_vector, workload)[0]

    def _inner_from_design(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> np.ndarray:
        tuning = self._tuning_from(size_ratio, bits, policy)
        _, lam = self._worst_case_of_cost(
            self.cost_model.cost_vector(tuning, workload.long_range_fraction), workload
        )
        return np.array([bits, min(lam, _LAMBDA_BOUNDS[1])])

    # ------------------------------------------------------------------
    # Inner optimisation at a fixed size ratio
    # ------------------------------------------------------------------
    def _optimize_inner(
        self, size_ratio: float, policy: CompactionPolicy, workload: Workload
    ) -> tuple[np.ndarray, float]:
        bits, value = self._grid_then_refine(
            lambda b: self._value_at(size_ratio, float(b), policy, workload),
            self.bits_per_entry_bounds,
        )
        return self._inner_from_design(size_ratio, bits, policy, workload), value

    # ------------------------------------------------------------------
    # Batched finite differences (used by the SLSQP polish)
    # ------------------------------------------------------------------
    def _polish_jacobian(self, policy: CompactionPolicy, workload: Workload):
        """Batched finite-difference gradient of the polish objective.

        SLSQP's own finite differences evaluate the scalar objective once per
        design perturbation, and each evaluation rebuilds a cost vector from
        scratch.  The polish objective only depends on the design through
        ``c(T, h)``, so all cost-vector perturbations fit in a single 2×2
        :meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix` call — the
        ``(T, T+δ) × (h, h+δ)`` grid — and the λ perturbation reuses the base
        cost vector (the dual is an analytic function of λ for a fixed
        ``c``).  One batched pass replaces four scalar cost evaluations per
        gradient.
        """

        def jacobian(design: np.ndarray) -> np.ndarray:
            return self._batched_polish_gradient(
                np.asarray(design, dtype=float), policy, workload
            )

        return jacobian

    def _batched_polish_gradient(
        self, design: np.ndarray, policy: CompactionPolicy, workload: Workload
    ) -> np.ndarray:
        size_ratio, bits, lam = design
        t_lo, t_hi = self.size_ratio_bounds
        h_lo, h_hi = self.bits_per_entry_bounds
        # Mirror the clamping of the scalar objective so the gradient is taken
        # at the point the objective actually evaluates.
        size_ratio = float(np.clip(size_ratio, t_lo, t_hi))
        bits = float(np.clip(bits, h_lo, h_hi))
        lam = float(np.clip(lam, *_LAMBDA_BOUNDS))

        sqrt_eps = float(np.sqrt(np.finfo(float).eps))
        # Forward steps, flipped to backward at the upper bounds so every
        # perturbed design stays inside the legal box.
        dt = sqrt_eps * max(1.0, abs(size_ratio))
        if size_ratio + dt > t_hi:
            dt = -dt
        dh = sqrt_eps * max(1.0, abs(bits))
        if bits + dh > h_hi:
            dh = -dh
        dl = sqrt_eps * max(1.0, abs(lam))
        if lam + dl > _LAMBDA_BOUNDS[1]:
            dl = -dl

        try:
            costs = self.cost_model.cost_matrix(
                [size_ratio, size_ratio + dt],
                [bits, bits + dh],
                policy,
                long_range_fraction=workload.long_range_fraction,
            )
        except (ValueError, OverflowError):
            # Degenerate corner of the design box: let the value at the
            # perturbed design be what the scalar objective would report.
            return np.zeros(3)

        weights = workload.as_array()
        support = weights > 0.0
        if self.rho == 0.0:
            base = float(costs[0, 0, support] @ weights[support])
            grad_t = (float(costs[1, 0, support] @ weights[support]) - base) / dt
            grad_h = (float(costs[0, 1, support] @ weights[support]) - base) / dh
            return np.array([grad_t, grad_h, 0.0])
        base = self.dual_value(costs[0, 0], workload, lam)
        grad_t = (self.dual_value(costs[1, 0], workload, lam) - base) / dt
        grad_h = (self.dual_value(costs[0, 1], workload, lam) - base) / dh
        grad_l = (self.dual_value(costs[0, 0], workload, lam + dl) - base) / dl
        return np.array([grad_t, grad_h, grad_l])

    # ------------------------------------------------------------------
    # Full-design objective (used by the SLSQP polish)
    # ------------------------------------------------------------------
    def _objective(
        self, size_ratio: float, inner: np.ndarray, policy: CompactionPolicy, workload: Workload
    ) -> float:
        bits, lam = float(inner[0]), float(inner[1])
        try:
            tuning = self._tuning_from(size_ratio, bits, policy)
            cost_vector = self.cost_model.cost_vector(
                tuning, workload.long_range_fraction
            )
        except (ValueError, OverflowError):
            return float("inf")
        if self.rho == 0.0:
            weights = workload.as_array()
            support = weights > 0.0
            return float(cost_vector[support] @ weights[support])
        return self.dual_value(cost_vector, workload, lam)

    def _inner_bounds(self) -> list[tuple[float, float]]:
        return [self.bits_per_entry_bounds, _LAMBDA_BOUNDS]

    def _result_from_design(
        self,
        size_ratio: float,
        inner: np.ndarray,
        policy: CompactionPolicy,
        workload: Workload,
        objective: float,
        solver_info: dict,
    ) -> TuningResult:
        tuning = self._tuning_from(size_ratio, float(inner[0]), policy)
        solver_info = dict(solver_info)
        solver_info["lambda"] = float(inner[1])
        solver_info["dual_objective"] = objective
        # Report the exact primal worst-case cost of the selected tuning: it
        # is the quantity the problem statement optimises and, by strong
        # duality, matches the dual objective at the optimum.
        region = UncertaintyRegion(expected=workload, rho=self.rho)
        worst_case = region.worst_case_cost(
            self.cost_model.cost_vector(tuning, workload.long_range_fraction)
        )
        return TuningResult(
            tuning=tuning,
            objective=worst_case,
            expected_workload=workload,
            rho=self.rho,
            solver_info=solver_info,
        )


def tune_robust(workload: Workload, rho: float, system=None, **kwargs) -> TuningResult:
    """Convenience wrapper: build a :class:`RobustTuner` and solve once."""
    return RobustTuner(rho=rho, system=system, **kwargs).tune(workload)


def tune_nominal(workload: Workload, system=None, **kwargs) -> TuningResult:
    """Convenience wrapper: build a :class:`NominalTuner` and solve once."""
    return NominalTuner(system=system, **kwargs).tune(workload)
