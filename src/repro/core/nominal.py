"""The Nominal Tuning problem (Problem 1, §3.2).

Given a single expected workload ``w``, find the tuning ``Φ_N`` minimising
the expected per-query cost ``C(w, Φ)``.  This is the classical tuning
paradigm of Monkey/Dostoevsky and the baseline Endure compares against.
"""

from __future__ import annotations

import numpy as np

from ..lsm.policy import CompactionPolicy
from ..workloads.workload import Workload
from .base import BaseTuner
from .results import TuningResult


class NominalTuner(BaseTuner):
    """Solves the nominal (classical, certainty-assuming) tuning problem."""

    #: Inner variable layout at a fixed size ratio: ``[bits_per_entry]``.
    INNER_DIMENSION = 1

    def _cost(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> float:
        try:
            tuning = self._tuning_from(size_ratio, bits, policy)
            return self.cost_model.workload_cost(workload, tuning)
        except (ValueError, OverflowError):
            return float("inf")

    def _value_at(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> float:
        return self._cost(size_ratio, bits, policy, workload)

    def _objective_from_costs(
        self, cost_matrix: np.ndarray, workload: Workload
    ) -> np.ndarray:
        # Restrict the dot product to the workload's support so a degenerate
        # cost of a zero-weight query type cannot poison the sweep (0 · inf).
        weights = workload.as_array()
        support = weights > 0.0
        return cost_matrix[..., support] @ weights[support]

    def _inner_from_design(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> np.ndarray:
        return np.array([bits])

    def _optimize_inner(
        self, size_ratio: float, policy: CompactionPolicy, workload: Workload
    ) -> tuple[np.ndarray, float]:
        bits, value = self._grid_then_refine(
            lambda bits: self._cost(size_ratio, float(bits), policy, workload),
            self.bits_per_entry_bounds,
        )
        return np.array([bits]), value

    def _objective(
        self, size_ratio: float, inner: np.ndarray, policy: CompactionPolicy, workload: Workload
    ) -> float:
        return self._cost(size_ratio, float(inner[0]), policy, workload)

    def _inner_bounds(self) -> list[tuple[float, float]]:
        return [self.bits_per_entry_bounds]

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
        return TuningResult(
            tuning=tuning,
            objective=objective,
            expected_workload=workload,
            rho=0.0,
            solver_info=solver_info,
        )
