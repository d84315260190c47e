"""Exhaustive grid-search tuner.

A brute-force baseline used to validate the band-aware tuners: it sweeps an
integer grid of size ratios and a grid of Bloom-filter allocations for every
policy and keeps the configuration with the smallest objective.  It can
optimise either the nominal objective or the robust worst-case objective, so
the test-suite can confirm that the tuners land at (or below) the grid
optimum.

The cost vectors of the whole grid come from one vectorised
:meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix` pass per policy, and
the exact worst-case solve of the robust objective (``ρ > 0``) from one
batched tilting solve over them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..lsm.cost_model import LSMCostModel
from ..lsm.policy import (
    CLASSIC_POLICIES,
    CompactionPolicy,
    Policy,
    expand_policy_specs,
)
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..workloads.workload import Workload
from .results import TuningResult
from .uncertainty import UncertaintyRegion


class GridTuner:
    """Exhaustive search over a discretised design space.

    Parameters
    ----------
    system:
        System configuration to tune for.
    size_ratios:
        Candidate size ratios; defaults to the integers 2 … max_size_ratio
        (capped at 100 values).
    bits_grid_points:
        Number of equally spaced Bloom-filter allocations to try.
    rho:
        Uncertainty radius; 0 reproduces the nominal objective.
    policies:
        Compaction policies to consider (the paper's classical pair by
        default; pass :data:`~repro.lsm.policy.ALL_POLICIES` to include the
        hybrids).  ``Policy.FLUID`` expands into its default ``(K, Z)``
        candidate grid, exactly like the continuous tuners; explicit
        :class:`~repro.lsm.policy.CompactionPolicy` entries — including
        per-level bound vectors — pass through untouched.
    k_vector_search:
        Whether the fluid expansion additionally sweeps the structured
        per-level ``K_i`` vector families (front-loaded ladders,
        single-level perturbations), mirroring the continuous tuners.
    """

    def __init__(
        self,
        system: SystemConfig | None = None,
        size_ratios: np.ndarray | None = None,
        bits_grid_points: int = 33,
        rho: float = 0.0,
        policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES,
        k_vector_search: bool = False,
    ) -> None:
        if rho < 0:
            raise ValueError("rho must be non-negative")
        if bits_grid_points < 2:
            raise ValueError("bits_grid_points must be at least 2")
        self.system = system if system is not None else SystemConfig()
        self.cost_model = LSMCostModel(self.system)
        self.rho = rho
        # An empty policy list is rejected by the expansion itself.
        self.policy_specs = expand_policy_specs(
            policies,
            max_size_ratio=self.system.max_size_ratio,
            include_k_vectors=k_vector_search,
        )
        self.policies = tuple(dict.fromkeys(spec.policy for spec in self.policy_specs))
        if size_ratios is None:
            upper = int(min(self.system.max_size_ratio, 100.0))
            size_ratios = np.arange(2, upper + 1, dtype=float)
        self.size_ratios = np.asarray(size_ratios, dtype=float)
        self.bits_grid = np.linspace(
            self.system.min_bits_per_entry,
            self.system.max_bits_per_entry * 0.999,
            bits_grid_points,
        )

    def _objective_grid(self, workload: Workload, costs: np.ndarray) -> np.ndarray:
        """Objective of every grid cell, given its pre-computed cost vectors."""
        if self.rho == 0.0:
            # Support-restricted dot mirrors the continuous tuners' 0 * inf
            # guard for zero-weight query types.
            weights = workload.as_array()
            support = weights > 0.0
            return costs[..., support] @ weights[support]
        return UncertaintyRegion(expected=workload, rho=self.rho).worst_case_costs(costs)

    def tune(self, workload: Workload) -> TuningResult:
        """Exhaustively search the grid and return the best configuration."""
        best_tuning: LSMTuning | None = None
        best_value = np.inf
        evaluated = 0
        for spec in self.policy_specs:
            costs = self.cost_model.cost_matrix(
                self.size_ratios,
                self.bits_grid,
                spec,
                long_range_fraction=workload.long_range_fraction,
            )
            values = self._objective_grid(workload, costs)
            evaluated += values.size
            flat_best = int(np.argmin(values))
            row, col = np.unravel_index(flat_best, values.shape)
            if values[row, col] < best_value:
                best_value = float(values[row, col])
                best_tuning = LSMTuning(
                    float(self.size_ratios[row]), float(self.bits_grid[col]), spec
                )
        if best_tuning is None or not np.isfinite(best_value):
            raise RuntimeError("grid search evaluated no configurations")
        return TuningResult(
            tuning=best_tuning,
            objective=float(best_value),
            expected_workload=workload,
            rho=self.rho,
            solver_info={"evaluated_configurations": evaluated},
        )
