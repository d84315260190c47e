"""The Nominal Tuning problem (Problem 1, §3.2).

Given a single expected workload ``w``, find the tuning ``Φ_N`` minimising
the expected per-query cost ``C(w, Φ)``.  This is the classical tuning
paradigm of Monkey/Dostoevsky and the baseline Endure compares against.
"""

from __future__ import annotations

import numpy as np

from ..workloads.workload import Workload
from .base import BaseTuner


class NominalTuner(BaseTuner):
    """Solves the nominal (classical, certainty-assuming) tuning problem."""

    def _objective_from_costs(
        self,
        costs: np.ndarray,
        workload: Workload,
        bound: float | None = None,
        coarse: bool = False,
    ) -> np.ndarray:
        # Restrict the dot product to the workload's support so a degenerate
        # cost of a zero-weight query type cannot poison the search (0 · inf).
        weights = workload.as_array()
        support = weights > 0.0
        return costs[..., support] @ weights[support]
