"""Result containers returned by the tuners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..lsm.tuning import LSMTuning
from ..workloads.workload import Workload


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning optimisation.

    Attributes
    ----------
    tuning:
        The recommended LSM-tree configuration ``Φ``.
    objective:
        The optimised objective value: the nominal cost ``C(w, Φ)`` at
        ``ρ = 0``, the primal worst case ``max_{ŵ ∈ U} ŵ · c(Φ)`` above it.
    expected_workload:
        The workload the tuner was given.
    rho:
        Size of the uncertainty region used (0: the nominal problem).
    solver_info:
        Free-form diagnostics from the optimiser (iterations, success flags,
        per-policy candidate objectives, …).
    """

    tuning: LSMTuning
    objective: float
    expected_workload: Workload
    rho: float = 0.0
    solver_info: dict[str, Any] = field(default_factory=dict)
