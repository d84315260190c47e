"""The Robust Tuning problem (Problem 2, §3.3–§4).

Endure replaces the single-workload objective with the worst case over a
KL-divergence ball of radius ``ρ`` around the expected workload:

    min_Φ  max_{ŵ : I_KL(ŵ, w) ≤ ρ}  ŵ · c(Φ).

Following Ben-Tal et al. (2013), the inner maximisation is dualised with the
conjugate of the KL divergence (``φ*_KL(s) = eˢ − 1``).  Optimising the dual
intercept in closed form leaves a dual in one variable, the tilt ``θ = 1/λ``:

    g(Φ, θ) = c_max + (ρ + log Σ_i w_i · exp(θ (c_i(Φ) − c_max))) / θ,

``c_max`` the largest cost on the workload's support.  The design half is
*not* smooth — the level count is a step function and every optimum sits on
one of its cliffs.  For a fixed design the minimisation over ``θ`` is
one-dimensional and exact (the exponential tilting of
:class:`~repro.core.uncertainty.UncertaintyRegion`, solved for a whole batch
of designs at once), so the tuner evaluates the primal worst-case cost itself
on the band-by-band search of :mod:`repro.core.base`.  Strong duality
makes the two equal; the result reports ``λ* = 1/θ*`` and the region's dual
value there (:meth:`~repro.core.uncertainty.UncertaintyRegion.dual_value`)
next to the primal one, both at the ``θ*`` and cost vector the search
priced its winner at.

The tuner is :class:`~repro.core.base.NominalTuner` with a radius: the
objective is :func:`~repro.core.base.objective` at ``ρ``, and ``ρ = 0``
returns exactly the nominal tuner's result (no dual is reported there).
"""

from __future__ import annotations

import math

from ..workloads.workload import Workload
from .base import NominalTuner, check_rho
from .results import TuningResult
from .uncertainty import UncertaintyRegion


class RobustTuner(NominalTuner):
    """Solves the robust tuning problem for a given uncertainty radius ``ρ``."""

    def __init__(self, rho: float, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rho = check_rho(rho)

    def tune(self, workload: Workload) -> TuningResult:
        """Solve the robust problem; for ``ρ > 0`` also report ``λ* = 1/θ*``
        and the dual value there.

        The objective is the exact primal worst-case cost of the returned
        tuning; by strong duality the dual value at ``θ*`` matches it.  Both
        read the search's own pricing of the winner: its cost vector and the
        ``θ*`` its worst case was solved at, so nothing is solved again.
        """
        design, result = self._tune(workload)
        if self.rho > 0.0:
            region = UncertaintyRegion(expected=workload, rho=self.rho)
            theta = design.theta
            result.solver_info["lambda"] = 1.0 / theta if theta else math.inf
            result.solver_info["dual_objective"] = region.dual_value(design.costs, theta)
        return result
