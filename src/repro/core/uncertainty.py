"""KL-divergence uncertainty regions and their convex-duality machinery (§4).

The robust tuning problem maximises the worst-case cost over the uncertainty
region

    U_w^ρ = { ŵ ≥ 0 : ŵᵀe = 1, I_KL(ŵ, w) ≤ ρ }.

Ben-Tal et al. (2013) show that the inner maximisation has a tractable dual
built on the conjugate of the KL divergence, ``φ*_KL(s) = eˢ − 1``.  This
module provides:

* the conjugate function and the dual objective term,
* an exact solver for the *inner* problem (worst-case workload for a fixed
  cost vector), used both to evaluate tunings and to cross-check the dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.workload import Workload, kl_divergence


def kl_conjugate(s: np.ndarray | float) -> np.ndarray | float:
    """Conjugate of the KL divergence, ``φ*_KL(s) = eˢ − 1``."""
    return np.exp(s) - 1.0


@dataclass(frozen=True)
class UncertaintyRegion:
    """The KL ball ``U_w^ρ`` around an expected workload ``w``."""

    expected: Workload
    rho: float

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ValueError("rho must be non-negative")

    def contains(self, candidate: Workload, tolerance: float = 1e-9) -> bool:
        """Whether ``candidate`` lies inside the region (up to ``tolerance``)."""
        divergence = kl_divergence(candidate.as_array(), self.expected.as_array())
        return bool(divergence <= self.rho + tolerance)

    def divergence(self, candidate: Workload) -> float:
        """KL divergence of ``candidate`` from the expected workload."""
        return kl_divergence(candidate.as_array(), self.expected.as_array())

    # ------------------------------------------------------------------
    # Worst-case workload (inner maximisation)
    # ------------------------------------------------------------------
    def worst_case_tilt(self, costs: np.ndarray) -> np.ndarray:
        """Tilting parameter ``θ = 1/λ*`` of every cost vector of a batch.

        The maximiser of ``ŵ · c`` over the region has the exponential-tilting
        form ``ŵ_i ∝ w_i · exp(θ c_i)`` where the single scalar ``θ ≥ 0`` makes
        the KL constraint tight.  The divergence of the tilted workload grows
        monotonically with ``θ`` from 0 towards ``-log`` of the expected mass
        on the costliest supported components; a radius at or beyond that
        limit is answered by ``θ = ∞`` (all mass on those components), a
        radius of (numerically) zero by ``θ = 0`` (``ŵ = w``), and everything
        in between by one vectorised safeguarded-Newton solve.  ``costs`` has
        shape ``(..., 4)``; the result drops the last axis.
        """
        return self._tilt(*self._supported_spread(costs))

    def _tilt(self, spread: np.ndarray, weights: np.ndarray) -> np.ndarray:
        if self.rho <= _NO_UNCERTAINTY:
            return np.zeros(spread.shape[:-1])
        limit = -np.log(np.where(spread == 0.0, weights, 0.0).sum(axis=-1))
        theta = np.full(limit.shape, np.inf)
        inside = self.rho < limit
        theta[inside] = _solve_tilt(spread[inside], weights, self.rho)
        return theta

    def worst_case_weights(self, costs: np.ndarray) -> np.ndarray:
        """Worst-case workloads ``argmax_{ŵ ∈ U} ŵ · c`` of a batch, as arrays.

        ``costs`` has shape ``(..., 4)`` and so has the result.  The maximiser
        lives on the support of the expected workload (zero-weight components
        stay zero, whatever their cost), so the stabilising shift is the
        largest *supported* cost.
        """
        spread, weights = self._supported_spread(costs)
        theta = self._tilt(spread, weights)[..., None]
        with np.errstate(invalid="ignore"):
            tilted = weights * np.where(
                np.isinf(theta), spread == 0.0, np.exp(theta * spread)
            )
        result = np.zeros(np.shape(costs))
        result[..., self.expected.as_array() > 0.0] = tilted / tilted.sum(
            axis=-1, keepdims=True
        )
        return result

    def worst_case_costs(self, costs: np.ndarray) -> np.ndarray:
        """Value of the inner maximisation for every cost vector of a batch."""
        costs = np.asarray(costs, dtype=float)
        support = self.expected.as_array() > 0.0
        worst = self.worst_case_weights(costs)
        return (worst[..., support] * costs[..., support]).sum(axis=-1)

    def worst_case_workload(self, cost_vector: np.ndarray) -> Workload:
        """Workload in the region that maximises ``ŵ · c`` for a fixed ``c``."""
        cost = np.asarray(cost_vector, dtype=float)
        if cost.shape != (4,):
            raise ValueError("cost_vector must have exactly 4 components")
        if self.rho <= _NO_UNCERTAINTY:
            return self.expected
        return Workload.from_array(
            self.worst_case_weights(cost), self.expected.long_range_fraction
        )

    def worst_case_cost(self, cost_vector: np.ndarray) -> float:
        """Value of the inner maximisation ``max_{ŵ ∈ U} ŵ · c``."""
        return float(self.worst_case_costs(cost_vector))

    def _supported_spread(self, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Supported costs shifted so the costliest is 0, and their weights."""
        base = self.expected.as_array()
        supported = np.asarray(costs, dtype=float)[..., base > 0.0]
        return supported - supported.max(axis=-1, keepdims=True), base[base > 0.0]


#: Radii at or below this are answered by the expected workload itself: the
#: divergence of the tilted workload loses its sign to floating-point noise.
_NO_UNCERTAINTY = 1e-10

#: Upper end of the tilting bracket (``λ`` no smaller than ~1e-6).
_MAX_TILT = 2.0**20


def _solve_tilt(spread: np.ndarray, weights: np.ndarray, rho: float) -> np.ndarray:
    """``θ`` with ``I_KL(tilted_θ, w) = ρ`` for every row of ``spread``.

    Newton's iteration on the monotone divergence, started from the small-θ
    expansion ``I_KL ≈ θ² Var_w(c) / 2`` and safeguarded by a bisection
    bracket: a step that leaves ``[lo, hi]`` is replaced by its midpoint.
    """
    # Components along axis 0: reducing over the (at most four) query types
    # is then a handful of whole-batch additions.
    spread, weights = np.ascontiguousarray(spread.T), weights[:, None]
    squared = spread * spread
    variance = (weights * squared).sum(axis=0) - (weights * spread).sum(axis=0) ** 2
    # Cancellation can leave a (numerically) zero variance a hair below zero,
    # e.g. when all but a subnormal weight sits on one component.
    variance = np.maximum(variance, 0.0)
    low = np.zeros(variance.shape)
    high = np.full(variance.shape, _MAX_TILT)
    with np.errstate(divide="ignore"):  # a vanishing variance starts mid-bracket
        theta = np.minimum(np.sqrt(2.0 * rho / variance), 0.5 * _MAX_TILT)
    for _ in range(100):
        mass = weights * np.exp(theta * spread)
        total = mass.sum(axis=0)
        mean = (mass * spread).sum(axis=0) / total
        variance = (mass * squared).sum(axis=0) / total - mean * mean
        excess = theta * mean - np.log(total) - rho
        low = np.where(excess < 0.0, theta, low)
        high = np.where(excess < 0.0, high, theta)
        with np.errstate(all="ignore"):
            newton = theta - excess / (theta * variance)
        inside = (newton >= low) & (newton <= high)
        step = np.where(inside, newton, 0.5 * (low + high))
        converged = np.abs(step - theta) <= 1e-13 * theta
        theta = step
        if converged.all():
            break
    return theta


def dual_objective(
    cost_vector: np.ndarray,
    expected: Workload,
    rho: float,
    lam: float,
    eta: float,
) -> float:
    """The dual objective ``g(λ, η)`` of Equation (9) for a fixed cost vector.

    ``g = η + ρλ + λ Σ_i w_i φ*_KL((c_i − η)/λ)``.  As ``λ → 0`` the term
    tends to the max-constraint indicator; we guard against numerical
    overflow by clipping the exponent.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    cost = np.asarray(cost_vector, dtype=float)
    weights = expected.as_array()
    if lam == 0.0:
        # Limit of the dual: eta must dominate every cost component.
        overshoot = np.max(cost - eta)
        return float(eta if overshoot <= 0 else np.inf)
    scaled = np.clip((cost - eta) / lam, -700.0, 700.0)
    return float(eta + rho * lam + lam * np.dot(weights, kl_conjugate(scaled)))
