"""KL-divergence uncertainty regions and their convex-duality machinery (§4).

The robust tuning problem maximises the worst-case cost over the uncertainty
region

    U_w^ρ = { ŵ ≥ 0 : ŵᵀe = 1, I_KL(ŵ, w) ≤ ρ }.

Ben-Tal et al. (2013) show that the inner maximisation has a tractable dual
built on the conjugate of the KL divergence, ``φ*_KL(s) = eˢ − 1``.  This
module provides:

* the conjugate function and the dual objective term,
* an exact solver for the *inner* problem (worst-case workload for a fixed
  cost vector), used both to evaluate tunings and to cross-check the dual,
* a lower bound of the inner problem that needs no solve — the best mixture
  of the expected workload with one query type — by which the robust search
  skips cost vectors that cannot matter.
"""

from __future__ import annotations

import functools
import math
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
        if not self.rho >= 0:
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
        return self._tilt(self._supported_spread(self._supported_costs(costs)))

    @functools.cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The support mask of the expected workload and its weights there.

        Read once per region: a robust objective call builds one region and
        asks it for the weights several times.
        """
        weights = self.expected.as_array()
        support = weights > 0.0
        return support, weights[support]

    def _supported_costs(self, costs: np.ndarray) -> np.ndarray:
        """The supported components of a batch of cost vectors."""
        return np.asarray(costs, dtype=float)[..., self._support[0]]

    def _tilt(self, spread: np.ndarray) -> np.ndarray:
        weights = self._support[1]
        if self.rho <= _NO_UNCERTAINTY:
            return np.zeros(spread.shape[:-1])
        limit = -np.log(np.add.reduce(np.where(spread == 0.0, weights, 0.0), axis=-1))
        theta = np.full(limit.shape, np.inf)
        inside = self.rho < limit
        theta[inside] = _solve_tilt(spread[inside], weights, self.rho)
        return theta

    def _worst_supported(self, supported: np.ndarray) -> np.ndarray:
        """Worst-case weights on the support of a batch of supported costs."""
        spread = self._supported_spread(supported)
        theta = self._tilt(spread)[..., None]
        with np.errstate(invalid="ignore"):
            tilted = self._support[1] * np.where(
                np.isinf(theta), spread == 0.0, np.exp(theta * spread)
            )
        return tilted / np.add.reduce(tilted, axis=-1, keepdims=True)

    def worst_case_weights(self, costs: np.ndarray) -> np.ndarray:
        """Worst-case workloads ``argmax_{ŵ ∈ U} ŵ · c`` of a batch, as arrays.

        ``costs`` has shape ``(..., 4)`` and so has the result.  The maximiser
        lives on the support of the expected workload (zero-weight components
        stay zero, whatever their cost), so the stabilising shift is the
        largest *supported* cost.
        """
        result = np.zeros(np.shape(costs))
        result[..., self._support[0]] = self._worst_supported(self._supported_costs(costs))
        return result

    def worst_case_costs(self, costs: np.ndarray) -> np.ndarray:
        """Value of the inner maximisation for every cost vector of a batch."""
        supported = self._supported_costs(costs)
        return np.add.reduce(self._worst_supported(supported) * supported, axis=-1)

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

    # ------------------------------------------------------------------
    # A lower bound without the tilt
    # ------------------------------------------------------------------
    def mixture_shares(self) -> np.ndarray:
        """Largest share ``t_j`` of each supported vertex ``e_j`` a mixture keeps.

        The mixture ``(1 − t)·w + t·e_j`` diverges from ``w`` by
        ``KL(t) = (1 − t)(1 − w_j)·ln(1 − t) + ((1 − t)·w_j + t)·ln(1 − t + t/w_j)``,
        which grows from 0 at ``t = 0`` to ``−ln w_j`` at ``t = 1``.  A vertex
        within the radius is reached outright (``t_j = 1``); otherwise
        bisection in plain floats keeps the feasible end, so every mixture lies
        in the region.  Radii the region answers by ``w`` itself give 0.

        Weights may sum to ``s = 1 ± 1e-6``.  The region, like the tilt,
        measures divergence from the weights as given, and
        ``I_KL(ŵ, w) = I_KL(ŵ, w/s) − ln s``, so the shares mix the normalised
        ``w/s`` within the radius ``ρ + ln s``.
        """
        weights = self._support[1]
        total = float(np.add.reduce(weights))
        radius = self.rho + math.log(total) if self.rho > _NO_UNCERTAINTY else 0.0
        return np.array(_mixture_shares(tuple((weights / total).tolist()), radius))

    def nominal_costs(self, costs: np.ndarray) -> np.ndarray:
        """``w·c / Σ w``: the cost under the normalised expected workload.

        The worst case at ``θ = 0``, so a lower bound of the inner
        maximisation.  A workload's weights may sum to ``1 ± 1e-6`` while the
        worst case is a point of the simplex; ``w·c`` alone could then
        exceed it.
        """
        weights = self._support[1]
        return (self._supported_costs(costs) @ weights) / np.add.reduce(weights)

    def mixture_bounds(self, costs: np.ndarray) -> np.ndarray:
        """Lower bound of the inner maximisation for every cost vector of a batch.

        ``max(w·c, max_j [(1 − t_j)·w·c + t_j·c_j])``, ``w`` normalised: the
        best of ``w`` and its mixtures with one vertex
        (:meth:`mixture_shares`), each a point of the region.  It needs no
        tilt, so a search can skip a cost vector whose bound already loses.
        """
        support = self._support[0].nonzero()[0]
        costs = np.asarray(costs, dtype=float)
        nominal = self.nominal_costs(costs)
        bound = nominal
        # One component at a time: a reduction over a last axis of four is
        # several times slower than four whole-batch maxima.
        for share, j in zip(self.mixture_shares().tolist(), support.tolist()):
            if share > 0.0:
                bound = np.maximum(bound, (1.0 - share) * nominal + share * costs[..., j])
        return bound

    def _supported_spread(self, supported: np.ndarray) -> np.ndarray:
        """Supported costs shifted so the costliest is 0."""
        return supported - np.maximum.reduce(supported, axis=-1, keepdims=True)


#: Radii at or below this are answered by the expected workload itself: the
#: divergence of the tilted workload loses its sign to floating-point noise.
_NO_UNCERTAINTY = 1e-10

#: Upper end of the tilting bracket (``λ`` no smaller than ~1e-6).
_MAX_TILT = 2.0**20

#: Bisection steps of a mixture share: the share to within 2⁻³⁰.
_MIXTURE_BISECTIONS = 30


@functools.lru_cache(maxsize=64)
def _mixture_shares(weights: tuple[float, ...], rho: float) -> tuple[float, ...]:
    """:meth:`UncertaintyRegion.mixture_shares`, once per workload and radius."""
    shares = []
    for weight in weights:
        if weight <= 0.0:
            continue
        if rho <= _NO_UNCERTAINTY:
            share = 0.0
        elif -math.log(weight) <= rho:
            share = 1.0
        else:
            share, high = 0.0, 1.0
            for _ in range(_MIXTURE_BISECTIONS):
                middle = 0.5 * (share + high)
                if _mixture_divergence(middle, weight) <= rho:
                    share = middle
                else:
                    high = middle
        shares.append(share)
    return tuple(shares)


def _mixture_divergence(share: float, weight: float) -> float:
    """``I_KL((1 − t)·w + t·e_j, w)`` of a share ``0 < t < 1`` and weight ``w_j``.

    ``ln(1 − t + t/w_j)`` is taken as ``ln t − ln w_j + ln(1 + (1 − t)·w_j/t)``,
    which a subnormal ``w_j`` cannot overflow.
    """
    rest = (1.0 - share) * (1.0 - weight) * math.log1p(-share)
    ratio = math.log(share) - math.log(weight) + math.log1p((1.0 - share) * weight / share)
    return rest + ((1.0 - share) * weight + share) * ratio


def _solve_tilt(spread: np.ndarray, weights: np.ndarray, rho: float) -> np.ndarray:
    """``θ`` with ``I_KL(tilted_θ, w) = ρ`` for every row of ``spread``.

    Newton's iteration on the monotone divergence, started from the small-θ
    expansion ``I_KL ≈ θ² Var_w(c) / 2`` and safeguarded by a bisection
    bracket: a step that leaves ``[lo, hi]`` is replaced by its midpoint.
    Each row stops at its own convergence: a converged row keeps its ``θ``
    while the rest iterate on, and once half the rows are done they leave
    the arrays.  A row's result therefore does not depend on the batch it is
    solved in — ``worst_case_costs(batch)[i]`` equals
    ``worst_case_cost(batch[i])`` bit for bit.

    The search hands it one to a few hundred rows, and an iteration is some
    forty ufunc calls on them: a 162-row solve costs about 1.4 times a 1-row
    one.  The loop therefore calls the ufuncs and their reductions itself
    (``np.add.reduce``, ``np.logical_and.reduce``), not NumPy's Python
    wrappers around them.
    """
    # Components along axis 0: reducing over the (at most four) query types
    # is then a handful of whole-batch additions.
    columns, weights = np.ascontiguousarray(spread.T), weights[:, None]
    squared = columns * columns
    variance = (
        np.add.reduce(weights * squared, axis=0) - np.add.reduce(weights * columns, axis=0) ** 2
    )
    # Cancellation can leave a (numerically) zero variance a hair below zero,
    # e.g. when all but a subnormal weight sits on one component.
    variance = np.maximum(variance, 0.0)
    low = np.zeros(variance.shape)
    high = np.full(variance.shape, _MAX_TILT)
    done = np.zeros(variance.shape, dtype=bool)
    solved = np.empty(variance.shape)
    rows = np.arange(variance.size)  # the rows still in the arrays
    # A vanishing variance starts mid-bracket; a vanishing θ·variance makes a
    # Newton step the bracket replaces.
    with np.errstate(all="ignore"):
        theta = np.minimum(np.sqrt(2.0 * rho / variance), 0.5 * _MAX_TILT)
        for _ in range(100):
            mass = weights * np.exp(theta * columns)
            total = np.add.reduce(mass, axis=0)
            mean = np.add.reduce(mass * columns, axis=0) / total
            variance = np.add.reduce(mass * squared, axis=0) / total - mean * mean
            excess = theta * mean - np.log(total) - rho
            below = excess < 0.0
            np.copyto(low, theta, where=below)
            np.copyto(high, theta, where=~below)
            newton = theta - excess / (theta * variance)
            inside = (newton >= low) & (newton <= high)
            step = np.where(inside, newton, 0.5 * (low + high))
            converged = np.abs(step - theta) <= 1e-13 * theta
            np.copyto(theta, step, where=~done)
            done |= converged
            if np.logical_and.reduce(done, axis=None):
                break
            if 2 * np.count_nonzero(done) >= done.size:
                solved[rows[done]] = theta[done]
                keep = ~done
                rows, theta, low, high = rows[keep], theta[keep], low[keep], high[keep]
                columns, squared, done = columns[:, keep], squared[:, keep], done[keep]
        solved[rows] = theta
        # A root beyond the bracket needs a gap below ~1e-3 between the
        # costliest component and the next: solve such rows again in units
        # of that gap (a subnormal gap overflows to θ = ∞, the vertex).
        stuck = solved > _MAX_TILT * (1.0 - 1e-12)
        if np.logical_or.reduce(stuck, axis=None):
            gap = -np.maximum.reduce(np.where(spread < 0.0, spread, -np.inf), axis=-1)[stuck]
            solved[stuck] = _solve_tilt(spread[stuck] / gap[:, None], weights[:, 0], rho) / gap
    return solved


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
