"""The KL uncertainty region: the worst case over it and its certificate (§4).

The robust tuning problem maximises the worst-case cost over the uncertainty
region

    U_w^ρ = { ŵ ≥ 0 : ŵᵀe = 1, I_KL(ŵ, w) ≤ ρ }.

Its centre is a point of the simplex: the region normalises the expected
weights once, to ``w / Σ w`` (a workload may sum to ``1 ± 1e-6``), and every
quantity below reads that one vector.  :class:`UncertaintyRegion` provides

* an exact solver for the *inner* problem — the worst-case workload of a cost
  vector, the exponential tilt ``ŵ_i ∝ w_i · exp(θ c_i)`` — by which the
  tuners price a tuning;
* its dual, ``g(θ) = max c + (ρ + ln Σ_i w_i · exp(θ(c_i − max c))) / θ``
  (Ben-Tal et al. 2013, with the conjugate ``φ*_KL(s) = eˢ − 1`` and its
  intercept minimised out, ``λ = 1/θ``): every ``θ > 0`` bounds the worst
  case from above, and the tilt's ``θ*`` attains it;
* a lower bound that needs no solve — the best mixture of the expected
  workload with one query type — by which the robust search skips cost
  vectors that cannot matter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..workloads.workload import Workload, kl_divergence


@dataclass(frozen=True)
class UncertaintyRegion:
    """The KL ball ``U_w^ρ`` around an expected workload ``w``."""

    expected: Workload
    rho: float

    def __post_init__(self) -> None:
        if not self.rho >= 0:
            raise ValueError("rho must be non-negative")

    def divergence(self, candidate: Workload) -> float:
        """KL divergence of ``candidate`` from the (normalised) expected workload."""
        support, weights, _ = self._support
        centre = np.zeros(support.shape)
        centre[support] = weights
        return kl_divergence(candidate.as_array(), centre)

    # ------------------------------------------------------------------
    # Worst-case workload (inner maximisation)
    # ------------------------------------------------------------------
    def worst_case_tilt(self, costs: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
        """Tilting parameter ``θ = 1/λ*`` of every cost vector of a batch.

        The maximiser of ``ŵ · c`` over the region has the exponential-tilting
        form ``ŵ_i ∝ w_i · exp(θ c_i)`` where the single scalar ``θ ≥ 0`` makes
        the KL constraint tight.  The divergence of the tilted workload grows
        monotonically with ``θ`` from 0 towards ``-log`` of the expected mass
        on the costliest supported components; a radius at or beyond that
        limit is answered by ``θ = ∞`` (all mass on those components), a
        radius of (numerically) zero by ``θ = 0`` (``ŵ = w``), and everything
        in between by one vectorised safeguarded-Newton solve, each row
        started from its ``start`` (:func:`_solve_tilt`).  ``costs`` has shape
        ``(..., 4)``; the result and ``start`` drop the last axis.
        """
        supported = self._supported_costs(costs)
        return self._tilt(supported, self._supported_spread(supported), start)

    @functools.cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The support mask of the expected workload, its weights there
        normalised to sum to 1 (the centre of the region), and the few ulps
        ``Σ w − 1`` by which they do not.

        The support is the weights of at least the smallest normal float,
        ``np.finfo(float).tiny``: a subnormal weight holds a few bits, so the
        tilt's ``w_i·exp(θ c_i)`` could not price it to 1e-12, and the region
        reads it as zero (it moves ``Σ w`` by less than an ulp).

        Read once per region: a robust objective call builds one region and
        asks it for the weights several times.
        """
        weights = self.expected.as_array()
        support = weights >= _MIN_WEIGHT
        centre = weights[support] / np.add.reduce(weights[support])
        return support, centre, math.fsum((*centre.tolist(), -1.0))

    def _supported_costs(self, costs: np.ndarray) -> np.ndarray:
        """The supported components of a batch of cost vectors."""
        return np.asarray(costs, dtype=float)[..., self._support[0]]

    def _tilt(
        self, supported: np.ndarray, spread: np.ndarray, start: np.ndarray | None
    ) -> np.ndarray:
        _, weights, residual = self._support
        if self.rho <= _NO_UNCERTAINTY:
            return np.zeros(spread.shape[:-1])
        limit = -np.log(np.add.reduce(np.where(spread == 0.0, weights, 0.0), axis=-1))
        theta = np.full(limit.shape, np.inf)
        inside = self.rho < limit
        start = np.broadcast_to(np.nan if start is None else start, limit.shape)[inside]
        theta[inside] = _solve_tilt(
            supported[inside], spread[inside], weights, residual, self.rho, start
        )
        return theta

    def _worst_supported(
        self, supported: np.ndarray, start: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Worst-case weights on the support of a batch of supported costs,
        and the tilt ``θ`` of each."""
        spread = self._supported_spread(supported)
        theta = self._tilt(supported, spread, start)
        column = theta[..., None]
        with np.errstate(invalid="ignore"):
            tilted = self._support[1] * np.where(
                np.isinf(column), spread == 0.0, np.exp(column * spread)
            )
        return tilted / np.add.reduce(tilted, axis=-1, keepdims=True), theta

    def worst_case_weights(self, costs: np.ndarray) -> np.ndarray:
        """Worst-case workloads ``argmax_{ŵ ∈ U} ŵ · c`` of a batch, as arrays.

        ``costs`` has shape ``(..., 4)`` and so has the result.  The maximiser
        lives on the support of the expected workload (zero-weight components
        stay zero, whatever their cost), so the stabilising shift is the
        largest *supported* cost.
        """
        result = np.zeros(np.shape(costs))
        result[..., self._support[0]] = self._worst_supported(self._supported_costs(costs))[0]
        return result

    def worst_case_costs(
        self, costs: np.ndarray, start: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value of the inner maximisation for every cost vector of a batch,
        and the tilt ``θ*`` it was read at (:meth:`worst_case_tilt`).

        ``start`` (shape ``costs.shape[:-1]``, or one that broadcasts to it)
        is where each row's tilt solve starts, typically the ``θ*`` of a
        nearby cost vector; a row without a usable one starts cold
        (:func:`_solve_tilt`).  A start moves a result by no more than the
        solve's own convergence, the last bits.
        """
        supported = self._supported_costs(costs)
        weights, theta = self._worst_supported(supported, start)
        return np.add.reduce(weights * supported, axis=-1), theta

    def worst_case_cost(self, cost_vector: np.ndarray) -> float:
        """Value of the inner maximisation ``max_{ŵ ∈ U} ŵ · c``."""
        return float(self.worst_case_costs(cost_vector)[0])

    def dual_value(self, cost_vector: np.ndarray, theta: float) -> float:
        """The dual ``g(θ) = a + (ρ + ln Σ_i w_i·exp(θ(c_i − a))) / θ`` at ``θ > 0``.

        The same for every anchor ``a``; at the tilted mean ``m_θ`` it is
        ``m_θ + (ρ − I_KL(tilted_θ, w)) / θ``, read as the tilt solve reads
        it (:func:`_tilted`).  An upper bound of the worst case for every
        ``θ``, equal to it at the tilt's ``θ*``.  ``θ = ∞`` reads the largest
        supported cost, the vertex; a radius the region answers by ``w``
        itself reads ``w · c``.
        """
        supported = self._supported_costs(cost_vector)
        _, weights, residual = self._support
        if self.rho <= _NO_UNCERTAINTY:
            return float(supported @ weights)
        if math.isinf(theta):
            return float(np.maximum.reduce(supported))
        spread = self._supported_spread(supported)[:, None]
        with np.errstate(over="ignore"):
            mean, _, divergence = _tilted(
                theta, supported[:, None], spread, weights[:, None], residual
            )
        return float(mean[0] + (self.rho - divergence[0]) / theta)

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
        in the region: the formula takes ``Σ w = 1``, which the normalised
        weights meet to a few ulps, so it is held to ``ρ − max(1 − Σ w, 0)``.
        Radii the region answers by ``w`` itself give 0.
        """
        _, weights, residual = self._support
        return np.array(_mixture_shares(tuple(weights.tolist()), self.rho, residual))

    def nominal_costs(self, costs: np.ndarray) -> np.ndarray:
        """``w·c``: the cost under the expected workload, the region's centre.

        The worst case at ``θ = 0``, so a lower bound of the inner
        maximisation.
        """
        return self._supported_costs(costs) @ self._support[1]

    def mixture_bounds(self, costs: np.ndarray) -> np.ndarray:
        """Lower bound of the inner maximisation for every cost vector of a batch.

        ``max(w·c, max_j [(1 − t_j)·w·c + t_j·c_j])``: the best of ``w`` and
        its mixtures with one vertex (:meth:`mixture_shares`), each a point of
        the region.  It needs no tilt, so a search can skip a cost vector whose
        bound already loses.
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

#: Smallest expected weight on the support: the smallest normal float.
_MIN_WEIGHT = float(np.finfo(float).tiny)

#: Bisection steps of a mixture share: the share to within 2⁻³⁰.
_MIXTURE_BISECTIONS = 30


@functools.lru_cache(maxsize=64)
def _mixture_shares(weights: tuple[float, ...], rho: float, residual: float) -> tuple[float, ...]:
    """:meth:`UncertaintyRegion.mixture_shares`, once per workload and radius."""
    radius = rho + min(residual, 0.0)
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
                if _mixture_divergence(middle, weight) <= radius:
                    share = middle
                else:
                    high = middle
        shares.append(share)
    return tuple(shares)


def _mixture_divergence(share: float, weight: float) -> float:
    """``I_KL((1 − t)·w + t·e_j, w)`` of a share ``0 < t < 1`` and weight ``w_j``.

    ``ln(1 − t + t/w_j)`` is ``ln(1 + t·(1 − w_j)/w_j)`` up to ``t = w_j``,
    exact for the small shares of small radii, and beyond it
    ``ln t − ln w_j + ln(1 + (1 − t)·w_j/t)``, which no subnormal overflows.
    """
    rest = (1.0 - share) * (1.0 - weight) * math.log1p(-share)
    if share <= weight:
        ratio = math.log1p(share * (1.0 - weight) / weight)
    else:
        ratio = math.log(share) - math.log(weight) + math.log1p((1.0 - share) * weight / share)
    return rest + ((1.0 - share) * weight + share) * ratio


def _moments(
    mass: np.ndarray, costs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Total, anchor ``a``, deviations ``c − a``, offset ``m − a`` and second
    moment about ``a`` of (unnormalised) weights ``mass`` on ``costs``.

    Components run along axis 0.  The anchor is the weighted mean as the
    first sum rounds it, and the offset the little that sum left out.
    """
    total = np.add.reduce(mass, axis=0)
    anchor = np.add.reduce(mass * costs, axis=0) / total
    deviation = costs - anchor
    moment = mass * deviation
    offset = np.add.reduce(moment, axis=0) / total
    variance = np.add.reduce(moment * deviation, axis=0) / total
    return total, anchor, deviation, offset, variance


def _tilted(
    theta: np.ndarray | float,
    costs: np.ndarray,
    spread: np.ndarray,
    weights: np.ndarray,
    residual: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance and divergence ``I_KL(tilted_θ, w)`` of tilted workloads.

    Components run along axis 0 of ``costs`` and ``spread`` (the costs less
    their largest), and of ``weights``, shape ``(k, 1)``; ``residual`` is
    ``Σ w − 1``, a few ulps.  The divergence is taken about a float ``a``
    next to the tilted mean ``m``, as ``θ(m − a) − log1p(Σ_i
    w_i·expm1(θ(c_i − a)) + residual)``: its terms are of the size of
    ``θ|c_i − a|``.  The shifted form, ``θ(m − c_max) − ln Σ_i
    w_i·exp(θ(c_i − c_max))``, cancels two of size ``θ(c_max − m)``: 1e-9
    relative and worse where the costliest component has a tiny weight.  It
    stays for a column whose sum ``Σ_i w_i·exp(θ(c_i − a)) = exp(−I_KL)``
    leaves ``[0.5, 1.5]``: the ``log1p`` form then cancels (``I_KL`` beyond
    ``ln 2``, where ``θ(c_max − m)`` is no longer large against it) or
    overflows (a weight near subnormal).
    """
    total, anchor, deviation, offset, variance = _moments(weights * np.exp(theta * spread), costs)
    less_one = np.add.reduce(weights * np.expm1(theta * deviation), axis=0) + residual
    log_sum = np.log1p(less_one)
    far = np.abs(less_one) > 0.5
    if np.logical_or.reduce(far, axis=None):
        shifted = np.log(total) + theta * np.maximum.reduce(deviation, axis=0)
        log_sum = np.where(far, shifted, log_sum)
    return anchor + offset, variance, theta * offset - log_sum


def _solve_tilt(
    costs: np.ndarray,
    spread: np.ndarray,
    weights: np.ndarray,
    residual: float,
    rho: float,
    start: np.ndarray,
) -> np.ndarray:
    """``θ`` with ``I_KL(tilted_θ, w) = ρ`` for every row of ``costs``.

    Newton's iteration on the monotone divergence (:func:`_tilted`),
    safeguarded by a bisection bracket: a step that leaves ``[lo, hi]`` is
    replaced by its midpoint.  Each row starts from its entry of ``start``,
    typically the ``θ*`` of a nearby cost vector, from which a few iterations
    reach the root (one, if it is that root).  A start that is not in
    ``(0, _MAX_TILT / 2)`` — NaN, ``±∞``, ``≤ 0`` — is replaced by the cold
    start, the small-θ expansion ``I_KL ≈ θ² Var_w(c) / 2``, whose variance
    the weighted moments give without a tilt.  Each row stops at its own
    convergence: a converged row keeps its ``θ`` while the rest iterate on,
    and once half the rows are done they leave the arrays.  A row's result
    therefore depends on its row and its start alone, not on the batch it is
    solved in — ``worst_case_costs(batch)[0][i]`` equals
    ``worst_case_cost(batch[i])`` bit for bit when neither has a start.

    The search hands it one to a few hundred rows, and an iteration is some
    fifty ufunc calls on them: a 162-row solve costs about twice a 1-row
    one.  The loop therefore calls the ufuncs and their reductions itself
    (``np.add.reduce``, ``np.logical_and.reduce``), not NumPy's Python
    wrappers around them.
    """
    # Components along axis 0: reducing over the (at most four) query types
    # is then a handful of whole-batch additions.
    columns, shifted = np.ascontiguousarray(costs.T), np.ascontiguousarray(spread.T)
    weights = weights[:, None]
    theta = np.array(start, dtype=float)
    cold = ~((theta > 0.0) & (theta < 0.5 * _MAX_TILT))
    low = np.zeros(theta.shape)
    high = np.full(theta.shape, _MAX_TILT)
    done = np.zeros(theta.shape, dtype=bool)
    solved = np.empty(theta.shape)
    rows = np.arange(theta.size)  # the rows still in the arrays
    # A vanishing variance starts mid-bracket; a vanishing θ·variance makes a
    # Newton step the bracket replaces.
    with np.errstate(all="ignore"):
        if np.logical_or.reduce(cold, axis=None):
            variance = _moments(weights, columns)[4]  # Var_w(c), as _tilted reads it at θ = 0
            guess = np.minimum(np.sqrt(2.0 * rho / variance), 0.5 * _MAX_TILT)
            np.copyto(theta, guess, where=cold)
        for _ in range(100):
            _, variance, divergence = _tilted(theta, columns, shifted, weights, residual)
            excess = divergence - rho
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
                columns, shifted, done = columns[:, keep], shifted[:, keep], done[keep]
        solved[rows] = theta
        # A root beyond the bracket needs a gap below ~1e-3 between the
        # costliest component and the next: solve such rows again, cold, in
        # units of that gap (a subnormal gap overflows to θ = ∞, the vertex).
        stuck = solved > _MAX_TILT * (1.0 - 1e-12)
        if np.logical_or.reduce(stuck, axis=None):
            gap = -np.maximum.reduce(np.where(spread < 0.0, spread, -np.inf), axis=-1)[stuck]
            scaled = spread[stuck] / gap[:, None]
            solved[stuck] = (
                _solve_tilt(scaled, scaled, weights[:, 0], residual, rho, np.full(gap.shape, np.nan))
                / gap
            )
    return solved
