"""The tuning problem and its one search.

Endure tunes ``(T, h, π)`` for the worst case over a KL ball of radius ``ρ``
(§3.3–§4); at ``ρ = 0`` that is the nominal problem (Problem 1, §3.2).
:func:`objective` prices it for any ``ρ``, :class:`NominalTuner` searches it
at ``ρ = 0``, and :class:`~repro.core.robust.RobustTuner` adds the radius.

The only discontinuity of the cost surface is the level count ``L(T, h)``, a
step function whose cliffs are closed-form — ``N·E / m_buf(h) + 1 = T^L`` is
both the smallest ratio with at most ``L`` levels at a given ``h`` and the
largest ``h`` with at most ``L`` levels at a given ``T`` — and every optimum
sits on one.  Inside a *band* ``{L(T, h) = L}`` the objective is smooth, so
the search works band by band and never evaluates a scalar objective:

1. every integer ``T`` of a band is a *row*, a segment in ``v`` (the
   fraction of the way from the band's lower cliff to its upper cliff at
   that ``T``); all rows of all policies are priced on a coarse grid in ``v``
   in batched :meth:`~repro.lsm.cost_model.LSMCostModel.cost_points` passes,
   and the objective of a point that can matter neither to the zoom nor to
   its policy's best value may be skipped (the mixture bound of ``ρ > 0``);
2. every (policy, row) whose coarse optimum is within a few percent of the
   best is zoomed — the grid shrinks around its best ``v`` for a fixed
   number of rounds, all candidates sharing one pass per round;
3. the winner is picked under a canonical tie-break (within ``1e-9``
   relative: fewest levels, then smallest ``T``, then smallest ``h``, then
   policy order), so a flat objective yields one answer on every NumPy.

``T`` takes integer values only, because an engine (RocksDB, and the ones
in :mod:`repro.storage`) deploys an integer size ratio: the tuning a search
returns deploys as itself, and its objective is the cost of what deploys.

The cost vectors of stage 1 do not depend on the workload beyond its
long-range fraction ``ν`` (``C(w, Φ) = w · c(Φ)``), so the coarse grid is
priced once per process for each system, ratio rows, policy stack and ``ν``
(:func:`_memoised_grid`); a later solve on the same key only evaluates its
own objective over the stored cost vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..lsm.cost_model import LSMCostModel, support_dot
from ..lsm.policy import (
    CLASSIC_POLICIES,
    DEFAULT_VECTOR_LEVELS,
    CompactionPolicy,
    Policy,
    expand_policy_specs,
)
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning, round_half_up
from ..workloads.workload import Workload
from .bands import LevelBands
from .results import TuningResult
from .uncertainty import UncertaintyRegion

#: Objectives within this relative distance tie; see the module docstring.
_TIE = 1e-9

#: Coarse grid per row: points between its two cliffs.
_COARSE = 9

#: Zoom: points per row and round (odd, so the centre stays on the grid),
#: rounds, and which (policy, row) optima are worth zooming into.
_ZOOM_POINTS = 9
_ZOOM_ROUNDS = 6
_ZOOM_MARGIN = 1.05
_ZOOM_CANDIDATES = 24

#: Largest ``policy × point × level`` tensor of one pass (8 MB of float64).
_MAX_ELEMENTS = 1 << 20

#: Priced coarse grids kept per process.  An entry on the 20k-entry simulator
#: system is ~0.25 MB under the classic policies, ~4.4 MB under
#: ``ALL_POLICIES`` and ~7.3 MB for a k-vector search (~1.7× that on the
#: default system).
_GRID_MEMO_SIZE = 4

#: Per-level candidate bounds tried by the coordinate descent over a fluid
#: bound vector (clamped per ``T``): a geometric ladder spanning the
#: leveling → tiering spectrum.
_DESCENT_BOUNDS: tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

#: Hard cap on coordinate-descent passes; a pass with no move ends it early.
_DESCENT_MAX_PASSES = 4

#: Relative slack taken off a mixture bound before it prunes: the bound and
#: the tilted worst case each carry their own rounding.
_BOUND_SLACK = 1e-12


def check_rho(rho: float) -> float:
    """``rho`` if it is a radius (``ρ ≥ 0``, so not NaN); else ``ValueError``."""
    if not rho >= 0:
        raise ValueError("rho must be non-negative")
    return rho


def objective(
    costs: np.ndarray,
    workload: Workload,
    rho: float,
    bound: float | None = None,
    coarse: bool = False,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The tuning objective of a batch of cost vectors, ``(..., 4)`` →
    ``(...)``, and the tilt ``θ*`` each cell was priced at.

    ``ρ = 0``: the expected cost over the workload's support
    (:func:`~repro.lsm.cost_model.support_dot`), at ``θ = 0``; ``ρ > 0``:
    the exact worst case over the KL ball
    (:meth:`UncertaintyRegion.worst_case_costs`), each cell's tilt solve
    started from its entry of ``start`` (broadcast to the cells; ``None``
    starts every cell cold).

    ``bound`` is the incumbent of the search (``inf`` before it has one): a
    cell above it may read ``inf`` (and ``θ`` NaN); ``None`` evaluates every
    cell.  For ``ρ > 0`` the nominal cost under the normalised workload
    (:meth:`UncertaintyRegion.nominal_costs`) is a free lower bound of the
    worst case, so the tilt is only solved for cells whose nominal cost beats
    the bound; an infinite one is first replaced by the worst case of the
    nominally best cell.

    ``coarse`` marks a chunk of the coarse grid, shape ``(P, n, 4)`` with
    axis 0 the policy axis.  There the tilt also skips a cell whose mixture
    bound (:meth:`UncertaintyRegion.mixture_bounds`, less ``1e-12``
    relative) lies both beyond the zoom margin of ``bound`` and above its
    policy's seed — the worst case of the policy's nominally best cell, all
    seeds from one tilt call.  Such a cell can neither be zoomed into nor be
    its policy's best, so the search does not change.
    """
    if rho == 0.0:
        values = support_dot(costs, workload.as_array())
        return values, np.zeros(values.shape)
    region = UncertaintyRegion(expected=workload, rho=rho)
    if bound is None:
        return region.worst_case_costs(costs, start)
    nominal = region.nominal_costs(costs)
    if coarse:
        policy = np.arange(len(nominal))
        best = nominal.argmin(axis=1)
        seeds = region.worst_case_costs(costs[policy, best])[0]
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
    theta = np.full(nominal.shape, np.nan)
    if start is not None:
        start = np.broadcast_to(start, nominal.shape)[alive]
    values[alive], theta[alive] = region.worst_case_costs(costs[alive], start)
    return values, theta


def _argbest(values: np.ndarray, *keys) -> np.ndarray:
    """Index of the smallest value along the last axis, ties going to the
    smallest ``keys`` (then the smallest index); one per row of ``values``."""
    tied = values <= np.minimum.reduce(values, axis=-1, keepdims=True) * (1.0 + _TIE)
    # ``lexsort`` is stable and reads its last key first: the tied points,
    # ordered by the keys.
    return np.lexsort((*reversed(keys), ~tied))[..., 0]


def _window(centre: np.ndarray, step: float, count: int) -> np.ndarray:
    """``count`` points of ``[0, 1]`` within ``step`` of each centre.

    ``centre`` has shape ``(K,)``; the result has shape ``(K, count)``.
    """
    # A centre is never -0.0, nor is its sum with an offset: this is ``np.clip``.
    return np.minimum(np.maximum(centre[:, None] + step * _offsets(count), 0.0), 1.0)


@functools.lru_cache(maxsize=None)
def _offsets(count: int) -> np.ndarray:
    """``count`` evenly spaced points of ``[-1, 1]`` (read-only)."""
    offsets = np.linspace(-1.0, 1.0, count)
    offsets.setflags(write=False)
    return offsets


@dataclass(frozen=True)
class _CoarseGrid:
    """Stage 1 of the search up to the objective: the coarse grid of every
    row and the cost vectors of every policy on it.

    ``levels`` has shape ``(R, 1)``, one entry per row; ``fractions`` (the
    ``v`` of each point) / ``ratios`` / ``bits`` have shape ``(R, n)``, and
    ``costs`` has shape ``(P, R·n, 4)``, priced in passes of ``chunk``
    points.  Every array is read-only: one grid serves many solves.
    """

    policies: tuple[CompactionPolicy, ...]
    levels: np.ndarray
    fractions: np.ndarray
    ratios: np.ndarray
    bits: np.ndarray
    costs: np.ndarray
    chunk: int


def _coarse_grid(
    system: SystemConfig,
    rows: tuple[float, ...],
    policies: tuple[CompactionPolicy, ...],
    long_range_fraction: float,
) -> _CoarseGrid:
    """Price every row of every policy on the coarse grid.

    The points are priced in chunks that keep the ``(policy, point, level)``
    tensor bounded.  A chunk's level axis runs to its deepest band, which can
    move the last bit of a level sum, so the chunks are part of the result.
    """
    bands = LevelBands(system, np.asarray(rows, dtype=float))
    levels, pinned = (column[:, None] for column in bands.regions)
    fractions = _window(np.full(len(levels), 0.5), 0.5, _COARSE)
    ratios, bits = bands.points(levels, pinned, fractions)
    model = LSMCostModel(system)
    chunk = max(1, _MAX_ELEMENTS // (len(policies) * int(levels.max())))
    costs = np.concatenate(
        [
            model.cost_points(
                ratios.reshape(1, -1)[:, start : start + chunk],
                bits.reshape(1, -1)[:, start : start + chunk],
                policies,
                long_range_fraction,
            )
            for start in range(0, ratios.size, chunk)
        ],
        axis=1,
    )
    arrays = (levels, fractions, ratios, bits, costs)
    for array in arrays:
        array.setflags(write=False)
    return _CoarseGrid(policies, *arrays, chunk)


#: :func:`_coarse_grid` memoised on its hashable arguments.  Only a search
#: over a tuner's own policy stack goes through it; the k-vector descent's
#: one-policy re-searches would only evict the grids worth keeping.
_memoised_grid = functools.lru_cache(maxsize=_GRID_MEMO_SIZE)(_coarse_grid)


@dataclass(frozen=True)
class _Design:
    """One priced design point, the band it was priced in, and its cost
    vector and the tilt ``θ*`` of its worst case (0 at ``ρ = 0``)."""

    value: float
    size_ratio: float
    bits: float
    policy: CompactionPolicy
    levels: int
    costs: np.ndarray
    theta: float


class NominalTuner:
    """The band-by-band search of :func:`objective`, at ``ρ = 0``.

    Parameters
    ----------
    system:
        System configuration to tune for.
    policies:
        Compaction policies to consider (the paper's classical pair by
        default; pass :data:`~repro.lsm.policy.ALL_POLICIES` to include the
        hybrids).  Entries may be enum members, strings, or explicit
        :class:`~repro.lsm.policy.CompactionPolicy` values pinning the run
        bounds; ``Policy.FLUID`` expands into the ``(K, Z)`` candidate grid
        :data:`~repro.lsm.policy.DEFAULT_FLUID_K_GRID` ×
        :data:`~repro.lsm.policy.DEFAULT_FLUID_Z_GRID`, so the search
        optimises the fluid bounds alongside ``(T, h, π)``.
    ratio_candidates:
        The size ratios searched, each an integer ``≥ 2`` (a ratio that does
        not deploy as itself raises ``ValueError``).  Defaults to all
        integers in ``[2, max_size_ratio]``.
    k_vector_search:
        Whether the fluid search covers per-level ``K_i`` bound vectors: the
        candidate enumeration adds the structured vector families of
        :func:`~repro.lsm.policy.fluid_vector_specs` over the first
        :data:`~repro.lsm.policy.DEFAULT_VECTOR_LEVELS` levels (deeper levels
        reuse the last element),
        and a batched coordinate descent over *integer* ``K_i``/``Z`` — the
        deployed space — refines the winning fluid design.
    seed:
        Accepted and ignored: the search is deterministic and has nothing
        left to seed.  The keyword survives only because the frozen
        ``bench/workloads.py`` passes it.
    """

    #: Radius of the objective: 0, the nominal problem.
    rho = 0.0

    def __init__(
        self,
        system: SystemConfig | None = None,
        policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES,
        ratio_candidates: Sequence[float] | None = None,
        k_vector_search: bool = False,
        seed: int = 0,
    ) -> None:
        self.system = system if system is not None else SystemConfig()
        self.cost_model = LSMCostModel(self.system)
        self.k_vector_search = bool(k_vector_search)
        # An empty policy list is rejected by the expansion itself.
        self.policy_specs = expand_policy_specs(
            policies,
            max_size_ratio=self.system.max_size_ratio,
            include_k_vectors=self.k_vector_search,
        )
        if ratio_candidates is None:
            ratio_candidates = np.arange(2, int(self.system.max_size_ratio) + 1)
        self.ratio_candidates = np.asarray(sorted(ratio_candidates), dtype=float)
        if self.ratio_candidates.size == 0:
            raise ValueError("ratio_candidates must not be empty")
        rows = self.ratio_candidates
        bad = rows[~(np.isfinite(rows) & (rows >= 2.0) & (rows == np.floor(rows)))]
        if bad.size:
            raise ValueError(f"ratio_candidates must be integers >= 2, got {bad.tolist()}")
        self.bands = LevelBands(self.system, self.ratio_candidates)

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def _price(self, ratios, bits, policies, workload: Workload, bound=np.inf) -> np.ndarray:
        """Objective of paired ``(T, h)`` points (axis 0: the policy axis)."""
        costs = self.cost_model.cost_points(ratios, bits, policies, workload.long_range_fraction)
        return self._values(costs, workload, bound)[0]

    def _values(
        self, costs: np.ndarray, workload: Workload, bound=np.inf, coarse: bool = False, start=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Objective of priced cost vectors (``inf`` where it cannot win) and
        the tilt of each (:func:`objective`)."""
        values, theta = objective(costs, workload, self.rho, bound * (1.0 + _TIE), coarse, start)
        return np.where(np.isfinite(values), values, np.inf), theta

    def _coarse_values(self, grid: _CoarseGrid, workload: Workload) -> tuple[np.ndarray, np.ndarray]:
        """Stage 1: this workload's objective on the priced coarse grid, and
        the tilt of each cell.

        Chunk by chunk, so that the running bound prunes: a cell reads
        ``inf`` where the objective shows it can neither win, nor put its
        row within the zoom margin, nor be its policy's best
        (:func:`objective` with ``coarse``).  Every other cell
        holds its exact objective, solved cold.  Both results have shape
        ``(P, R·n)``.
        """
        values, theta = np.empty((2, len(grid.policies), grid.ratios.size))
        bound = np.inf
        for start in range(0, grid.ratios.size, grid.chunk):
            part = slice(start, start + grid.chunk)
            values[:, part], theta[:, part] = self._values(
                grid.costs[:, part], workload, bound, coarse=True
            )
            bound = min(bound, float(np.minimum.reduce(values[:, part], axis=None)))
        return values, theta

    def _grid_key(self, policies: Sequence[CompactionPolicy], workload: Workload) -> tuple:
        """Arguments of :func:`_coarse_grid` for a search over ``policies``."""
        rows = tuple(self.ratio_candidates.tolist())
        return self.system, rows, tuple(policies), workload.long_range_fraction

    def _search(self, grid: _CoarseGrid, workload: Workload) -> tuple[_Design, dict[str, float]]:
        """Best ``(T, h, π)`` over the grid's policies and each policy's best value."""
        policies = grid.policies
        levels, fractions, ratios, bits = grid.levels, grid.fractions, grid.ratios, grid.bits

        # Stage 1: this workload's objective on the priced coarse grid.
        values, theta = self._coarse_values(grid, workload)
        bound = float(np.minimum.reduce(values, axis=None))
        if not np.isfinite(bound):
            raise RuntimeError("the optimiser failed to produce any finite solution")
        shape = (len(policies), *ratios.shape)
        values, theta = values.reshape(shape), theta.reshape(shape)
        row_best = np.minimum.reduce(values, axis=2)
        per_policy = np.minimum.reduce(row_best, axis=1)

        # Stage 2: zoom into every (policy, row) within reach of the best;
        # all of them share one pass per round.
        ranked = np.argsort(row_best, axis=None, kind="stable")
        ranked = ranked[row_best.ravel()[ranked] <= bound * _ZOOM_MARGIN]
        chosen, member = np.unravel_index(ranked, row_best.shape)
        # Fluid bounds that clamp to the same design tie exactly; zoom once.
        twin = (np.diff(row_best[chosen, member]) == 0.0) & (np.diff(member) == 0)
        ranked = ranked[np.concatenate([[True], ~twin])][:_ZOOM_CANDIDATES]
        chosen, member = np.unravel_index(ranked, row_best.shape)
        specs = [policies[i] for i in chosen]
        levels, values, fractions = levels[member], values[chosen, member], fractions[member]
        ratios, bits, theta = ratios[member], bits[member], theta[chosen, member]
        costs = grid.costs.reshape(*shape, 4)[chosen, member]
        pinned = ratios[:, :1]
        best = np.full(ranked.size, np.inf)
        # Each candidate's best point so far: its ``v``, ``h``, cost vector
        # and tilt, which starts the tilt solves of its next window.
        centre, design_bits, tilt = np.empty((3, ranked.size))
        design_costs = np.empty((ranked.size, 4))
        rows = np.arange(ranked.size)
        count, step = _COARSE, 0.5
        for zoom in range(_ZOOM_ROUNDS + 1):
            if zoom:
                fractions = _window(centre, step, count)
                ratios, bits = self.bands.points(levels, pinned, fractions)
                costs = self.cost_model.cost_points(
                    ratios, bits, specs, workload.long_range_fraction
                )
                values, theta = self._values(costs, workload, bound, start=tilt[:, None])
            # Each candidate's best point of the round, kept where it ties
            # or beats the candidate's best so far.
            at = _argbest(values, bits)
            kept = values[rows, at] <= best * (1.0 + _TIE)
            at, k = at[kept], rows[kept]
            best[k] = values[k, at]
            centre[k], design_bits[k] = fractions[k, at], bits[k, at]
            design_costs[k], tilt[k] = costs[k, at], theta[k, at]
            bound = min(bound, float(np.minimum.reduce(best, axis=None)))
            count, step = _ZOOM_POINTS, 2.0 * step / (count - 1)

        # Stage 3: the winner, under the canonical tie-break.
        np.minimum.at(per_policy, chosen, best)
        k = int(_argbest(best, levels[:, 0], pinned[:, 0], design_bits, chosen))
        winner = _Design(
            float(best[k]),
            float(pinned[k, 0]),
            float(design_bits[k]),
            specs[k],
            int(levels[k, 0]),
            design_costs[k],
            float(tilt[k]),
        )
        return winner, {
            policy.name: float(value) for policy, value in zip(policies, per_policy)
        }

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def tune(self, workload: Workload) -> TuningResult:
        """Solve the tuning problem for ``workload`` and return the best result."""
        return self._tune(workload)[1]

    def _tune(self, workload: Workload) -> tuple[_Design, TuningResult]:
        """The winning design of the search and the result that reports it."""
        grid = _memoised_grid(*self._grid_key(self.policy_specs, workload))
        design, per_policy = self._search(grid, workload)
        solver_info: dict = {"per_policy_objective": per_policy}
        if self.k_vector_search and design.policy.policy is Policy.FLUID:
            design = self._descend_k_vector(design, workload)
            solver_info["k_vector_search"] = design.policy.name
        solver_info["levels"] = design.levels
        # ``T`` is an integer, so rounding only clamps fluid bounds above
        # ``T - 1`` to what deploys; the model already priced them clamped.
        return design, TuningResult(
            tuning=LSMTuning(design.size_ratio, design.bits, design.policy).rounded(),
            objective=design.value,
            expected_workload=workload,
            rho=self.rho,
            solver_info=solver_info,
        )

    # ------------------------------------------------------------------
    # Per-level K_i refinement (vector search only)
    # ------------------------------------------------------------------
    def _descend_k_vector(self, design: _Design, workload: Workload) -> _Design:
        """Batched coordinate descent over the integer fluid bound vector.

        The winning fluid policy is materialised to the explicit integer
        ``(K_1 … K_m, Z)`` it deploys as (padded to ``DEFAULT_VECTOR_LEVELS``
        with its last element, clamped to ``T - 1``).  Each level's bound
        (and ``Z``) is then moved in turn: all candidates of the geometric
        ladder are priced in one pass at the incumbent's ``(T, h)``, and an
        improving move is kept and ``(T, h)`` re-searched under the moved
        vector.  Passes repeat until one completes with no move.  The
        enumeration families only seed structured shapes — this is what
        reaches arbitrary vectors without an exponential sweep.  The search
        winner only stands where no vector beats it.
        """

        def research(bounds: list[float]) -> _Design:
            policy = CompactionPolicy.fluid(bounds[:-1], bounds[-1])
            return self._search(_coarse_grid(*self._grid_key([policy], workload)), workload)[0]

        cap = design.size_ratio - 1.0
        bounds = list(design.policy.bounds)
        bounds += bounds[-1:] * (DEFAULT_VECTOR_LEVELS - len(bounds)) + [design.policy.z_bound]
        bounds = [float(round_half_up(min(bound, cap))) for bound in bounds]
        incumbent = research(bounds)
        for _ in range(_DESCENT_MAX_PASSES):
            moved = False
            for position in range(len(bounds)):
                cap = incumbent.size_ratio - 1.0
                ladder = sorted({min(float(b), cap) for b in _DESCENT_BOUNDS} | {cap})
                trials = [bounds[:position] + [b] + bounds[position + 1 :] for b in ladder]
                values = self._price(
                    np.full((1, 1), incumbent.size_ratio),
                    np.full((1, 1), incumbent.bits),
                    [CompactionPolicy.fluid(trial[:-1], trial[-1]) for trial in trials],
                    workload,
                )[:, 0]
                pick = int(_argbest(values, ladder))
                if values[pick] < incumbent.value * (1.0 - _TIE):
                    bounds, moved = trials[pick], True
                    incumbent = research(bounds)
            if not moved:
                break
        # A re-search that shrank ``T`` may leave bounds above ``T - 1``: the
        # model prices them clamped, and :meth:`tune` reports them so.
        return incumbent if incumbent.value <= design.value * (1.0 + _TIE) else design
