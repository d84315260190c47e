"""The one search behind the nominal and robust tuners.

Both tuners minimise an objective over the design space ``(T, h, π)``.  The
only discontinuity of the cost surface is the level count ``L(T, h)``, a step
function whose cliffs are closed-form — ``N·E / m_buf(h) + 1 = T^L`` is both
the smallest ratio with at most ``L`` levels at a given ``h`` and the largest
``h`` with at most ``L`` levels at a given ``T`` — and every optimum sits on
one.  Inside a *band* ``{L(T, h) = L}`` the objective is smooth, so the search
works band by band and never evaluates a scalar objective:

1. every band is a box in ``(T, v)``, ``v`` being the fraction of the way
   from the band's lower cliff to its upper cliff at that ``T``; all bands of
   all policies are priced on a coarse ``(T, v)`` grid in batched
   :meth:`~repro.lsm.cost_model.LSMCostModel.cost_points` passes;
2. every (policy, band) whose coarse optimum is within a few percent of the
   best is zoomed — the grid shrinks around its best point for a fixed
   number of rounds, all candidates sharing one pass per round;
3. the winner is picked under a canonical tie-break (within ``1e-9``
   relative: fewest levels, then smallest ``T``, then smallest ``h``, then
   policy order), so a flat objective yields one answer on every NumPy.

With ``polish=False`` the same search runs on the integer size ratios only
(each integer ``T`` of a band is a row, zoomed in ``v``); with ``polish=True``
``T`` is continuous inside each band, which recovers the fractional ratios
the paper reports.  The original Endure implementation — and this module
until the cliffs were measured — polished with SciPy's SLSQP from several
starting points; a gradient step cannot cross a level cliff, so it was both
the slowest stage and the one that missed the optimum.

The cost vectors of stage 1 do not depend on the workload beyond its
long-range fraction ``ν`` (``C(w, Φ) = w · c(Φ)``), so the coarse grid is
priced once per process for each system, ratio rows, ``polish``, policy stack
and ``ν`` (:func:`_memoised_grid`); a later solve on the same key only
evaluates its own objective over the stored cost vectors.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..lsm.cost_model import LSMCostModel
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

#: Objectives within this relative distance tie; see the module docstring.
_TIE = 1e-9

#: Coarse grid per band: points along the pinned coordinate (continuous
#: search only) × points between the cliffs along the free one.
_COARSE = (24, 9)

#: Zoom: points per axis and round (odd, so the centre stays on the grid),
#: rounds, and which (policy, band) optima are worth zooming into.
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


def _argbest(values: np.ndarray, *keys: np.ndarray) -> int:
    """Index of the smallest value, ties going to the smallest ``keys``."""
    tied = np.flatnonzero(values <= values.min() * (1.0 + _TIE))
    order = np.lexsort([np.asarray(key)[tied] for key in reversed(keys)])
    return int(tied[order[0]])


def _window(centre: np.ndarray, step: np.ndarray, counts: tuple[int, int]):
    """Unit-square grids of ``counts`` points within ``step`` of each centre.

    ``centre`` has shape ``(K, 2)``; the two results have shape ``(K, n)``.
    """
    a, b = (
        np.clip(centre[:, i, None] + step[i] * np.linspace(-1.0, 1.0, counts[i]), 0.0, 1.0)
        for i in (0, 1)
    )
    a, b = np.broadcast_arrays(a[:, :, None], b[:, None, :])
    return a.reshape(len(centre), -1), b.reshape(len(centre), -1)


def _coarse_window(polish: bool) -> tuple[tuple[int, int], np.ndarray]:
    """Points per axis and half-width of the coarse grid of every band."""
    return (_COARSE[0] if polish else 1, _COARSE[1]), np.array([0.5 * polish, 0.5])


@dataclass(frozen=True)
class _CoarseGrid:
    """Stage 1 of the search up to the objective: the coarse grid of every
    band and the cost vectors of every policy on it.

    ``levels`` / ``low`` / ``high`` have shape ``(R, 1)``, one row per search
    region; ``a`` / ``b`` / ``ratios`` / ``bits`` have shape ``(R, n)``, and
    ``costs`` has shape ``(P, R·n, 4)``, priced in passes of ``chunk``
    points.  Every array is read-only: one grid serves many solves.
    """

    policies: tuple[CompactionPolicy, ...]
    levels: np.ndarray
    low: np.ndarray
    high: np.ndarray
    a: np.ndarray
    b: np.ndarray
    ratios: np.ndarray
    bits: np.ndarray
    costs: np.ndarray
    chunk: int


def _coarse_grid(
    system: SystemConfig,
    rows: tuple[float, ...],
    polish: bool,
    policies: tuple[CompactionPolicy, ...],
    long_range_fraction: float,
) -> _CoarseGrid:
    """Price every band of every policy on the coarse grid.

    The points are priced in chunks that keep the ``(policy, point, level)``
    tensor bounded.  A chunk's level axis runs to its deepest band, which can
    move the last bit of a level sum, so the chunks are part of the result.
    """
    bands = LevelBands(system, np.asarray(rows, dtype=float), polish)
    levels, low, high = (column[:, None] for column in bands.regions)
    counts, step = _coarse_window(polish)
    a, b = _window(np.full((len(levels), 2), 0.5), step, counts)
    ratios, bits = bands.points(levels, low + a * (high - low), b)
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
    arrays = (levels, low, high, a, b, ratios, bits, costs)
    for array in arrays:
        array.setflags(write=False)
    return _CoarseGrid(policies, *arrays, chunk)


#: :func:`_coarse_grid` memoised on its hashable arguments.  Only a search
#: over a tuner's own policy stack goes through it; the k-vector descent's
#: one-policy re-searches would only evict the grids worth keeping.
_memoised_grid = functools.lru_cache(maxsize=_GRID_MEMO_SIZE)(_coarse_grid)


@dataclass(frozen=True)
class _Design:
    """One priced design point and the band it was priced in."""

    value: float
    size_ratio: float
    bits: float
    policy: CompactionPolicy
    levels: int


class BaseTuner(abc.ABC):
    """Band-by-band batched search shared by every tuner.

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
        The size ratios searched: exactly these rows with ``polish=False``,
        the continuous interval they span with ``polish=True``.  Defaults to
        all integers in ``[2, max_size_ratio]``.
    polish:
        Whether ``T`` is continuous inside each level band (the fractional
        ratios the paper reports) or restricted to ``ratio_candidates``.
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

    #: Uncertainty radius of the objective (0 for the nominal problem).
    rho = 0.0

    def __init__(
        self,
        system: SystemConfig | None = None,
        policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES,
        ratio_candidates: Sequence[float] | None = None,
        polish: bool = True,
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
        # Enum-level view kept for introspection and backwards compatibility.
        self.policies = tuple(dict.fromkeys(spec.policy for spec in self.policy_specs))
        self.polish = bool(polish)
        if ratio_candidates is None:
            ratio_candidates = np.arange(2, int(self.system.max_size_ratio) + 1)
        self.ratio_candidates = np.asarray(sorted(ratio_candidates), dtype=float)
        if self.ratio_candidates.size == 0:
            raise ValueError("ratio_candidates must not be empty")
        self.bands = LevelBands(self.system, self.ratio_candidates, self.polish)

    @abc.abstractmethod
    def _objective_from_costs(
        self, costs: np.ndarray, workload: Workload, bound: float | None = None
    ) -> np.ndarray:
        """Batched objective over cost vectors: ``(..., 4)`` → ``(...)``.

        ``bound`` is the incumbent of the search (``inf`` before it has
        one): an objective above it can no longer win, so an implementation
        may report it as ``inf`` instead of evaluating it.  ``None``
        evaluates every cell.
        """

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def _price(self, ratios, bits, policies, workload: Workload, bound=np.inf) -> np.ndarray:
        """Objective of paired ``(T, h)`` points (axis 0: the policy axis)."""
        costs = self.cost_model.cost_points(ratios, bits, policies, workload.long_range_fraction)
        return self._values(costs, workload, bound)

    def _values(self, costs: np.ndarray, workload: Workload, bound=np.inf) -> np.ndarray:
        """Objective of priced cost vectors; ``inf`` where it cannot win."""
        values = self._objective_from_costs(costs, workload, bound * (1.0 + _TIE))
        return np.where(np.isfinite(values), values, np.inf)

    def _grid_key(self, policies: Sequence[CompactionPolicy], workload: Workload) -> tuple:
        """Arguments of :func:`_coarse_grid` for a search over ``policies``."""
        rows = tuple(self.ratio_candidates.tolist())
        return self.system, rows, self.polish, tuple(policies), workload.long_range_fraction

    def _search(self, grid: _CoarseGrid, workload: Workload) -> tuple[_Design, dict[str, float]]:
        """Best ``(T, h, π)`` over the grid's policies and each policy's best value."""
        policies = grid.policies
        levels, low, high = grid.levels, grid.low, grid.high
        a, b, ratios, bits = grid.a, grid.b, grid.ratios, grid.bits
        counts, step = _coarse_window(self.polish)

        # Stage 1: this workload's objective on the priced coarse grid, chunk
        # by chunk, so that a robust objective prunes by the running bound.
        values = np.empty((len(policies), ratios.size))
        bound = np.inf
        for start in range(0, ratios.size, grid.chunk):
            part = slice(start, start + grid.chunk)
            values[:, part] = self._values(grid.costs[:, part], workload, bound)
            bound = min(bound, float(values[:, part].min()))
        if not np.isfinite(bound):
            raise RuntimeError("the optimiser failed to produce any finite solution")
        values = values.reshape(len(policies), *ratios.shape)
        group_best = values.min(axis=2)
        per_policy = group_best.min(axis=1)

        # Stage 2: zoom into every (policy, group) within reach of the best;
        # all of them share one pass per round.
        ranked = np.argsort(group_best, axis=None, kind="stable")
        ranked = ranked[group_best.ravel()[ranked] <= bound * _ZOOM_MARGIN]
        chosen, member = np.unravel_index(ranked, group_best.shape)
        # Fluid bounds that clamp to the same design tie exactly; zoom once.
        twin = (np.diff(group_best[chosen, member]) == 0.0) & (np.diff(member) == 0)
        ranked = ranked[np.concatenate([[True], ~twin])][:_ZOOM_CANDIDATES]
        chosen, member = np.unravel_index(ranked, group_best.shape)
        specs = [policies[i] for i in chosen]
        levels, low, high = levels[member], low[member], high[member]
        values, a, b = values[chosen, member], a[member], b[member]
        ratios, bits = ratios[member], bits[member]
        best = np.full(ranked.size, np.inf)
        centre, design = np.empty((2, ranked.size, 2))
        for zoom in range(_ZOOM_ROUNDS + 1):
            if zoom:
                a, b = _window(centre, step, counts)
                ratios, bits = self.bands.points(levels, low + a * (high - low), b)
                values = self._price(ratios, bits, specs, workload, bound)
            for k in range(ranked.size):
                at = _argbest(values[k], ratios[k], bits[k])
                if values[k, at] <= best[k] * (1.0 + _TIE):
                    best[k], centre[k] = values[k, at], (a[k, at], b[k, at])
                    design[k] = ratios[k, at], bits[k, at]
            bound = min(bound, float(best.min()))
            step = 2.0 * step / np.maximum(np.array(counts) - 1, 1)
            counts = (_ZOOM_POINTS if self.polish else 1, _ZOOM_POINTS)

        # Stage 3: the winner, under the canonical tie-break.
        np.minimum.at(per_policy, chosen, best)
        k = _argbest(best, levels[:, 0], design[:, 0], design[:, 1], chosen)
        winner = _Design(float(best[k]), *design[k].tolist(), specs[k], int(levels[k, 0]))
        return winner, {
            policy.name: float(value) for policy, value in zip(policies, per_policy)
        }

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def tune(self, workload: Workload) -> TuningResult:
        """Solve the tuning problem for ``workload`` and return the best result."""
        grid = _memoised_grid(*self._grid_key(self.policy_specs, workload))
        design, per_policy = self._search(grid, workload)
        solver_info: dict = {"per_policy_objective": per_policy}
        if self.k_vector_search and design.policy.policy is Policy.FLUID:
            design = self._descend_k_vector(design, workload)
            solver_info["k_vector_search"] = design.policy.name
        solver_info["levels"] = design.levels
        return TuningResult(
            tuning=LSMTuning(design.size_ratio, design.bits, design.policy),
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
        with its last element, clamped to the deployed ``T - 1``).  Each
        level's bound (and ``Z``) is then moved in turn: all candidates of
        the geometric ladder are priced in one pass at the incumbent's
        ``(T, h)``, and an improving move is kept and ``(T, h)`` re-searched
        under the moved vector.  Passes repeat until one completes with no
        move.  The enumeration families only seed structured shapes — this
        is what reaches arbitrary vectors without an exponential sweep, and
        because it moves through deployable vectors only, the bounds it
        reports are the bounds that deploy.  The (relaxed) search winner only
        stands where no deployable vector matches it.
        """

        def cap_at(size_ratio: float) -> float:
            return float(max(1, round_half_up(size_ratio) - 1))

        def research(bounds: list[float]) -> _Design:
            policy = CompactionPolicy.fluid(bounds[:-1], bounds[-1])
            return self._search(_coarse_grid(*self._grid_key([policy], workload)), workload)[0]

        cap = cap_at(design.size_ratio)
        bounds = list(design.policy.bounds)
        bounds += bounds[-1:] * (DEFAULT_VECTOR_LEVELS - len(bounds)) + [design.policy.z_bound]
        bounds = [float(min(round_half_up(min(bound, cap)), cap)) for bound in bounds]
        incumbent = research(bounds)
        for _ in range(_DESCENT_MAX_PASSES):
            moved = False
            for position in range(len(bounds)):
                cap = cap_at(incumbent.size_ratio)
                ladder = sorted({min(float(b), cap) for b in _DESCENT_BOUNDS} | {cap})
                trials = [bounds[:position] + [b] + bounds[position + 1 :] for b in ladder]
                values = self._price(
                    np.full((1, 1), incumbent.size_ratio),
                    np.full((1, 1), incumbent.bits),
                    [CompactionPolicy.fluid(trial[:-1], trial[-1]) for trial in trials],
                    workload,
                )[:, 0]
                pick = _argbest(values, ladder)
                if values[pick] < incumbent.value * (1.0 - _TIE):
                    bounds, moved = trials[pick], True
                    incumbent = research(bounds)
            if not moved:
                break
        cap = cap_at(incumbent.size_ratio)
        if max(bounds) > cap:
            # A re-search that shrank T left bounds above the new T - 1:
            # report (and price) what deploys.
            incumbent = research([min(bound, cap) for bound in bounds])
        return incumbent if incumbent.value <= design.value * (1.0 + _TIE) else design
