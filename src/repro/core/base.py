"""Shared optimisation machinery for the nominal and robust tuners.

Both tuners minimise an objective over the design space ``(T, h, π)``.  The
number of levels ``L(T)`` is a step function of the size ratio, so the cost
surface is piecewise smooth with plateaus and jumps in ``T``; a single
continuous solve is unreliable there.  The tuners therefore:

1. enumerate candidate size ratios (every deployable integer by default),
2. evaluate the whole ``(T, h)`` candidate grid in one vectorised
   :meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix` pass and refine the
   promising candidates with bounded scalar minimisation (Brent) over the
   remaining smooth sub-problem, and
3. polish the best candidate with a final continuous SLSQP solve over all
   design variables — the solver the paper uses — which recovers the
   fractional size ratios the paper reports.

Each compaction policy is optimised independently and the better one wins.
The pre-vectorisation scalar sweep (one Brent solve per candidate size
ratio) is kept behind ``vectorized=False`` as a reference implementation;
the micro-benchmark in ``benchmarks/`` times one against the other.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np
from scipy import optimize

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
from .results import TuningResult

#: Small margin keeping the solver away from degenerate boundary values.
_EPSILON = 1e-6

#: Number of Bloom-filter grid points of the candidate sweep (both paths).
_BITS_GRID_POINTS = 24

#: Candidates whose grid objective is within this factor of the per-policy
#: best are Brent-refined in the vectorised sweep; everything else is pruned.
_REFINE_MARGIN = 1.05

#: Per-level candidate bounds tried by the coordinate-descent refinement of a
#: fluid bound vector (clamped per ``T``); a geometric ladder keeps each
#: coordinate pass cheap while spanning the leveling → tiering spectrum.
_DESCENT_BOUNDS: tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

#: Hard cap on coordinate-descent passes over the bound vector.  A pass with
#: no improving move ends the descent early; in practice the descent
#: converges in one or two passes, so the cap only guards pathological
#: objectives.
_DESCENT_MAX_PASSES = 4


def default_ratio_candidates(max_size_ratio: float) -> np.ndarray:
    """Candidate size ratios: every integer from 2 up to ``max_size_ratio``.

    Deployable LSM tunings use integer size ratios, and the cost surface is
    smooth between consecutive integers, so this grid combined with the
    continuous polish step covers the whole design space.
    """
    upper = int(np.floor(max_size_ratio))
    return np.arange(2, upper + 1, dtype=float)


class BaseTuner(abc.ABC):
    """Common candidate-sweep + SLSQP-polish scaffolding used by every tuner.

    Parameters
    ----------
    system:
        System configuration to tune for.
    policies:
        Compaction policies to consider (the paper's classical pair —
        leveling and tiering — by default; pass
        :data:`~repro.lsm.policy.ALL_POLICIES` to include the hybrids).
        Entries may be enum members, strings, or explicit
        :class:`~repro.lsm.policy.CompactionPolicy` values pinning the run
        bounds; ``Policy.FLUID`` expands into the default ``(K, Z)``
        candidate grid, so the sweep optimises the fluid bounds alongside
        ``(T, h, π)``.
    fluid_k_grid / fluid_z_grid:
        Fluid run-bound candidates used when ``Policy.FLUID`` is expanded
        (defaults: :data:`~repro.lsm.policy.DEFAULT_FLUID_K_GRID` /
        :data:`~repro.lsm.policy.DEFAULT_FLUID_Z_GRID`).
    ratio_candidates:
        Candidate size ratios swept by the outer loop; defaults to all
        integers in ``[2, max_size_ratio]``.
    starts_per_policy:
        Number of starting points used by the final SLSQP polish.
    polish:
        Whether to run the final continuous SLSQP refinement (including ``T``)
        around the best candidate.
    vectorized:
        Whether the candidate sweep evaluates the ``(T, h)`` grid with the
        batched :meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix`
        (default) or with one scalar Brent solve per candidate size ratio
        (the pre-vectorisation reference path).
    batched_polish:
        Whether the SLSQP polish uses the tuner's batched finite-difference
        gradient (one :meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix`
        pass per gradient) where available, instead of SLSQP's own scalar
        finite differences.  Tuners that implement no batched gradient
        (see :meth:`_polish_jacobian`) fall back to the scalar path.
    k_vector_search:
        Whether the fluid sweep searches per-level ``K_i`` bound vectors:
        the candidate enumeration adds the structured vector families of
        :func:`~repro.lsm.policy.fluid_vector_specs` (front-loaded ladders,
        single-level perturbations), a coordinate-descent pass refines the
        winning fluid vector level by level, and the SLSQP polish relaxes
        every ``K_i`` (and ``Z``) to continuous values, rounding the result
        with a feasibility re-check.  Off by default: the scalar ``(K, Z)``
        sweep and its results are byte-identical to earlier releases.
    k_vector_levels:
        Upper levels covered explicitly by generated/refined bound vectors
        (deeper levels reuse the last element).
    seed:
        Seed of the random starting points used by the polish step.
    """

    def __init__(
        self,
        system: SystemConfig | None = None,
        policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES,
        ratio_candidates: Sequence[float] | None = None,
        starts_per_policy: int = 2,
        polish: bool = True,
        vectorized: bool = True,
        batched_polish: bool = True,
        fluid_k_grid: Sequence[float] | None = None,
        fluid_z_grid: Sequence[float] | None = None,
        k_vector_search: bool = False,
        k_vector_levels: int = DEFAULT_VECTOR_LEVELS,
        seed: int = 0,
    ) -> None:
        self.system = system if system is not None else SystemConfig()
        self.cost_model = LSMCostModel(self.system)
        if k_vector_levels < 1:
            raise ValueError("k_vector_levels must be at least 1")
        self.k_vector_search = bool(k_vector_search)
        self.k_vector_levels = int(k_vector_levels)
        # The concrete candidates the sweeps iterate: one per named policy,
        # a (K, Z) grid for Policy.FLUID (plus the structured K_i vector
        # families when enabled).  An empty policy list is rejected by the
        # expansion itself.
        self.policy_specs = expand_policy_specs(
            policies,
            max_size_ratio=self.system.max_size_ratio,
            k_grid=fluid_k_grid,
            z_grid=fluid_z_grid,
            include_k_vectors=self.k_vector_search,
            vector_levels=self.k_vector_levels,
        )
        # Enum-level view kept for introspection and backwards compatibility.
        self.policies = tuple(dict.fromkeys(spec.policy for spec in self.policy_specs))
        if starts_per_policy <= 0:
            raise ValueError("starts_per_policy must be positive")
        self.starts_per_policy = starts_per_policy
        self.polish = polish
        self.vectorized = vectorized
        self.batched_polish = batched_polish
        if ratio_candidates is None:
            ratio_candidates = default_ratio_candidates(self.system.max_size_ratio)
        self.ratio_candidates = np.asarray(sorted(ratio_candidates), dtype=float)
        if self.ratio_candidates.size == 0:
            raise ValueError("ratio_candidates must not be empty")
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Abstract interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _optimize_inner(
        self, size_ratio: float, policy: CompactionPolicy, workload: Workload
    ) -> tuple[np.ndarray, float]:
        """Optimise the non-ratio design variables at a fixed size ratio.

        Returns ``(inner_variables, objective_value)`` where the inner
        variables are ``[h]`` for the nominal tuner and ``[h, λ]`` for the
        robust tuner.  Used by the scalar reference sweep.
        """

    @abc.abstractmethod
    def _objective(
        self, size_ratio: float, inner: np.ndarray, policy: CompactionPolicy, workload: Workload
    ) -> float:
        """Objective value at one fully specified design point (for the polish)."""

    @abc.abstractmethod
    def _inner_bounds(self) -> list[tuple[float, float]]:
        """Box bounds of the inner variables (for the polish)."""

    @abc.abstractmethod
    def _result_from_design(
        self,
        size_ratio: float,
        inner: np.ndarray,
        policy: CompactionPolicy,
        workload: Workload,
        objective: float,
        solver_info: dict,
    ) -> TuningResult:
        """Convert the best design into a :class:`TuningResult`."""

    @abc.abstractmethod
    def _objective_from_costs(
        self, cost_matrix: np.ndarray, workload: Workload
    ) -> np.ndarray:
        """Batched objective over pre-computed cost vectors.

        ``cost_matrix`` has shape ``(..., 4)``; the result drops the last
        axis.  This is the vectorised counterpart of evaluating
        :meth:`_objective` at every grid cell and powers the candidate sweep.
        """

    @abc.abstractmethod
    def _value_at(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> float:
        """Scalar objective at one ``(T, h)`` point (for the Brent refine)."""

    @abc.abstractmethod
    def _inner_from_design(
        self, size_ratio: float, bits: float, policy: CompactionPolicy, workload: Workload
    ) -> np.ndarray:
        """Recover the inner-variable vector of a swept ``(T, h)`` design."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def size_ratio_bounds(self) -> tuple[float, float]:
        """Legal range of the size ratio ``T``."""
        return (2.0, self.system.max_size_ratio)

    @property
    def bits_per_entry_bounds(self) -> tuple[float, float]:
        """Legal range of the Bloom-filter bits per entry ``h``."""
        return (
            self.system.min_bits_per_entry,
            self.system.max_bits_per_entry - _EPSILON,
        )

    def _bits_grid(self, grid_points: int = _BITS_GRID_POINTS) -> np.ndarray:
        """The Bloom-filter grid swept for every candidate size ratio."""
        lo, hi = self.bits_per_entry_bounds
        return np.linspace(lo, hi, grid_points)

    def _tuning_from(
        self, size_ratio: float, bits: float, policy: Policy | CompactionPolicy
    ) -> LSMTuning:
        """Build a tuning, clamping the design into the legal box."""
        t_lo, t_hi = self.size_ratio_bounds
        h_lo, h_hi = self.bits_per_entry_bounds
        return LSMTuning(
            float(np.clip(size_ratio, t_lo, t_hi)),
            float(np.clip(bits, h_lo, h_hi)),
            policy,
        )

    def _minimize_scalar(self, objective, bounds: tuple[float, float]):
        """Bounded Brent minimisation used by the inner solves."""
        return optimize.minimize_scalar(
            objective, bounds=bounds, method="bounded", options={"xatol": 1e-4}
        )

    def _refine_bracket(
        self,
        objective,
        grid: np.ndarray,
        values: np.ndarray,
        best: int,
    ) -> tuple[float, float]:
        """Brent-refine inside the grid bracket around the best grid point."""
        bracket_lo = grid[max(best - 1, 0)]
        bracket_hi = grid[min(best + 1, grid.size - 1)]
        if bracket_hi <= bracket_lo:
            return float(grid[best]), float(values[best])
        result = optimize.minimize_scalar(
            objective,
            bounds=(bracket_lo, bracket_hi),
            method="bounded",
            options={"xatol": 1e-4},
        )
        if np.isfinite(result.fun) and result.fun < values[best]:
            return float(result.x), float(result.fun)
        return float(grid[best]), float(values[best])

    def _grid_then_refine(
        self, objective, bounds: tuple[float, float], grid_points: int = _BITS_GRID_POINTS
    ) -> tuple[float, float]:
        """Global-ish 1-D minimisation: coarse grid scan + local Brent refine.

        The cost surface is only piecewise smooth in the Bloom-filter budget
        (the level count jumps as the write buffer shrinks), so a pure local
        method can stall on a plateau; scanning a coarse grid first and then
        refining inside the best bracket is fast and reliable.
        """
        lo, hi = bounds
        grid = np.linspace(lo, hi, grid_points)
        values = np.array([objective(x) for x in grid])
        best = int(np.argmin(values))
        return self._refine_bracket(objective, grid, values, best)

    def _slsqp(
        self, objective, start: np.ndarray, bounds, jac=None
    ) -> optimize.OptimizeResult:
        """Run one SLSQP minimisation from a starting point."""
        return optimize.minimize(
            objective,
            np.asarray(start, dtype=float),
            method="SLSQP",
            jac=jac,
            bounds=bounds,
            options={"maxiter": 200, "ftol": 1e-10},
        )

    def _polish_jacobian(self, policy: CompactionPolicy, workload: Workload):
        """Gradient callable of the polish objective, or ``None``.

        Returning ``None`` (the default) lets SLSQP fall back to its own
        scalar finite differences.  Tuners whose objective is a function of
        the cost vector can override this with a batched implementation that
        prices all design perturbations through one
        :meth:`~repro.lsm.cost_model.LSMCostModel.cost_matrix` call.
        """
        return None

    # ------------------------------------------------------------------
    # Candidate sweeps
    # ------------------------------------------------------------------
    def _sweep_scalar(
        self, workload: Workload
    ) -> tuple[
        float | None, np.ndarray | None, CompactionPolicy | None, float, dict[str, float]
    ]:
        """Reference sweep: one Brent inner solve per (policy spec, size ratio)."""
        best_value = np.inf
        best_ratio: float | None = None
        best_inner: np.ndarray | None = None
        best_policy: CompactionPolicy | None = None
        per_policy: dict[str, float] = {}

        for policy in self.policy_specs:
            policy_best = np.inf
            for size_ratio in self.ratio_candidates:
                inner, value = self._optimize_inner(float(size_ratio), policy, workload)
                if not np.isfinite(value):
                    continue
                if value < policy_best:
                    policy_best = value
                if value < best_value:
                    best_value = value
                    best_ratio = float(size_ratio)
                    best_inner = np.asarray(inner, dtype=float)
                    best_policy = policy
            per_policy[policy.name] = policy_best
        return best_ratio, best_inner, best_policy, best_value, per_policy

    def _sweep_vectorized(
        self, workload: Workload
    ) -> tuple[
        float | None, np.ndarray | None, CompactionPolicy | None, float, dict[str, float]
    ]:
        """Batched sweep: one cost-matrix pass per policy + pruned refinement.

        The full ``(T, h)`` grid is evaluated in a single broadcasted NumPy
        pass; only candidates whose grid objective lands within
        :data:`_REFINE_MARGIN` of the per-policy best are Brent-refined, which
        preserves the scalar sweep's selections while skipping the vast
        majority of its scalar objective evaluations.
        """
        best_value = np.inf
        best_ratio: float | None = None
        best_bits: float | None = None
        best_policy: CompactionPolicy | None = None
        per_policy: dict[str, float] = {}
        bits_grid = self._bits_grid()

        for policy in self.policy_specs:
            costs = self.cost_model.cost_matrix(
                self.ratio_candidates,
                bits_grid,
                policy,
                long_range_fraction=workload.long_range_fraction,
            )
            objective = np.asarray(
                self._objective_from_costs(costs, workload), dtype=float
            )
            objective = np.where(np.isfinite(objective), objective, np.inf)
            row_best = np.argmin(objective, axis=1)
            row_values = objective[np.arange(objective.shape[0]), row_best]
            policy_best = float(np.min(row_values))
            if not np.isfinite(policy_best):
                per_policy[policy.name] = policy_best
                continue
            threshold = policy_best * _REFINE_MARGIN
            for row in np.flatnonzero(row_values <= threshold):
                size_ratio = float(self.ratio_candidates[row])
                bits, value = self._refine_bracket(
                    lambda h: self._value_at(size_ratio, float(h), policy, workload),
                    bits_grid,
                    objective[row],
                    int(row_best[row]),
                )
                if not np.isfinite(value):
                    continue
                if value < policy_best:
                    policy_best = value
                if value < best_value:
                    best_value = value
                    best_ratio = size_ratio
                    best_bits = bits
                    best_policy = policy
            per_policy[policy.name] = policy_best

        best_inner: np.ndarray | None = None
        if best_policy is not None:
            best_inner = self._inner_from_design(
                best_ratio, best_bits, best_policy, workload
            )
        return best_ratio, best_inner, best_policy, best_value, per_policy

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def tune(self, workload: Workload) -> TuningResult:
        """Solve the tuning problem for ``workload`` and return the best result."""
        sweep = self._sweep_vectorized if self.vectorized else self._sweep_scalar
        best_ratio, best_inner, best_policy, best_value, per_policy = sweep(workload)

        if best_ratio is None or best_inner is None or best_policy is None:
            raise RuntimeError("the optimiser failed to produce any finite solution")

        solver_info: dict = {"per_policy_objective": per_policy}
        vector_search = self.k_vector_search and best_policy.policy is Policy.FLUID
        if vector_search:
            best_policy, best_inner, best_value = self._descend_k_vector(
                best_ratio, best_inner, best_policy, workload, best_value
            )

        if self.polish:
            # The fixed-spec polish runs either way (in vector mode it is the
            # same machinery the uniform path uses, batched gradient
            # included, so the vector path can never fall behind it); the
            # vector polish then relaxes the bounds from the polished point.
            best_ratio, best_inner, best_value = self._polish(
                best_ratio, best_inner, best_policy, workload, best_value
            )
            if vector_search:
                best_ratio, best_inner, best_policy, best_value = (
                    self._polish_with_vector(
                        best_ratio, best_inner, best_policy, workload, best_value
                    )
                )

        if vector_search:
            solver_info["k_vector_search"] = best_policy.name
        return self._result_from_design(
            best_ratio, best_inner, best_policy, workload, best_value, solver_info
        )

    # ------------------------------------------------------------------
    # Per-level K_i refinement (vector search only)
    # ------------------------------------------------------------------
    def _materialised_vector(
        self, spec: CompactionPolicy, size_ratio: float
    ) -> tuple[list[float], float]:
        """The explicit ``(K_i…, Z)`` of a fluid policy at one size ratio.

        The bound vector is padded to :attr:`k_vector_levels` with its last
        element, matching the deep-level extension rule (so a single shared
        or tracking ``K`` materialises to the uniform vector it denotes),
        and clamped to ``T - 1``.
        """
        cap = max(1.0, float(size_ratio) - 1.0)
        base = list(spec.bounds)
        base += base[-1:] * (self.k_vector_levels - len(base))
        return [min(bound, cap) for bound in base], min(spec.z_bound, cap)

    def _descend_k_vector(
        self,
        size_ratio: float,
        inner: np.ndarray,
        spec: CompactionPolicy,
        workload: Workload,
        current_value: float,
    ) -> tuple[CompactionPolicy, np.ndarray, float]:
        """Coordinate-descent refinement of the fluid bound vector.

        At the sweep winner's ``(T, h)``, each level's bound (and ``Z``) is
        moved in turn over the geometric candidate ladder, keeping any
        improvement; passes repeat until one completes with no move.  The
        enumeration families only seed structured shapes — this pass is what
        reaches arbitrary vectors without an exponential sweep.
        """
        bits = float(inner[0])
        cap = max(1.0, float(size_ratio) - 1.0)
        candidates = sorted(
            {float(min(bound, cap)) for bound in _DESCENT_BOUNDS} | {cap}
        )
        vector, z = self._materialised_vector(spec, size_ratio)

        def value_of(trial_vector: list[float], trial_z: float) -> float:
            trial = CompactionPolicy.fluid(trial_vector, trial_z)
            return self._value_at(size_ratio, bits, trial, workload)

        # The materialised vector reproduces the winning spec at this (T, h),
        # so its value matches ``current_value`` up to clamping noise.
        best_value = value_of(vector, z)
        for _ in range(_DESCENT_MAX_PASSES):
            improved = False
            for position in range(len(vector) + 1):
                is_z = position == len(vector)
                current = z if is_z else vector[position]
                for candidate in candidates:
                    if candidate == current:
                        continue
                    if is_z:
                        trial_value = value_of(vector, candidate)
                    else:
                        trial = list(vector)
                        trial[position] = candidate
                        trial_value = value_of(trial, z)
                    if np.isfinite(trial_value) and trial_value < best_value - 1e-15:
                        best_value = trial_value
                        if is_z:
                            z = candidate
                        else:
                            vector[position] = candidate
                        improved = True
            if not improved:
                break

        if not (np.isfinite(best_value) and best_value < current_value - 1e-15):
            if len(spec.bounds) == 1:
                # No strict win: keep the sweep winner's scalar/tracking
                # representation so uniform optima stay uniform.
                return spec, np.asarray(inner, dtype=float), current_value
            # A winning vector spec is normalised to its clamp at the
            # current ratio (a ladder peaking above T - 1 behaves as the
            # clamped vector; report the bounds that are actually in force).
        refined = CompactionPolicy.fluid(vector, z)
        return (
            refined,
            self._inner_from_design(size_ratio, bits, refined, workload),
            best_value,
        )

    def _polish_with_vector(
        self,
        size_ratio: float,
        inner: np.ndarray,
        spec: CompactionPolicy,
        workload: Workload,
        current_value: float,
    ) -> tuple[float, np.ndarray, CompactionPolicy, float]:
        """Continuous SLSQP polish over ``(T, inner, K_1…K_m, Z)``.

        The per-level run bounds join the design vector as continuous
        variables (closing the grid-selection gap of the scalar polish);
        after the solve the bounds are rounded to deployable integers with a
        feasibility re-check — clamped into ``[1, T - 1]`` at the polished
        ratio and re-evaluated — and the rounded design is kept when it is
        at least as good.  The batched polish gradient only covers the fixed
        3-variable design, so this path always uses SLSQP's own finite
        differences.
        """
        vector, z = self._materialised_vector(spec, size_ratio)
        n_inner = len(inner)

        def spec_of(design: np.ndarray) -> CompactionPolicy:
            bounds = np.maximum(design[1 + n_inner :], 1.0)
            return CompactionPolicy.fluid(bounds[:-1], bounds[-1])

        def full_objective(design: np.ndarray) -> float:
            return self._objective(
                design[0], design[1 : 1 + n_inner], spec_of(design), workload
            )

        bound_cap = max(1.0, self.system.max_size_ratio - 1.0)
        bounds = (
            [self.size_ratio_bounds]
            + list(self._inner_bounds())
            + [(1.0, bound_cap)] * (len(vector) + 1)
        )
        start = np.concatenate([[size_ratio], inner, vector, [z]])
        starts = [start]
        for _ in range(self.starts_per_policy - 1):
            jitter = self._rng.uniform(0.9, 1.1, size=start.size)
            starts.append(
                np.clip(
                    start * jitter,
                    [b[0] for b in bounds],
                    [b[1] for b in bounds],
                )
            )

        best_design = start
        best_value = current_value
        improved = False
        for candidate in starts:
            result = self._slsqp(full_objective, candidate, bounds, jac=None)
            value = float(result.fun)
            if np.isfinite(value) and value < best_value:
                best_design = np.asarray(result.x, dtype=float)
                best_value = value
                improved = True
        if not improved:
            # The sweep/descent winner stands; keep its representation.
            return size_ratio, np.asarray(inner, dtype=float), spec, current_value

        # Feasibility re-check: deployable bounds are integers in
        # [1, T - 1]; round the continuous solution, clamp it at the
        # polished ratio, and keep it only if the objective agrees.
        ratio = float(best_design[0])
        cap = max(1.0, float(round_half_up(ratio)) - 1.0)
        rounded = np.concatenate(
            [
                best_design[: 1 + n_inner],
                [
                    float(np.clip(round_half_up(b), 1.0, cap))
                    for b in best_design[1 + n_inner :]
                ],
            ]
        )
        rounded_value = full_objective(rounded)
        if np.isfinite(rounded_value) and rounded_value <= best_value:
            best_design, best_value = rounded, rounded_value

        polished_spec = spec_of(best_design)
        return (
            float(best_design[0]),
            np.asarray(best_design[1 : 1 + n_inner], dtype=float),
            polished_spec,
            best_value,
        )

    def _polish(
        self,
        size_ratio: float,
        inner: np.ndarray,
        policy: CompactionPolicy,
        workload: Workload,
        current_value: float,
    ) -> tuple[float, np.ndarray, float]:
        """Continuous SLSQP refinement over ``(T, inner)`` near the best candidate."""

        def full_objective(design: np.ndarray) -> float:
            return self._objective(design[0], design[1:], policy, workload)

        bounds = [self.size_ratio_bounds] + list(self._inner_bounds())
        starts = [np.concatenate([[size_ratio], inner])]
        for _ in range(self.starts_per_policy - 1):
            jitter = self._rng.uniform(0.9, 1.1, size=starts[0].size)
            starts.append(
                np.clip(
                    starts[0] * jitter,
                    [b[0] for b in bounds],
                    [b[1] for b in bounds],
                )
            )

        jac = self._polish_jacobian(policy, workload) if self.batched_polish else None
        best = (size_ratio, inner, current_value)
        for start in starts:
            result = self._slsqp(full_objective, start, bounds, jac=jac)
            value = float(result.fun)
            if np.isfinite(value) and value < best[2]:
                best = (
                    float(result.x[0]),
                    np.asarray(result.x[1:], dtype=float),
                    value,
                )
        return best
