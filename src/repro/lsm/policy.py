"""Compaction policies: one run-bound value shared by the cost model, the
tuners and the storage engine.

A compaction policy is a run bound per level.  The paper's design space
contains the two classical merge policies; this reproduction additionally
supports the hybrid designs of Dostoevsky (Dayan & Idreos, SIGMOD'18), and
all of them are instances of the single :class:`CompactionPolicy` value — a
per-level bound vector ``(K_1, K_2, …)`` (shallowest level first, levels
deeper than the vector reusing its last element), an *optional* override
``Z`` for the largest level, and one behavioural bit: whether a level that
hits its bound spills into the next level or merges in place.  Bounds are
clamped to the feasible range ``[1, T - 1]`` wherever they are read, so an
infinite bound means "``T - 1`` at every size ratio".  The named policies
are four rows of a table (:data:`NAMED_POLICIES`):

=================  ==========  ====  ==========================================
policy             bounds      Z     behaviour
=================  ==========  ====  ==========================================
**leveling**       ``(1,)``    —     one run per level; an arriving run is
                                     sort-merged into the resident run.  Cheap
                                     reads, repeated merges on writes.
**tiering**        ``(∞,)``    —     up to ``T - 1`` runs per level, compacted
                                     together into the next level.  Cheap
                                     writes, several runs per level to read.
**lazy leveling**  ``(∞,)``    1     tiering on every level but the largest,
                                     which stays a single run: point reads
                                     close to leveling, most merges avoided.
**1-leveling**     ``(1, ∞)``  —     the mirror image: a single run on the
                                     first level (absorbing the flush churn
                                     cheaply), tiering below it.
=================  ==========  ====  ==========================================

"No ``Z``" means the largest level reads its own ``K_i`` — which is what
keeps 1-leveling leveled when the tree has a single level, exactly like lazy
leveling is.  All four spill a full level down.  **Fluid** policies
(:meth:`CompactionPolicy.fluid`) carry arbitrary bounds and merge in place:
a level that hits a bound below ``T - 1`` still has entry headroom, so it
restores the bound within the level and only spills once its capacity is
exhausted.  ``K = Z = 1`` recovers leveling's costs exactly, ``K = Z = T - 1``
tiering's and ``K = T - 1, Z = 1`` lazy leveling's; non-uniform vectors (e.g.
front-loaded "lazy ladders" — tiered shallow levels descending to leveled
deep ones) open the part of the design space no scalar ``(K, Z)`` pair
reaches.  The tuners sweep a sequence of these values:
:func:`expand_policy_specs` unfolds ``Policy.FLUID`` into the default
``(K, Z)`` candidate grid.

:class:`Policy` is only the *name* of a policy — the enum used by CLI flags,
dictionary keys, ``LSMTuning(T, h, Policy.X)`` and ``tuning.policy is
Policy.X``; neither the cost model nor the storage engine branches on it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class Policy(enum.Enum):
    """Name of a merge/compaction policy of an LSM tree."""

    LEVELING = "leveling"
    TIERING = "tiering"
    LAZY_LEVELING = "lazy-leveling"
    ONE_LEVELING = "1-leveling"
    FLUID = "fluid"

    @classmethod
    def from_value(cls, value: "Policy | str") -> "Policy":
        """Coerce a user-supplied value (enum member or string) to a policy.

        Accepts the enum member itself, its ``value`` string, or common
        abbreviations (``"level"``/``"tier"``/``"lazy"``, ``"L"``/``"T"``) so
        that configuration files and CLI flags stay pleasant to write.
        """
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise TypeError(f"cannot interpret {value!r} as a compaction policy")
        try:
            return _ALIASES[value.strip().lower()]
        except KeyError as exc:
            raise ValueError(f"unknown compaction policy {value!r}") from exc


_ALIASES: dict[str, Policy] = {
    "leveling": Policy.LEVELING,
    "level": Policy.LEVELING,
    "levelled": Policy.LEVELING,
    "leveled": Policy.LEVELING,
    "l": Policy.LEVELING,
    "tiering": Policy.TIERING,
    "tier": Policy.TIERING,
    "tiered": Policy.TIERING,
    "t": Policy.TIERING,
    "lazy-leveling": Policy.LAZY_LEVELING,
    "lazy_leveling": Policy.LAZY_LEVELING,
    "lazyleveling": Policy.LAZY_LEVELING,
    "lazy": Policy.LAZY_LEVELING,
    "ll": Policy.LAZY_LEVELING,
    "1-leveling": Policy.ONE_LEVELING,
    "1_leveling": Policy.ONE_LEVELING,
    "1leveling": Policy.ONE_LEVELING,
    "one-leveling": Policy.ONE_LEVELING,
    "one_leveling": Policy.ONE_LEVELING,
    "1l": Policy.ONE_LEVELING,
    "fluid": Policy.FLUID,
    "fluid-lsm": Policy.FLUID,
    "k-hybrid": Policy.FLUID,
    "khybrid": Policy.FLUID,
    "f": Policy.FLUID,
}


@dataclass(frozen=True)
class CompactionPolicy:
    """A compaction policy: a run bound per level.

    The cost model reads a stack of these values through
    :func:`stacked_run_bounds` — the clamped bound of every level, from
    which :meth:`~repro.lsm.cost_model.LSMCostModel.cost_points` derives the
    runs a read probes and the merge amortisation ``(T-1)/(K_i+1)`` a write
    pays.  The runtime methods steer the simulated LSM tree in
    :mod:`repro.storage.lsm_tree`.  Values are hashable, so they can key
    per-policy result dictionaries.

    Parameters
    ----------
    policy:
        The name this value goes by (display, serialisation, CLI).
    bounds:
        Per-level run bounds ``(K_1, K_2, …)``, shallowest level first, each
        at least 1; levels deeper than the vector reuse its last element.
        Bounds are clamped to ``[1, T - 1]`` where they are read, so
        ``math.inf`` means "``T - 1`` at every size ratio" and a single
        ``(K, Z)`` pair stays meaningful across the whole size-ratio grid
        the tuners sweep.
    z_bound:
        Run bound of the largest level, overriding its ``K_i``; ``None``
        lets the largest level read the vector like any other.
    in_place:
        Whether a level that hits its run bound below its entry capacity
        merges its runs *within* the level (fluid LSM) instead of spilling
        them into the next one (the classical policies, whose bound
        coincides with the level being full).
    """

    policy: Policy
    bounds: tuple[float, ...]
    z_bound: float | None = None
    in_place: bool = False

    def __post_init__(self) -> None:
        bounds = tuple(float(bound) for bound in self.bounds)
        if not bounds:
            raise ValueError("a policy must hold at least one level bound")
        z = None if self.z_bound is None else float(self.z_bound)
        if any(bound < 1.0 for bound in bounds) or (z is not None and z < 1.0):
            raise ValueError(f"run bounds must be at least 1, got K_i={bounds}, Z={z}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "z_bound", z)

    @classmethod
    def fluid(
        cls, bounds: Sequence[float] = (math.inf,), z_bound: float | None = None
    ) -> "CompactionPolicy":
        """A fluid-LSM policy: the given bounds, merging in place.

        The defaults — ``K = T - 1`` on the upper levels and ``Z = 1`` (also
        what ``z_bound=None`` means here) — make an unparameterised fluid
        policy lazy-leveling shaped.
        """
        return cls(
            Policy.FLUID, tuple(bounds), 1.0 if z_bound is None else z_bound, True
        )

    @classmethod
    def of(cls, value: "CompactionPolicy | Policy | str") -> "CompactionPolicy":
        """Coerce a policy, a policy name or a string to a policy value."""
        if isinstance(value, cls):
            return value
        return NAMED_POLICIES.get(Policy.from_value(value)) or cls.fluid()

    @property
    def name(self) -> str:
        """Stable display name, e.g. ``fluid[K=4,Z=1]`` or ``leveling``."""
        if self.policy is not Policy.FLUID:
            return self.policy.value
        k = ",".join("T-1" if b == math.inf else f"{b:g}" for b in self.bounds)
        if len(self.bounds) > 1:
            k = f"({k})"
        return f"fluid[K={k},Z={self.z_bound:g}]"

    # ------------------------------------------------------------------
    # Runtime hooks for the simulated LSM tree
    # ------------------------------------------------------------------
    def _bound(self, level: int, last_level: int) -> float:
        """Unclamped bound of ``level`` in a tree ``last_level`` levels deep."""
        if self.z_bound is not None and level >= last_level:
            return self.z_bound
        return self.bounds[min(level, len(self.bounds)) - 1]

    def merges_on_arrival(self, level: int, last_level: int) -> bool:
        """Whether ``level`` keeps a single run (leveled behaviour).

        When ``True`` an arriving run is sort-merged into the resident run
        immediately; when ``False`` runs stack up until the compaction
        trigger fires.  ``last_level`` is the tree's current deepest level.
        """
        return self._bound(level, last_level) == 1.0

    def max_resident_runs(self, size_ratio: int, level: int, last_level: int) -> int:
        """Runs ``level`` may hold before compaction triggers.

        The level's bound (``Z`` on the largest level when one is set),
        clamped to the classical ``T - 1`` trigger.
        """
        return int(min(self._bound(level, last_level), max(1, int(size_ratio) - 1)))


def stacked_run_bounds(
    policies: Sequence[CompactionPolicy], size_ratio, num_levels, max_levels: int
) -> np.ndarray:
    """Clamped run bound of every level under a stack of policies.

    The one place the cost model reads a policy, for
    :meth:`~repro.lsm.cost_model.LSMCostModel.cost_points`: ``size_ratio``
    and ``num_levels`` have shape ``(1 | P, …, 1)`` — axis 0 is the policy
    axis, the trailing axis the level axis — and the result has shape
    ``(P, …, max_levels)`` (or one that broadcasts to it): each level's bound
    — deeper levels reusing the vector's last element, ``Z`` overriding the
    largest level when one is set — clamped to ``T - 1``.  A level's bound
    is the number of runs it holds in the model, and a level bounded at
    ``m`` runs rewrites an entry ``(T-1)/(m+1)`` times: ``(T-1)/2`` under
    leveling, ``(T-1)/T`` under tiering.
    """
    lead = (len(policies),) + (1,) * (np.ndim(size_ratio) - 2)
    vectors = np.array(
        [
            [policy.bounds[min(level, len(policy.bounds) - 1)] for level in range(max_levels)]
            for policy in policies
        ]
    ).reshape(lead + (max_levels,))
    cap = size_ratio - 1.0
    bounds = np.minimum(vectors, cap)
    if all(policy.z_bound is None for policy in policies):
        return bounds
    z_bounds = np.array(
        [np.nan if policy.z_bound is None else policy.z_bound for policy in policies]
    ).reshape(lead + (1,))
    largest = np.arange(1, max_levels + 1) >= num_levels
    return np.where(largest & ~np.isnan(z_bounds), np.minimum(z_bounds, cap), bounds)


#: The named policies: four rows of bounds, all spilling a full level down.
NAMED_POLICIES: dict[Policy, CompactionPolicy] = {
    Policy.LEVELING: CompactionPolicy(Policy.LEVELING, (1.0,)),
    Policy.TIERING: CompactionPolicy(Policy.TIERING, (math.inf,)),
    Policy.LAZY_LEVELING: CompactionPolicy(Policy.LAZY_LEVELING, (math.inf,), 1.0),
    Policy.ONE_LEVELING: CompactionPolicy(Policy.ONE_LEVELING, (1.0, math.inf)),
}


#: Default fluid ``K`` candidates (clamped per ``T`` to ``[1, T-1]``); a
#: geometric-ish ladder so the sweep covers the leveling → tiering spectrum
#: without a quadratic number of candidates.
DEFAULT_FLUID_K_GRID: tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)

#: Default fluid ``Z`` candidates for the largest level.  ``Z = 1`` (leveled
#: largest level) dominates unless writes dominate the workload, so the grid
#: stays small; the diagonal ``Z = K`` specs added by
#: :func:`expand_policy_specs` cover the tiering corner exactly.
DEFAULT_FLUID_Z_GRID: tuple[float, ...] = (1, 2, 4)

#: ``K`` peaks of the front-loaded ladder family swept when per-level
#: vectors are enabled: each peak unrolls into the halving ladder
#: ``(K, K/2, …, 1)``.  A subset of the scalar grid keeps the vector sweep
#: polynomial (every spec is one more row of the priced tensor).
DEFAULT_LADDER_PEAKS: tuple[float, ...] = (2, 3, 4, 8, 16, 32)

#: Upper levels covered explicitly by generated bound vectors; deeper levels
#: reuse the vector's last element, so the families stay meaningful for any
#: tree depth the ``(T, h)`` sweep produces.
DEFAULT_VECTOR_LEVELS = 4


def halving_ladder(peak: float) -> tuple[float, ...]:
    """The front-loaded "lazy ladder" ``(peak, peak/2, …, 1)``.

    Shallow levels stack up to ``peak`` runs (cheap writes where levels are
    small and merge often), each deeper level halves the bound until the
    leveled ``1`` is reached — deep levels hold almost all data, so keeping
    them single-run is what wins point and long-range reads.
    """
    bounds: list[float] = []
    bound = max(1.0, float(peak))
    while bound > 1.0:
        bounds.append(float(np.ceil(bound)))
        bound /= 2.0
    bounds.append(1.0)
    return tuple(bounds)


def fluid_vector_specs(max_size_ratio: float = 100.0) -> tuple[CompactionPolicy, ...]:
    """Structured per-level bound-vector candidates for the fluid sweep.

    Two families keep the enumeration polynomial while covering the
    non-uniform part of the Dostoevsky design space:

    * **front-loaded ladders** — :func:`halving_ladder` of each peak in
      :data:`DEFAULT_LADDER_PEAKS`, crossed with :data:`DEFAULT_FLUID_Z_GRID`
      (``Z <= peak``, matching the scalar sweep's diagonal cut);
    * **single-level perturbations** — the all-leveled vector with one level
      bumped to a peak, for each of the first :data:`DEFAULT_VECTOR_LEVELS`
      levels: the minimal non-uniform designs, and the natural seeds of the
      coordinate-descent refinement the tuners run afterwards.

    Uniform vectors are deliberately absent: the scalar ``(K, Z)`` grid of
    :func:`expand_policy_specs` covers them bit-identically.
    """
    cap = max(1.0, float(max_size_ratio) - 1.0)
    # Filter on the *clamped* peak: at a tiny ratio cap every peak collapses
    # to 1 and would only re-emit the all-leveled uniform vectors the scalar
    # grid already covers.
    peaks = sorted(
        {float(min(peak, cap)) for peak in DEFAULT_LADDER_PEAKS if min(peak, cap) > 1}
    )
    zs = sorted({float(min(z, cap)) for z in DEFAULT_FLUID_Z_GRID})
    specs: list[CompactionPolicy] = []
    for peak in peaks:
        ladder = halving_ladder(peak)
        if len(set(ladder)) > 1:
            specs += [CompactionPolicy.fluid(ladder, z) for z in zs if z <= peak]
        for position in range(DEFAULT_VECTOR_LEVELS):
            bumped = [1.0] * max(position + 1, 2)
            bumped[position] = peak
            specs.append(CompactionPolicy.fluid(bumped, 1.0))
    return tuple(dict.fromkeys(specs))


def expand_policy_specs(
    policies: Iterable["Policy | str | CompactionPolicy"],
    max_size_ratio: float = 100.0,
    include_k_vectors: bool = False,
) -> tuple[CompactionPolicy, ...]:
    """Unfold a policy list into the concrete policies a tuner sweeps.

    Named policies map to their :data:`NAMED_POLICIES` row.  ``Policy.FLUID``
    expands into the ``(K, Z)`` candidate grid:

    * the *K-tracking* candidates first — an infinite bound means
      ``K = T - 1`` at every size ratio, so the lazy-leveling-shaped designs
      stay coupled to ``T`` across a fractional size-ratio search exactly
      like the named lazy policy does (a fixed ``K`` has a clamp kink at
      ``T = K + 1``);
    * all combinations of :data:`DEFAULT_FLUID_K_GRID` ×
      :data:`DEFAULT_FLUID_Z_GRID` with ``Z <= K`` (bounds
      above ``K`` never beat the ``Z = K`` diagonal for the workloads a
      bounded largest level targets), plus the ``Z = K`` diagonal itself so
      the tiering corner is represented exactly, plus a top candidate at
      ``max_size_ratio - 1`` so tiering/lazy leveling are recovered exactly
      for every size ratio on the sweep grid;
    * with ``include_k_vectors`` the structured per-level families of
      :func:`fluid_vector_specs` (front-loaded ladders and single-level
      perturbations) join the sweep after the scalar grid, opening the
      non-uniform Dostoevsky space while keeping the enumeration
      polynomial.

    Tracking candidates precede fixed-``K`` ones so they win exact ties in
    the search.  Explicit :class:`CompactionPolicy` entries pass through
    untouched, so callers can pin ``K``/``Z`` — or a whole ``K_i`` vector —
    by hand.
    """
    cap = max(1.0, float(max_size_ratio) - 1.0)
    specs: list[CompactionPolicy] = []
    for entry in policies:
        if isinstance(entry, CompactionPolicy) or (
            Policy.from_value(entry) is not Policy.FLUID
        ):
            specs.append(CompactionPolicy.of(entry))
            continue
        ks = sorted({float(min(k, cap)) for k in DEFAULT_FLUID_K_GRID} | {cap})
        zs = sorted({float(min(z, cap)) for z in DEFAULT_FLUID_Z_GRID})
        specs += [CompactionPolicy.fluid(z_bound=z) for z in zs]
        for k in ks:
            specs += [CompactionPolicy.fluid((k,), z) for z in zs if z <= k]
            specs.append(CompactionPolicy.fluid((k,), k))
        if include_k_vectors:
            specs += fluid_vector_specs(max_size_ratio)
    if not specs:
        raise ValueError("at least one compaction policy is required")
    return tuple(dict.fromkeys(specs))


#: The paper's classical design space, in a stable order.  This is the
#: default search space of the tuners, keeping the reproduction faithful.
CLASSIC_POLICIES: tuple[Policy, ...] = (Policy.LEVELING, Policy.TIERING)

#: Every supported policy, in a stable order (useful for exhaustive searches).
ALL_POLICIES: tuple[Policy, ...] = (
    Policy.LEVELING,
    Policy.TIERING,
    Policy.LAZY_LEVELING,
    Policy.ONE_LEVELING,
    Policy.FLUID,
)
