"""The tunable design parameters of an LSM tree.

A tuning ``Φ = (T, h, π)`` fixes the size ratio between levels, the number of
Bloom-filter bits allocated per entry (equivalently ``m_filt``) and the
compaction policy ``π`` — one :class:`~repro.lsm.policy.CompactionPolicy`
value, i.e. a run bound per level.  A named policy is referred to by its
:class:`~repro.lsm.policy.Policy` name alone; a fluid tuning spells out its
bounds: a per-level vector ``K_i`` for the upper levels (a single ``K`` is
the length-1 vector; levels deeper than the vector reuse its last element,
so one vector stays meaningful across the whole ``(T, h)`` grid the tuners
sweep) and ``Z`` for the largest level.

The write-buffer memory is derived from the system's total memory budget:
``m_buf = m − m_filt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .policy import CompactionPolicy, Policy
from .system import SystemConfig


def round_half_up(value: float) -> int:
    """Round to the nearest integer, ties away from zero.

    ``round()`` rounds half to even, so a size ratio of exactly 2.5 would
    round *down* to 2 — and at ``T = 2`` the deployable run-bound range
    ``[1, T - 1]`` collapses to the single point 1, crushing any fluid bound
    the continuous optimiser chose.  Deterministic half-up rounding keeps the
    documented "round up at the midpoint" contract and the bound clamp
    consistent.
    """
    return int(math.floor(float(value) + 0.5))


@dataclass(frozen=True, init=False)
class LSMTuning:
    """A concrete LSM-tree tuning configuration.

    Parameters
    ----------
    size_ratio:
        Size ratio ``T`` between consecutive levels (finite, ``T >= 2``;
        like ``bits_per_entry``, a NaN or infinity raises).  Stored as a
        float because the optimiser works in a continuous relaxation; use
        :meth:`rounded` before deploying on the simulator.
    bits_per_entry:
        Bloom-filter budget ``h = m_filt / N`` in bits per entry.
    policy:
        Compaction policy: a :class:`~repro.lsm.policy.Policy` name (or its
        string) — leveling, tiering, lazy leveling, 1-leveling or fluid — or
        a :class:`~repro.lsm.policy.CompactionPolicy` value, stored as
        :attr:`compaction`.  The bare name ``Policy.FLUID`` means
        ``K = T - 1`` and ``Z = 1``; a fluid tuning with explicit bounds is
        ``LSMTuning(T, h, CompactionPolicy.fluid(k_bounds, z_bound))``.  The
        attributes ``k_bound``, ``k_bounds`` and ``z_bound`` read the bounds
        back — ``None`` on non-fluid tunings, and exactly one of ``k_bound``
        / ``k_bounds`` set on fluid ones.
    """

    size_ratio: float
    bits_per_entry: float
    compaction: CompactionPolicy

    def __init__(
        self,
        size_ratio: float,
        bits_per_entry: float,
        policy: Policy | str | CompactionPolicy,
    ) -> None:
        if not (math.isfinite(size_ratio) and size_ratio >= 2.0):
            raise ValueError(f"size_ratio must be finite and >= 2, got {size_ratio}")
        if not (math.isfinite(bits_per_entry) and bits_per_entry >= 0.0):
            raise ValueError(
                f"bits_per_entry must be finite and non-negative, got {bits_per_entry}"
            )
        policy = CompactionPolicy.of(policy)
        if policy.policy is Policy.FLUID and math.inf in policy.bounds:
            # A fluid tuning serialises its bounds, so "T - 1 at every T" is
            # pinned to this tuning's T.
            pinned = tuple(
                size_ratio - 1.0 if bound == math.inf else bound
                for bound in policy.bounds
            )
            policy = replace(policy, bounds=pinned)
        object.__setattr__(self, "size_ratio", size_ratio)
        object.__setattr__(self, "bits_per_entry", bits_per_entry)
        object.__setattr__(self, "compaction", policy)

    @property
    def policy(self) -> Policy:
        """The name of this tuning's compaction policy."""
        return self.compaction.policy

    @property
    def k_bound(self) -> float | None:
        """Fluid run bound ``K`` shared by every level but the largest."""
        fluid = self.policy is Policy.FLUID
        bounds = self.compaction.bounds
        return bounds[0] if fluid and len(bounds) == 1 else None

    @property
    def k_bounds(self) -> tuple[float, ...] | None:
        """Fluid per-level run bounds ``(K_1, K_2, …)`` of the upper levels."""
        fluid = self.policy is Policy.FLUID
        bounds = self.compaction.bounds
        return bounds if fluid and len(bounds) > 1 else None

    @property
    def z_bound(self) -> float | None:
        """Fluid run bound ``Z`` of the largest level."""
        return self.compaction.z_bound if self.policy is Policy.FLUID else None

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def rounded(self) -> "LSMTuning":
        """Return a copy with an integer size ratio suitable for deployment.

        Real LSM engines cannot use fractional size ratios, so — like the
        paper does when deploying on RocksDB — we round the continuous value
        produced by the optimiser to the nearest integer (never below 2),
        with ties at the midpoint going up (:func:`round_half_up`; built-in
        ``round`` would send ``T = 2.5`` *down* to 2, where the deployable
        bound range ``[1, T - 1]`` collapses to 1 and crushes every fluid
        bound).  Run bounds are rounded the same way (runs are counted in
        whole numbers) and clamped, element-wise, to the deployable range
        ``[1, T - 1]``; an infinite bound already means ``T - 1`` and stays.
        """
        ratio = max(2, round_half_up(self.size_ratio))
        cap = max(1, ratio - 1)

        def deploy(bound: float | None) -> float | None:
            if bound is None or bound == math.inf:
                return bound
            return float(min(max(1, round_half_up(bound)), cap))

        compaction = replace(
            self.compaction,
            bounds=tuple(deploy(bound) for bound in self.compaction.bounds),
            z_bound=deploy(self.compaction.z_bound),
        )
        return LSMTuning(float(ratio), self.bits_per_entry, compaction)

    def clamped(self, system: SystemConfig) -> "LSMTuning":
        """Return a copy with parameters clamped to the system's legal ranges."""
        ratio = min(max(self.size_ratio, 2.0), system.max_size_ratio)
        bits = min(
            max(self.bits_per_entry, system.min_bits_per_entry),
            system.max_bits_per_entry,
        )
        return LSMTuning(ratio, bits, self.compaction)

    # ------------------------------------------------------------------
    # Serialisation / display
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dictionary.

        Only fluid tunings carry run bounds — ``k_bound`` for a single
        shared bound, ``k_bounds`` for a per-level vector — so serialised
        classical and scalar-fluid tunings are byte-identical to earlier
        releases.
        """
        data: dict[str, Any] = {
            "size_ratio": self.size_ratio,
            "bits_per_entry": self.bits_per_entry,
            "policy": self.policy.value,
        }
        if self.k_bound is not None:
            data["k_bound"] = self.k_bound
        if self.z_bound is not None:
            data["z_bound"] = self.z_bound
        if self.k_bounds is not None:
            data["k_bounds"] = list(self.k_bounds)
        return data

    def describe(self) -> str:
        """Human-readable one-line description, matching the paper's figures."""
        base = (
            f"π: {self.policy.value}, T: {self.size_ratio:.1f}, "
            f"h: {self.bits_per_entry:.1f}"
        )
        if self.k_bounds is not None:
            vector = ",".join(f"{bound:.0f}" for bound in self.k_bounds)
            base += f", K: [{vector}], Z: {self.z_bound:.0f}"
        elif self.k_bound is not None:
            base += f", K: {self.k_bound:.0f}, Z: {self.z_bound:.0f}"
        return base
