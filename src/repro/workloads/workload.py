"""Workload representation used throughout Endure.

A workload is a probability vector ``w = (z0, z1, q, w)`` over the four basic
operations of an LSM tree: empty point lookups, non-empty point lookups,
range lookups and writes (Table 1 of the paper).  The components are
non-negative and sum to one.

Following Dostoevsky's split of the range regime, a workload additionally
carries ``long_range_fraction`` — the fraction ``ν`` of its range lookups
that are *long* (scan-dominated) rather than *short* (seek-dominated).  The
split is a property of the range queries themselves, not a fifth query type:
the probability vector stays four-dimensional (so the KL-divergence
uncertainty machinery of the paper is untouched) and ``ν`` modulates the
range component of the cost vector instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

#: Order of the workload components, matching the cost-vector order.
QUERY_TYPES: tuple[str, ...] = ("z0", "z1", "q", "w")

#: Human-readable names for the query types, in the same order.
QUERY_NAMES: tuple[str, ...] = (
    "empty point lookup",
    "non-empty point lookup",
    "range lookup",
    "write",
)


@dataclass(frozen=True)
class Workload:
    """An LSM workload expressed as proportions of the four query types.

    Parameters
    ----------
    z0:
        Fraction of point lookups that return no result.
    z1:
        Fraction of point lookups that find their key.
    q:
        Fraction of range lookups.
    w:
        Fraction of writes (inserts/updates/deletes).
    long_range_fraction:
        Fraction ``ν`` of the range lookups that are long (scan-dominated);
        ``0`` (the default, matching the paper's short-range setup) leaves
        every cost identical to the pre-split model.
    """

    z0: float
    z1: float
    q: float
    w: float
    long_range_fraction: float = 0.0

    #: Tolerance used when validating that the proportions sum to one.
    _SUM_TOLERANCE = 1e-6

    def __post_init__(self) -> None:
        values = (self.z0, self.z1, self.q, self.w)
        if any(v < 0 for v in values):
            raise ValueError(f"workload proportions must be non-negative: {values}")
        total = sum(values)
        if not math.isclose(total, 1.0, abs_tol=self._SUM_TOLERANCE):
            raise ValueError(
                f"workload proportions must sum to 1, got {total!r} for {values}"
            )
        if not 0.0 <= self.long_range_fraction <= 1.0:
            raise ValueError(
                f"long_range_fraction must lie in [0, 1], "
                f"got {self.long_range_fraction}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(
        cls,
        values: Sequence[float] | np.ndarray,
        long_range_fraction: float = 0.0,
    ) -> "Workload":
        """Build a workload from a length-4 sequence ``(z0, z1, q, w)``."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 workload components, got shape {arr.shape}")
        return cls(
            z0=float(arr[0]),
            z1=float(arr[1]),
            q=float(arr[2]),
            w=float(arr[3]),
            long_range_fraction=long_range_fraction,
        )

    @classmethod
    def from_counts(cls, counts: Sequence[float] | np.ndarray) -> "Workload":
        """Build a workload from raw (unnormalised) query counts."""
        arr = np.asarray(counts, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 query counts, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("query counts must be non-negative")
        total = float(arr.sum())
        if total <= 0:
            raise ValueError("at least one query count must be positive")
        return cls.from_array(arr / total)

    @classmethod
    def uniform(cls) -> "Workload":
        """The uniform workload (25% of each query type)."""
        return cls(0.25, 0.25, 0.25, 0.25)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def as_array(self) -> np.ndarray:
        """Return ``(z0, z1, q, w)`` as a NumPy array."""
        return np.array([self.z0, self.z1, self.q, self.w], dtype=float)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(z0, z1, q, w)`` as a plain tuple."""
        return (self.z0, self.z1, self.q, self.w)

    def as_dict(self) -> dict[str, float]:
        """Return the workload keyed by component name.

        ``long_range_fraction`` is included only when non-zero, keeping the
        serialisation of classical short-range workloads unchanged.
        """
        data = dict(zip(QUERY_TYPES, self.as_tuple()))
        if self.long_range_fraction > 0.0:
            data["long_range_fraction"] = self.long_range_fraction
        return data

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def with_long_range_fraction(self, fraction: float) -> "Workload":
        """Return a copy with a different long-range fraction ``ν``."""
        return replace(self, long_range_fraction=fraction)

    def mix(self, other: "Workload", weight: float) -> "Workload":
        """Convex combination ``(1 - weight) * self + weight * other``.

        The long-range fraction blends weighted by each side's range mass —
        it is a conditional property of the range queries, so mixing a
        range-free workload into a range-heavy one leaves ``ν`` untouched.
        """
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        blended = (1.0 - weight) * self.as_array() + weight * other.as_array()
        range_mass = (1.0 - weight) * self.q + weight * other.q
        if range_mass > 0.0:
            fraction = (
                (1.0 - weight) * self.q * self.long_range_fraction
                + weight * other.q * other.long_range_fraction
            ) / range_mass
        else:
            fraction = 0.0
        return Workload.from_array(blended, long_range_fraction=fraction)

    def distance_to(self, other: "Workload") -> float:
        """KL divergence ``I_KL(self, other)`` from this workload to ``other``."""
        return kl_divergence(self.as_array(), other.as_array())

    def describe(self) -> str:
        """Compact percentage rendering, e.g. ``(25%, 25%, 25%, 25%)``."""
        base = "(" + ", ".join(f"{100 * v:.0f}%" for v in self.as_tuple()) + ")"
        if self.long_range_fraction > 0.0:
            base += f" [long-range {100 * self.long_range_fraction:.0f}%]"
        return base


def kl_divergence(p: Sequence[float] | np.ndarray, q: Sequence[float] | np.ndarray) -> float:
    """Kullback–Leibler divergence ``I_KL(p, q) = Σ p_i log(p_i / q_i)``.

    Components of ``p`` that are exactly zero contribute nothing; a positive
    component of ``p`` matched with a zero component of ``q`` yields infinity.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ValueError("p and q must have the same shape")
    if np.any(p_arr < 0) or np.any(q_arr < 0):
        raise ValueError("probability vectors must be non-negative")
    mask = p_arr > 0
    if np.any(q_arr[mask] == 0):
        return float("inf")
    return float(np.sum(p_arr[mask] * np.log(p_arr[mask] / q_arr[mask])))


def average_workload(workloads: Iterable[Workload]) -> Workload:
    """Component-wise mean of a collection of workloads (renormalised).

    The long-range fraction is averaged weighted by each workload's range
    mass (it is a conditional property of the range queries).
    """
    collected = list(workloads)
    arrays = [wl.as_array() for wl in collected]
    if not arrays:
        raise ValueError("cannot average an empty collection of workloads")
    mean = np.mean(arrays, axis=0)
    range_mass = sum(wl.q for wl in collected)
    if range_mass > 0.0:
        fraction = (
            sum(wl.q * wl.long_range_fraction for wl in collected) / range_mass
        )
    else:
        fraction = 0.0
    return Workload.from_array(mean / mean.sum(), long_range_fraction=fraction)
