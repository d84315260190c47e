"""The uncertainty benchmark of Section 6.

Two components:

* the 15 *expected* workloads of Table 2 — uniform, unimodal, bimodal and
  trimodal mixes of the four query types, each with at least 1% of every
  query type so KL divergences stay finite; and
* the *benchmark set* ``B`` of (by default) 10,000 workloads sampled by
  drawing four independent uniform query counts in ``(0, 10000)`` and
  normalising.

Both are regenerated from the published procedure with a seeded NumPy
generator, so every experiment in the repository is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .workload import Workload, kl_divergence


class WorkloadCategory(enum.Enum):
    """Category of an expected workload, by number of dominant query types."""

    UNIFORM = "uniform"
    UNIMODAL = "unimodal"
    BIMODAL = "bimodal"
    TRIMODAL = "trimodal"


@dataclass(frozen=True)
class ExpectedWorkload:
    """One row of Table 2: an indexed, categorised expected workload."""

    index: int
    workload: Workload
    category: WorkloadCategory

    @property
    def name(self) -> str:
        """Short identifier used in figures and logs (``w0`` … ``w14``)."""
        return f"w{self.index}"

    def describe(self) -> str:
        """Human-readable description mirroring Table 2."""
        return f"{self.name} {self.workload.describe()} [{self.category.value}]"


#: Raw composition of Table 2 as (z0, z1, q, w) percentages.
_TABLE2_ROWS: tuple[tuple[float, float, float, float, WorkloadCategory], ...] = (
    (0.25, 0.25, 0.25, 0.25, WorkloadCategory.UNIFORM),
    (0.97, 0.01, 0.01, 0.01, WorkloadCategory.UNIMODAL),
    (0.01, 0.97, 0.01, 0.01, WorkloadCategory.UNIMODAL),
    (0.01, 0.01, 0.97, 0.01, WorkloadCategory.UNIMODAL),
    (0.01, 0.01, 0.01, 0.97, WorkloadCategory.UNIMODAL),
    (0.49, 0.49, 0.01, 0.01, WorkloadCategory.BIMODAL),
    (0.49, 0.01, 0.49, 0.01, WorkloadCategory.BIMODAL),
    (0.49, 0.01, 0.01, 0.49, WorkloadCategory.BIMODAL),
    (0.01, 0.49, 0.49, 0.01, WorkloadCategory.BIMODAL),
    (0.01, 0.49, 0.01, 0.49, WorkloadCategory.BIMODAL),
    (0.01, 0.01, 0.49, 0.49, WorkloadCategory.BIMODAL),
    (0.33, 0.33, 0.33, 0.01, WorkloadCategory.TRIMODAL),
    (0.33, 0.33, 0.01, 0.33, WorkloadCategory.TRIMODAL),
    (0.33, 0.01, 0.33, 0.33, WorkloadCategory.TRIMODAL),
    (0.01, 0.33, 0.33, 0.33, WorkloadCategory.TRIMODAL),
)


def expected_workloads() -> tuple[ExpectedWorkload, ...]:
    """The 15 expected workloads of Table 2, in paper order (w0 … w14)."""
    rows = []
    for index, (z0, z1, q, w, category) in enumerate(_TABLE2_ROWS):
        rows.append(
            ExpectedWorkload(
                index=index,
                workload=Workload(z0=z0, z1=z1, q=q, w=w),
                category=category,
            )
        )
    return tuple(rows)


def expected_workload(index: int) -> ExpectedWorkload:
    """Return the expected workload ``w{index}`` from Table 2."""
    table = expected_workloads()
    if not 0 <= index < len(table):
        raise IndexError(f"expected workload index must be in [0, {len(table) - 1}]")
    return table[index]


class UncertaintyBenchmark:
    """The benchmark set ``B`` of sampled workloads (Section 6).

    Parameters
    ----------
    size:
        Number of sampled workloads (the paper uses 10,000).
    max_queries:
        Upper bound of the uniform query-count range per query type.
    seed:
        Seed of the NumPy generator, for reproducibility.
    """

    def __init__(
        self, size: int = 10_000, max_queries: int = 10_000, seed: int = 42
    ) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        if max_queries <= 1:
            raise ValueError("max_queries must be greater than 1")
        self.size = size
        self.max_queries = max_queries
        self.seed = seed
        self._counts, self._workloads = self._sample()

    def _sample(self) -> tuple[np.ndarray, list[Workload]]:
        rng = np.random.default_rng(self.seed)
        # Draw counts in (0, max_queries): uniform integers in [1, max_queries).
        counts = rng.integers(1, self.max_queries, size=(self.size, 4)).astype(float)
        workloads = [Workload.from_counts(row) for row in counts]
        return counts, workloads

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Workload]:
        return iter(self._workloads)

    @property
    def query_counts(self) -> np.ndarray:
        """Raw query counts (size × 4) used to derive the workloads.

        The system experiments execute these counts as concrete queries.
        """
        return self._counts.copy()

    def as_matrix(self) -> np.ndarray:
        """All sampled workloads stacked into a (size × 4) matrix."""
        return np.vstack([wl.as_array() for wl in self._workloads])

    # ------------------------------------------------------------------
    # Divergence utilities
    # ------------------------------------------------------------------
    def kl_divergences(self, reference: Workload) -> np.ndarray:
        """KL divergence of every benchmark workload w.r.t. ``reference``.

        This is the quantity histogrammed in Figure 3.
        """
        reference_arr = reference.as_array()
        matrix = self.as_matrix()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(matrix > 0, matrix / reference_arr, 1.0)
            terms = np.where(matrix > 0, matrix * np.log(ratios), 0.0)
        divergences = terms.sum(axis=1)
        # Positive mass in the sample matched with zero reference mass -> inf.
        infinite = np.any((matrix > 0) & (reference_arr == 0), axis=1)
        divergences[infinite] = np.inf
        return divergences

    def within_divergence(self, reference: Workload, rho: float) -> list[Workload]:
        """Benchmark workloads whose KL divergence from ``reference`` is ≤ ``rho``."""
        if rho < 0:
            raise ValueError("rho must be non-negative")
        divergences = self.kl_divergences(reference)
        return [wl for wl, d in zip(self._workloads, divergences) if d <= rho]

    def sample(self, count: int, seed: int | None = None) -> list[Workload]:
        """Draw ``count`` workloads from the benchmark uniformly at random."""
        if count <= 0:
            raise ValueError("count must be positive")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        indices = rng.integers(0, self.size, size=count)
        return [self._workloads[i] for i in indices]


def rho_grid(
    start: float = 0.0, stop: float = 4.0, step: float = 0.25
) -> np.ndarray:
    """The grid of uncertainty parameters used by the model evaluation (§7.2).

    The paper evaluates 15 values of ``ρ`` in ``(0, 4)`` with a 0.25 step;
    we include 0 as well because the ``ρ = 0`` robust tuning is shown in
    Figures 5 and 6.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must be at least start")
    count = int(round((stop - start) / step))
    return np.round(np.linspace(start, start + count * step, count + 1), 10)


__all__ = [
    "ExpectedWorkload",
    "UncertaintyBenchmark",
    "WorkloadCategory",
    "expected_workload",
    "expected_workloads",
    "kl_divergence",
    "rho_grid",
]
