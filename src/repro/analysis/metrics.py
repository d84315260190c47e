"""Evaluation metrics of Section 7.1.

* ``throughput(w, Φ) = 1 / C(w, Φ)`` — reciprocal of the expected per-query
  cost under the analytical model;
* normalised delta throughput ``Δ_w(Φ1, Φ2)`` — relative throughput gain of
  ``Φ2`` over ``Φ1`` on workload ``w``;
* throughput range ``Θ_B(Φ)`` — spread between the best- and worst-case
  throughput of one tuning over a benchmark set, a consistency measure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..lsm.cost_model import LSMCostModel
from ..lsm.tuning import LSMTuning
from ..workloads.workload import Workload


def throughput(model: LSMCostModel, workload: Workload, tuning: LSMTuning) -> float:
    """Throughput proxy ``1 / C(w, Φ)`` of a tuning on one workload."""
    return model.throughput(workload, tuning)


def delta_throughput(
    model: LSMCostModel,
    workload: Workload,
    baseline: LSMTuning,
    candidate: LSMTuning,
) -> float:
    """Normalised delta throughput ``Δ_w(baseline, candidate)``.

    Positive values mean ``candidate`` outperforms ``baseline`` on
    ``workload``; ``-0.5`` means it achieves half the baseline's throughput.
    """
    base = throughput(model, workload, baseline)
    cand = throughput(model, workload, candidate)
    return (cand - base) / base


def delta_throughputs(
    model: LSMCostModel,
    workloads: Iterable[Workload],
    baseline: LSMTuning,
    candidate: LSMTuning,
) -> np.ndarray:
    """``Δ_w(baseline, candidate)`` on every workload of a collection."""
    workloads = tuple(workloads)
    base = throughputs(model, workloads, baseline)
    return (throughputs(model, workloads, candidate) - base) / base


def average_delta_throughput(
    model: LSMCostModel,
    workloads: Iterable[Workload],
    baseline: LSMTuning,
    candidate: LSMTuning,
) -> float:
    """Mean of ``Δ_w`` over a collection of workloads."""
    return float(np.mean(delta_throughputs(model, workloads, baseline, candidate)))


def throughput_range(
    model: LSMCostModel, workloads: Sequence[Workload], tuning: LSMTuning
) -> float:
    """Throughput range ``Θ_B(Φ)`` over a benchmark set of workloads.

    Smaller values mean the tuning performs more consistently across the
    benchmark (lower variance in achievable throughput).
    """
    values = throughputs(model, workloads, tuning)
    return float(values.max() - values.min())


def throughputs(
    model: LSMCostModel, workloads: Iterable[Workload], tuning: LSMTuning
) -> np.ndarray:
    """Throughput of one tuning on every workload of a benchmark set."""
    values = model.throughputs(workloads, tuning)
    if not values.size:
        raise ValueError("at least one workload is required")
    return values


def win_rate(
    model: LSMCostModel,
    workloads: Sequence[Workload],
    baseline: LSMTuning,
    candidate: LSMTuning,
    tolerance: float = 0.0,
) -> float:
    """Fraction of workloads where ``candidate`` beats ``baseline``.

    Used for the §8.4 headline ("robust tunings comprehensively outperform
    the nominal tunings in over 80% of comparisons").
    """
    deltas = delta_throughputs(model, workloads, baseline, candidate)
    return int(np.count_nonzero(deltas > tolerance)) / deltas.size
