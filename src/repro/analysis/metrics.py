"""Evaluation metrics of Section 7.1, on throughput vectors.

A tuning ``Φ`` is scored over a benchmark set ``B`` through one vector, its
throughput ``1 / C(w, Φ)`` on every ``w ∈ B`` (computed by
:meth:`repro.lsm.cost_model.LSMCostModel.throughputs`, cached per tuning by
:class:`repro.analysis.model_eval.TuningCatalog`).  The metrics reduce such
vectors:

* normalised delta throughput ``Δ_w(Φ1, Φ2)`` — relative throughput gain of
  ``Φ2`` over ``Φ1`` on each workload;
* throughput range ``Θ_B(Φ)`` — spread between the best- and worst-case
  throughput of one tuning over ``B``, a consistency measure;
* the win rate of §8.4 — the share of workloads on which ``Φ2`` beats ``Φ1``.
"""

from __future__ import annotations

import numpy as np


def delta_throughputs(baseline: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Normalised delta throughput ``Δ_w(baseline, candidate)`` per workload.

    Positive values mean ``candidate`` outperforms ``baseline`` on that
    workload; ``-0.5`` means it achieves half the baseline's throughput.
    """
    return (candidate - baseline) / baseline


def throughput_range(throughputs: np.ndarray) -> float:
    """Throughput range ``Θ_B(Φ)`` of one tuning's throughput vector.

    Smaller values mean the tuning performs more consistently across the
    benchmark (lower variance in achievable throughput).
    """
    return float(throughputs.max() - throughputs.min())


def win_rate(
    baseline: np.ndarray, candidate: np.ndarray, tolerance: float = 0.0
) -> float:
    """Fraction of workloads where ``candidate`` beats ``baseline``.

    Used for the §8.4 headline ("robust tunings comprehensively outperform
    the nominal tunings in over 80% of comparisons").
    """
    deltas = delta_throughputs(baseline, candidate)
    return int(np.count_nonzero(deltas > tolerance)) / deltas.size
