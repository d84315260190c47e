"""Rolling empirical estimate of the live workload.

The offline pipeline works with *declared* workload proportions; the online
subsystem has to infer them from the operation stream itself.  This module
folds a :class:`~repro.workloads.traces.Trace` into a
sliding-window empirical workload: every recorded operation decays all
previous observations by a constant factor, so the estimate is an
exponentially weighted average whose effective window is ``window``
operations.  Old sessions fade out instead of being sharply truncated, which
keeps the drift signal smooth across session boundaries.
"""

from __future__ import annotations

from ..workloads.traces import Operation, OperationType, Trace
from ..workloads.workload import Workload


class ObservedWorkload:
    """Exponentially decayed sliding-window estimate of the workload mix.

    Parameters
    ----------
    window:
        Effective window size in operations.  Each new operation decays the
        accumulated counts by ``1 - 1/window``, so the total decayed weight
        converges to ``window`` and an operation ``window`` steps in the past
        contributes ``~1/e`` of a fresh one.

    The estimate is the raw empirical mix: a query type absent from the
    window has weight zero, which the divergence machinery handles exactly.
    """

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.decay = 1.0 - 1.0 / self.window
        self._counts = [0.0, 0.0, 0.0, 0.0]
        self._weight = 0.0
        self._observations = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, operation: Operation) -> None:
        """Fold one operation into the estimate."""
        self.record_kind(operation.kind)

    def record_kind(self, kind: OperationType | int) -> None:
        """Fold one operation of the given type (or kind code) into the estimate."""
        decay = self.decay
        counts = self._counts
        counts[0] *= decay
        counts[1] *= decay
        counts[2] *= decay
        counts[3] *= decay
        counts[kind] += 1.0
        self._weight = self._weight * decay + 1.0
        self._observations += 1

    def record_batch(self, trace: Trace) -> None:
        """Fold a trace into the estimate, in stream order.

        The same float operations in the same order as one :meth:`record_kind`
        per operation, folded in locals, so the estimate is bit-identical.
        """
        kinds = trace.kinds.tolist()
        decay = self.decay
        c0, c1, c2, c3 = self._counts
        weight = self._weight
        for kind in kinds:
            c0 *= decay
            c1 *= decay
            c2 *= decay
            c3 *= decay
            if kind == 3:
                c3 += 1.0
            elif kind == 1:
                c1 += 1.0
            elif kind == 0:
                c0 += 1.0
            elif kind == 2:
                c2 += 1.0
            else:
                raise ValueError(f"unknown operation kind {kind}")
            weight = weight * decay + 1.0
        self._counts = [c0, c1, c2, c3]
        self._weight = weight
        self._observations += len(kinds)

    def reset(self) -> None:
        """Forget everything observed so far."""
        self._counts = [0.0, 0.0, 0.0, 0.0]
        self._weight = 0.0
        self._observations = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def observations(self) -> int:
        """Number of operations folded in since the last reset (undecayed)."""
        return self._observations

    @property
    def weight(self) -> float:
        """Total decayed weight of the estimate (converges to ``window``)."""
        return self._weight

    def workload(self) -> Workload | None:
        """The current empirical workload, or ``None`` before any operation."""
        if self._weight <= 0.0:
            return None
        return Workload.from_counts(self._counts)
