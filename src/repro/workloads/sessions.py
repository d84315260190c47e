"""Workload sessions for the system-based evaluation (Section 8.2).

The paper executes *sequences* of workloads drawn from the benchmark set B,
each catalogued into a session type according to its dominant query type:

* ``expected`` — workloads whose KL divergence from the expected workload is
  below 0.2,
* ``empty_read`` / ``non_empty_read`` / ``read`` / ``range`` / ``write`` —
  the dominant query type covers 80% of the queries, with the remaining 20%
  spread over the other types.

This module reproduces that construction so the simulator experiments
(Figures 8–18) can replay the same kind of query sequences RocksDB saw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .benchmark import UncertaintyBenchmark
from .workload import Workload, average_workload


class SessionType(enum.Enum):
    """The session categories used in the paper's system experiments."""

    EXPECTED = "expected"
    EMPTY_READ = "empty_read"
    NON_EMPTY_READ = "non_empty_read"
    READ = "read"
    RANGE = "range"
    WRITE = "write"


#: Dominant-query weight of a non-expected session (80% in the paper).
DOMINANT_FRACTION = 0.8

#: KL-divergence threshold below which a workload counts as "expected".
EXPECTED_DIVERGENCE_THRESHOLD = 0.2


@dataclass(frozen=True)
class Session:
    """One session of a query sequence: a label plus its workloads."""

    session_type: SessionType
    label: str
    workloads: tuple[Workload, ...]

    @property
    def average(self) -> Workload:
        """Average workload of the session (reported atop the paper's plots)."""
        return average_workload(self.workloads)

    def with_long_range_fraction(self, fraction: float) -> "Session":
        """Copy of the session with every workload's ``ν`` replaced.

        Used when an experiment's expected workload carries a long-range
        fraction: the benchmark set is sampled over the four query types
        only, so the range-regime split is applied uniformly afterwards.
        """
        return Session(
            session_type=self.session_type,
            label=self.label,
            workloads=tuple(
                wl.with_long_range_fraction(fraction) for wl in self.workloads
            ),
        )


@dataclass(frozen=True)
class SessionSequence:
    """An ordered sequence of sessions executed against one database."""

    expected: Workload
    sessions: tuple[Session, ...]

    def __iter__(self):
        return iter(self.sessions)

    def __len__(self) -> int:
        return len(self.sessions)

    @property
    def observed_average(self) -> Workload:
        """Average workload observed over the whole sequence."""
        return average_workload(
            wl for session in self.sessions for wl in session.workloads
        )

    def observed_divergence(self) -> float:
        """KL divergence of the observed average from the expected workload."""
        return self.observed_average.distance_to(self.expected)

    def with_long_range_fraction(self, fraction: float) -> "SessionSequence":
        """Copy of the sequence with ``ν`` applied to every session workload."""
        return SessionSequence(
            expected=self.expected.with_long_range_fraction(fraction),
            sessions=tuple(
                session.with_long_range_fraction(fraction) for session in self.sessions
            ),
        )


class SessionGenerator:
    """Builds paper-style session sequences from the uncertainty benchmark."""

    def __init__(
        self,
        benchmark: UncertaintyBenchmark | None = None,
        seed: int = 7,
    ) -> None:
        self.benchmark = benchmark if benchmark is not None else UncertaintyBenchmark()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Individual sessions
    # ------------------------------------------------------------------
    def session(
        self,
        session_type: SessionType | str,
        expected: Workload,
        workloads_per_session: int = 3,
    ) -> Session:
        """Generate one session of the requested type.

        Expected sessions are sampled from benchmark workloads close (in KL
        divergence) to ``expected``; dominant-query sessions rescale benchmark
        samples so the dominant type holds :data:`DOMINANT_FRACTION` of the
        queries, mirroring §8.2.
        """
        if isinstance(session_type, str):
            session_type = SessionType(session_type.lower())
        if workloads_per_session <= 0:
            raise ValueError("workloads_per_session must be positive")

        if session_type is SessionType.EXPECTED:
            workloads = self._expected_session(expected, workloads_per_session)
        else:
            workloads = self._dominant_session(session_type, workloads_per_session)
        label = session_type.value.replace("_", " ")
        return Session(session_type=session_type, label=label, workloads=workloads)

    def _expected_session(
        self, expected: Workload, count: int
    ) -> tuple[Workload, ...]:
        near = self.benchmark.within_divergence(
            expected, EXPECTED_DIVERGENCE_THRESHOLD
        )
        if near:
            indices = self._rng.integers(0, len(near), size=count)
            return tuple(near[i] for i in indices)
        # If the benchmark has no sufficiently close workload (possible for
        # extreme unimodal expected workloads), perturb the expected workload
        # slightly instead so the session still exists.
        perturbed = []
        for _ in range(count):
            noise = self._rng.dirichlet(np.ones(4)) * 0.05
            blended = 0.95 * expected.as_array() + noise
            perturbed.append(Workload.from_array(blended / blended.sum()))
        return tuple(perturbed)

    def _dominant_session(
        self, session_type: SessionType, count: int
    ) -> tuple[Workload, ...]:
        dominant_indices = {
            SessionType.EMPTY_READ: (0,),
            SessionType.NON_EMPTY_READ: (1,),
            SessionType.READ: (0, 1),
            SessionType.RANGE: (2,),
            SessionType.WRITE: (3,),
        }[session_type]

        workloads = []
        samples = self.benchmark.sample(count, seed=int(self._rng.integers(0, 2**31)))
        for sample in samples:
            arr = sample.as_array()
            dominant = np.zeros(4)
            dominant_weights = arr[list(dominant_indices)]
            if dominant_weights.sum() == 0:
                dominant_weights = np.ones(len(dominant_indices))
            dominant[list(dominant_indices)] = (
                dominant_weights / dominant_weights.sum()
            )
            rest = arr.copy()
            rest[list(dominant_indices)] = 0.0
            if rest.sum() == 0:
                rest = np.ones(4)
                rest[list(dominant_indices)] = 0.0
            rest = rest / rest.sum()
            blended = DOMINANT_FRACTION * dominant + (1 - DOMINANT_FRACTION) * rest
            workloads.append(Workload.from_array(blended / blended.sum()))
        return tuple(workloads)

    # ------------------------------------------------------------------
    # Full sequences
    # ------------------------------------------------------------------
    def paper_sequence(
        self,
        expected: Workload,
        include_writes: bool = True,
        workloads_per_session: int = 3,
    ) -> SessionSequence:
        """The six-session sequence used by Figures 8–18.

        Read-only sequences (Figures 8–9) replace the write session with an
        additional read session and end with two read sessions; write
        sequences (Figures 10–18) end with a write session followed by an
        expected session.
        """
        if include_writes:
            order: Sequence[SessionType] = (
                SessionType.READ,
                SessionType.RANGE,
                SessionType.EMPTY_READ,
                SessionType.NON_EMPTY_READ,
                SessionType.WRITE,
                SessionType.EXPECTED,
            )
        else:
            order = (
                SessionType.READ,
                SessionType.RANGE,
                SessionType.EMPTY_READ,
                SessionType.NON_EMPTY_READ,
                SessionType.READ,
                SessionType.READ,
            )
        sessions = tuple(
            self.session(session_type, expected, workloads_per_session)
            for session_type in order
        )
        return SessionSequence(expected=expected, sessions=sessions)

    def motivation_sequence(
        self,
        expected: Workload,
        shifted: Workload,
        workloads_per_session: int = 3,
    ) -> SessionSequence:
        """The three-session sequence of Figure 1 (expected, shifted, expected)."""
        def repeat(workload: Workload, session_type: SessionType, label: str) -> Session:
            return Session(
                session_type=session_type,
                label=label,
                workloads=tuple([workload] * workloads_per_session),
            )

        sessions = (
            repeat(expected, SessionType.EXPECTED, "expected workload"),
            repeat(shifted, SessionType.RANGE, "uncertain workload"),
            repeat(expected, SessionType.EXPECTED, "expected workload"),
        )
        return SessionSequence(expected=expected, sessions=sessions)
