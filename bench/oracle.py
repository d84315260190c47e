"""Answers checked against a plain sorted array, and failures counted.

The engines never materialise values, so "the right answer" is a membership
answer: which keys are live, and how many live keys an interval holds.  The
oracle for that is the sorted array of every key loaded or put — no deletes
are issued by any workload, so nothing ever leaves it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Keys sampled for the "was never inserted" check and intervals sampled for
#: the range-count check, per tree.
MISSING_SAMPLES = 1_000
RANGE_SAMPLES = 1_000
#: Interval lengths the range check alternates between: the workloads' short
#: and long scans.
RANGE_LENGTHS = (16, 512)
#: A tuner fails its cell when its objective exceeds the grid reference's by more.
OBJECTIVE_TOLERANCE = 0.02


class Oracle:
    """Counts checks attempted and failed; keeps the first few failure messages.

    ``probe`` — given by the traced run only — is called with every tree the
    oracle has finished questioning, so layer probes see the same
    post-replay tree without the workloads knowing about them.
    """

    def __init__(self, seed: int, probe: Callable | None = None) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe = probe
        self._rng = np.random.default_rng(seed)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and len(self.failures) < 10:
            self.failures.append(f"{what}: {int(failed)} of {int(attempted)} failed")

    def tree(
        self, tree, live: np.ndarray, missing: np.ndarray, label: str, probe: bool = True
    ) -> None:
        """Question ``tree`` through its public reads.

        ``live`` is the sorted oracle array; ``missing`` are keys of the same
        domain that were never inserted.
        """
        found = tree.get_many(live)
        self.count(live.size, np.count_nonzero(~found), f"{label}: live key not found")
        absent = self._rng.choice(missing, size=min(MISSING_SAMPLES, missing.size))
        found = tree.get_many(absent)
        self.count(absent.size, np.count_nonzero(found), f"{label}: missing key found")
        starts = self._rng.choice(live, size=RANGE_SAMPLES)
        wrong = 0
        for index, start in enumerate(starts.tolist()):
            end = start + RANGE_LENGTHS[index % len(RANGE_LENGTHS)]
            expected = np.searchsorted(live, end, "right") - np.searchsorted(live, start, "left")
            wrong += tree.range_query(start, end) != expected
        self.count(RANGE_SAMPLES, wrong, f"{label}: range count differs")
        if probe and self.probe is not None:
            self.probe(tree, live, missing, label)

    def objective(self, label: str, cost: float, reference: float) -> float:
        """A tuner's re-evaluated objective against the grid reference's.

        Returns the relative gap (negative when the tuner beat the grid).
        """
        gap = cost / reference - 1.0
        self.count(1, gap > OBJECTIVE_TOLERANCE, f"{label}: objective {gap:+.2%} off the grid")
        return gap

    def equal(self, what: str, left, right) -> None:
        """Two values that must agree exactly (page counters, repeats)."""
        self.count(1, left != right, f"{what}: {left!r} != {right!r}")
