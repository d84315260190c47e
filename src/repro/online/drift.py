"""Workload-drift detection against the tuned-for uncertainty region.

A deployed tuning was optimised for the KL ball ``U_w^ρ`` around a nominal
workload (robust tunings explicitly, nominal tunings with ``ρ = 0`` in
spirit).  The detector keeps that region — reusing
:class:`~repro.core.uncertainty.UncertaintyRegion` — and compares the rolling
:class:`~repro.online.observed.ObservedWorkload` estimate against it: while
the observed workload stays inside the ball the deployed tuning's worst-case
guarantee still covers the stream, and the detector stays quiet; once the
divergence exceeds the radius the guarantee has been escaped and the detector
fires, subject to a warm-up floor (too few observations make the estimate
noise) and a cooldown (a re-tuning must be given time to pay off before the
next one is considered).

Two edge cases are handled explicitly rather than by accident:

* a *zero-weight component of the nominal workload* observed live makes the
  KL divergence infinite — that is a genuine escape (no tilting of the
  nominal workload can reach the observed one) and fires the detector;
* a *zero-weight component of the observed workload* contributes nothing to
  the divergence, matching the convention of
  :func:`~repro.workloads.workload.kl_divergence`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.uncertainty import UncertaintyRegion
from ..workloads.workload import Workload

if TYPE_CHECKING:
    from .config import OnlineConfig

#: Recent finite check divergences kept as the KL trajectory.
TRAJECTORY_WINDOW = 32


@dataclass(frozen=True)
class DriftCheck:
    """Outcome of one drift check."""

    position: int
    divergence: float
    fired: bool
    #: Why the check did (or did not) fire: ``inside``, ``warmup``,
    #: ``confirming``, ``cooldown`` or ``drift``.
    reason: str


class DriftDetector:
    """Fires when the observed workload escapes the tuned-for KL ball.

    Parameters
    ----------
    region:
        The uncertainty region the deployed tuning was computed for; its
        ``rho`` is the drift threshold.
    config:
        The loop's :class:`~repro.online.config.OnlineConfig`, which declares
        and checks the detector's knobs: ``min_observations`` (the warm-up
        floor: the empirical workload of a handful of queries is noise, not
        drift), ``cooldown`` (operations after a firing, or an explicit
        :meth:`mute`/:meth:`recenter`, during which further firings are
        suppressed, so one drift episode triggers one re-tuning) and
        ``confirm_checks`` (*consecutive* out-of-region checks required before
        firing, which delays the firing past the front of a drift episode
        until the rolling estimator's window has flushed the pre-drift mix).

    The last :data:`TRAJECTORY_WINDOW` finite check divergences are kept as
    the *KL trajectory*.  Its dispersion is the detector's volatility signal:
    a stream that keeps swinging around its nominal centre — a cyclic
    HTAP-style workload — shows a high-variance trajectory even when
    individual checks stay quiet, and the adaptive re-tuner widens its robust
    radius with it (see :meth:`~repro.online.retuner.AdaptiveTuner.effective_rho`).
    """

    def __init__(self, region: UncertaintyRegion, config: OnlineConfig) -> None:
        self.region = region
        self.config = config
        self._muted_until = 0
        self._consecutive_outside = 0
        self._trajectory: deque[float] = deque(maxlen=TRAJECTORY_WINDOW)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The KL-divergence radius beyond which the detector fires."""
        return self.region.rho

    def divergence(self, observed: Workload) -> float:
        """KL divergence of ``observed`` from the region's nominal workload.

        May be ``inf`` when the observed workload puts mass on a component
        the nominal workload gives zero weight — an unreachable escape.
        """
        return self.region.divergence(observed)

    def check(
        self,
        observed: Workload | None,
        position: int,
        observations: int | None = None,
    ) -> DriftCheck:
        """Evaluate the drift condition at stream ``position``.

        ``observations`` is the estimator's (undecayed) operation count; when
        provided and below ``min_observations`` the check reports ``warmup``
        without firing.  A firing check arms the cooldown.
        """
        if observed is None or (
            observations is not None and observations < self.config.min_observations
        ):
            return DriftCheck(position, math.nan, False, "warmup")
        divergence = self.divergence(observed)
        if math.isfinite(divergence):
            # Infinite divergences (the zero-weight escape) fire the detector
            # but carry no magnitude the volatility statistic could use.
            self._trajectory.append(divergence)
        if divergence <= self.threshold:
            self._consecutive_outside = 0
            return DriftCheck(position, divergence, False, "inside")
        self._consecutive_outside += 1
        if self._consecutive_outside < self.config.confirm_checks:
            return DriftCheck(position, divergence, False, "confirming")
        if position < self._muted_until:
            return DriftCheck(position, divergence, False, "cooldown")
        self.mute(position)
        self._consecutive_outside = 0
        return DriftCheck(position, divergence, True, "drift")

    # ------------------------------------------------------------------
    # Volatility
    # ------------------------------------------------------------------
    @property
    def trajectory(self) -> tuple[float, ...]:
        """The windowed KL trajectory (recent finite check divergences)."""
        return tuple(self._trajectory)

    def volatility(self) -> float:
        """Dispersion of the windowed KL trajectory (its standard deviation).

        Zero until at least two checks have contributed.  A stationary
        stream hovers near one divergence level (volatility ≈ 0); a cyclic
        or thrashing stream sweeps the trajectory up and down, and the
        resulting spread is what the adaptive re-tuner adds to its robust
        radius — the square root of the trajectory variance keeps the
        widening in the same (KL) units as ρ itself.
        """
        if len(self._trajectory) < 2:
            return 0.0
        return float(np.std(np.asarray(self._trajectory, dtype=float)))

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def mute(self, position: int) -> None:
        """Suppress firings for ``cooldown`` operations starting at ``position``."""
        self._muted_until = position + self.config.cooldown

    def recenter(
        self, expected: Workload, position: int, rho: float | None = None
    ) -> None:
        """Re-centre the region on a new nominal workload (after a migration).

        By default the radius is preserved: the re-tuned configuration covers
        the same amount of uncertainty around its own nominal workload.  A
        drift-aware re-tuning passes the widened ``rho`` it actually solved
        for, so the detector watches the ball the new tuning really covers.
        The cooldown is armed so the fresh tuning gets time to pay off; the
        KL trajectory is *kept* — volatility is a property of the stream, not
        of the centre, and forgetting it would make a cyclic workload look
        calm right after every migration.
        """
        radius = self.region.rho if rho is None else float(rho)
        self.region = UncertaintyRegion(expected=expected, rho=radius)
        self._consecutive_outside = 0
        self.mute(position)
