"""Drift-detector tests, including the ISSUE-2 edge cases.

The edge cases pinned here:

* zero-weight workload components on either side of the divergence (the
  PR 1 underflow class),
* an estimator window shorter than one session,
* drift conditions holding during the post-migration cooldown.
"""

import math

import pytest

from repro.core import UncertaintyRegion
from repro.online import DriftDetector, ObservedWorkload, OnlineConfig
from repro.online.drift import TRAJECTORY_WINDOW
from repro.workloads import Operation, OperationType, Workload


def _detector(expected: Workload, rho: float = 0.5, **knobs) -> DriftDetector:
    """A detector reading a config with these knobs (no warm-up, one check)."""
    config = OnlineConfig(**{"min_observations": 0, "cooldown": 1_000, "confirm_checks": 1,
                             **knobs})
    return DriftDetector(UncertaintyRegion(expected=expected, rho=rho), config)


class TestBasicDetection:
    def test_inside_the_region_stays_quiet(self):
        detector = _detector(Workload.uniform(), rho=0.5)
        check = detector.check(Workload(0.3, 0.3, 0.2, 0.2), position=100)
        assert not check.fired
        assert check.reason == "inside"
        assert check.divergence < 0.5

    def test_escaping_the_region_fires(self):
        detector = _detector(Workload.uniform(), rho=0.1)
        check = detector.check(Workload(0.85, 0.05, 0.05, 0.05), position=100)
        assert check.fired
        assert check.reason == "drift"
        assert check.divergence > 0.1

    def test_warmup_suppresses_firing(self):
        detector = _detector(Workload.uniform(), rho=0.1, min_observations=500)
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        check = detector.check(drifted, position=100, observations=100)
        assert not check.fired
        assert check.reason == "warmup"
        assert math.isnan(check.divergence)
        assert detector.check(drifted, position=600, observations=600).fired

    def test_no_estimate_reports_warmup(self):
        detector = _detector(Workload.uniform())
        check = detector.check(None, position=0)
        assert not check.fired
        assert check.reason == "warmup"


class TestZeroWeightComponents:
    """The PR 1 underflow class: zero-weight components must be exact."""

    def test_mass_on_a_nominal_zero_component_is_an_escape(self):
        # The nominal workload has no range queries at all; observing them
        # makes the divergence infinite (no tilting can reach the stream).
        nominal = Workload(0.5, 0.5, 0.0, 0.0)
        detector = _detector(nominal, rho=2.0)
        observed = Workload(0.4, 0.4, 0.2, 0.0)
        assert detector.divergence(observed) == math.inf
        check = detector.check(observed, position=10)
        assert check.fired
        assert check.divergence == math.inf

    def test_observed_zero_components_contribute_nothing(self):
        nominal = Workload(0.25, 0.25, 0.25, 0.25)
        detector = _detector(nominal, rho=1.5)
        observed = Workload(1.0, 0.0, 0.0, 0.0)
        divergence = detector.divergence(observed)
        assert divergence == pytest.approx(math.log(4.0))
        assert not detector.check(observed, position=10).fired

    def test_matching_zero_supports_stay_finite(self):
        nominal = Workload(0.5, 0.5, 0.0, 0.0)
        observed = Workload(0.6, 0.4, 0.0, 0.0)
        detector = _detector(nominal, rho=0.5)
        check = detector.check(observed, position=10)
        assert math.isfinite(check.divergence)
        assert not check.fired

    def test_estimator_with_unseen_types_feeds_the_detector(self):
        """End-to-end: a single-type stream (zero-weight estimate components)
        flows through divergence checks without under/overflow."""
        estimator = ObservedWorkload(window=64)
        for key in range(200):
            estimator.record(Operation(OperationType.PUT, key))
        detector = _detector(Workload(0.01, 0.01, 0.01, 0.97), rho=0.5)
        check = detector.check(estimator.workload(), position=200)
        assert math.isfinite(check.divergence)
        assert not check.fired


class TestShortWindow:
    def test_window_shorter_than_a_session_still_detects_drift(self):
        """With a window much shorter than a session the estimate reaches the
        drifted mix mid-session and the detector fires inside it."""
        estimator = ObservedWorkload(window=32)
        detector = _detector(
            Workload(0.45, 0.45, 0.05, 0.05), rho=0.5, min_observations=64
        )
        # First session: matches the expectation; no firing at any check
        # (the first checks sit below the warm-up floor and report so).
        for key in range(512):
            kind = (
                OperationType.EMPTY_GET if key % 2 else OperationType.GET
            )
            estimator.record(Operation(kind, key))
            if key % 64 == 0:
                assert not detector.check(
                    estimator.workload(), position=key, observations=key + 1
                ).fired
        # Second session: write-only; the tiny window converges within ~3
        # windows and the detector fires well before the session ends.
        fired_at = None
        for step in range(256):
            estimator.record(Operation(OperationType.PUT, 10_000 + step))
            check = detector.check(
                estimator.workload(), position=512 + step, observations=513 + step
            )
            if check.fired:
                fired_at = step
                break
        assert fired_at is not None
        assert fired_at < 200


class TestCooldownAndConfirmation:
    def test_drift_during_cooldown_does_not_refire(self):
        """A drift condition that persists through the cooldown is reported as
        suppressed, then fires again once the cooldown has elapsed."""
        detector = _detector(Workload.uniform(), rho=0.1, cooldown=500)
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        first = detector.check(drifted, position=100)
        assert first.fired
        during = detector.check(drifted, position=300)
        assert not during.fired
        assert during.reason == "cooldown"
        after = detector.check(drifted, position=700)
        assert after.fired

    def test_recenter_mutes_and_moves_the_region(self):
        detector = _detector(Workload.uniform(), rho=0.1, cooldown=500)
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        assert detector.check(drifted, position=100).fired
        detector.recenter(drifted, position=100)
        # The drifted mix is now nominal: inside, no firing.
        assert detector.check(drifted, position=700).reason == "inside"
        # The old nominal is now the escape, but the cooldown holds first.
        old = Workload.uniform()
        assert detector.check(old, position=300).reason == "cooldown"
        assert detector.check(old, position=700).fired

    def test_confirmation_delays_firing(self):
        detector = _detector(
            Workload.uniform(), rho=0.1, cooldown=0, confirm_checks=3
        )
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        assert detector.check(drifted, position=1).reason == "confirming"
        assert detector.check(drifted, position=2).reason == "confirming"
        assert detector.check(drifted, position=3).fired

    def test_confirmation_resets_when_back_inside(self):
        detector = _detector(
            Workload.uniform(), rho=0.1, cooldown=0, confirm_checks=2
        )
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        inside = Workload(0.3, 0.3, 0.2, 0.2)
        assert detector.check(drifted, position=1).reason == "confirming"
        assert detector.check(inside, position=2).reason == "inside"
        assert detector.check(drifted, position=3).reason == "confirming"
        assert detector.check(drifted, position=4).fired


class TestVolatility:
    """The KL-trajectory dispersion that widens the adaptive radius."""

    def test_volatility_is_zero_before_two_checks(self):
        detector = _detector(Workload.uniform(), rho=1.0)
        assert detector.volatility() == 0.0
        detector.check(Workload(0.3, 0.3, 0.2, 0.2), position=1)
        assert detector.volatility() == 0.0

    def test_stationary_stream_has_low_volatility(self):
        detector = _detector(Workload.uniform(), rho=1.0)
        steady = Workload(0.3, 0.3, 0.2, 0.2)
        for position in range(1, 20):
            detector.check(steady, position=position)
        assert detector.volatility() == pytest.approx(0.0, abs=1e-12)

    def test_cyclic_stream_has_high_volatility(self):
        """Alternating phases sweep the trajectory between a near-zero and a
        large divergence: the dispersion dwarfs the stationary case."""
        detector = _detector(Workload.uniform(), rho=10.0)
        phase_a = Workload(0.3, 0.3, 0.2, 0.2)
        phase_b = Workload(0.02, 0.02, 0.02, 0.94)
        for position in range(1, 21):
            detector.check(phase_a if position % 2 else phase_b, position=position)
        assert detector.volatility() > 0.3

    def test_infinite_divergences_do_not_poison_the_trajectory(self):
        nominal = Workload(0.5, 0.5, 0.0, 0.0)
        detector = _detector(nominal, rho=10.0)
        detector.check(Workload(0.6, 0.4, 0.0, 0.0), position=1)
        detector.check(Workload(0.4, 0.4, 0.2, 0.0), position=2)  # inf escape
        detector.check(Workload(0.55, 0.45, 0.0, 0.0), position=3)
        assert math.isfinite(detector.volatility())

    def test_trajectory_window_bounds_the_memory(self):
        detector = _detector(Workload.uniform(), rho=10.0)
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        steady = Workload(0.3, 0.3, 0.2, 0.2)
        for position in range(1, 10):
            detector.check(drifted, position=position)
        # The old (large) divergences roll out of the window...
        for position in range(10, 11 + TRAJECTORY_WINDOW):
            detector.check(steady, position=position)
        assert len(detector.trajectory) == TRAJECTORY_WINDOW
        assert detector.volatility() == pytest.approx(0.0, abs=1e-12)

    def test_recenter_preserves_the_trajectory_and_widens_the_radius(self):
        detector = _detector(Workload.uniform(), rho=0.1, cooldown=0)
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        detector.check(Workload(0.3, 0.3, 0.2, 0.2), position=1)
        detector.check(drifted, position=2)
        trajectory = detector.trajectory
        detector.recenter(drifted, position=2, rho=1.5)
        assert detector.trajectory == trajectory
        assert detector.threshold == 1.5
        # Without an explicit radius the old one is preserved.
        detector.recenter(drifted, position=3)
        assert detector.threshold == 1.5


class TestValidation:
    """The detector's knobs are bounded where they are declared, on the config."""

    def test_rejects_negative_cooldown(self):
        with pytest.raises(ValueError):
            OnlineConfig(cooldown=-1)

    def test_rejects_non_positive_confirm_checks(self):
        with pytest.raises(ValueError):
            OnlineConfig(confirm_checks=0)

    def test_the_detector_reads_its_config(self):
        config = OnlineConfig(min_observations=7, cooldown=11, confirm_checks=2)
        detector = DriftDetector(UncertaintyRegion(Workload.uniform(), 0.1), config)
        drifted = Workload(0.85, 0.05, 0.05, 0.05)
        assert detector.check(drifted, position=1, observations=6).reason == "warmup"
        assert detector.check(drifted, position=2, observations=7).reason == "confirming"
        assert detector.check(drifted, position=3, observations=8).fired
        assert detector.check(drifted, position=13, observations=18).reason == "confirming"
        assert detector.check(drifted, position=13, observations=18).reason == "cooldown"
        assert detector.check(drifted, position=14, observations=19).fired
