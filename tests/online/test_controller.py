"""Tests for the online controller and the adaptive re-tuner."""

import numpy as np
import pytest

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import AdaptiveTuner, OnlineConfig, OnlineLSMController
from repro.online.retuner import RHO_CAP, VOLATILITY_GAIN
from repro.storage import LSMTree
from repro.workloads import KeySpace, TraceGenerator, Workload


@pytest.fixture(scope="module")
def tiny_system():
    return simulator_system(num_entries=4_000)


@pytest.fixture(scope="module")
def key_space(tiny_system):
    return KeySpace.build(tiny_system.num_entries, seed=3)


def _controller(tiny_system, key_space, config, expected, tuning=None):
    tuning = tuning if tuning is not None else LSMTuning(20.0, 8.0, Policy.LEVELING)
    tree = LSMTree(tuning, tiny_system)
    tree.bulk_load(key_space.existing)
    tree.disk.reset()
    return OnlineLSMController(tree=tree, expected=expected, config=config)


class TestAdaptiveTuner:
    def test_rejects_unknown_mode(self, tiny_system):
        with pytest.raises(ValueError):
            AdaptiveTuner(tiny_system, OnlineConfig(mode="oracle"))

    def test_retune_proposes_a_deployable_tuning(self, tiny_system):
        tuner = AdaptiveTuner(tiny_system, OnlineConfig(mode="nominal"))
        current = LSMTuning(30.0, 8.0, Policy.LEVELING)
        decision = tuner.retune(
            Workload(0.05, 0.05, 0.05, 0.85), current, resident_pages=1_000
        )
        assert decision.proposed.size_ratio == int(decision.proposed.size_ratio)
        assert decision.migration_ios == 2_000.0
        # A write-heavy observation must predict a gain over a read-tuned tree.
        assert decision.predicted_gain > 0

    def test_unjustified_when_migration_dwarfs_the_horizon(self, tiny_system):
        tuner = AdaptiveTuner(tiny_system, OnlineConfig(mode="nominal", horizon_ops=10))
        current = LSMTuning(30.0, 8.0, Policy.LEVELING)
        decision = tuner.retune(
            Workload(0.05, 0.05, 0.05, 0.85), current, resident_pages=10_000
        )
        assert not decision.justified

    def test_robust_mode_uses_the_requested_radius(self, tiny_system):
        tuner = AdaptiveTuner(tiny_system, OnlineConfig(mode="robust", rho=1.0))
        assert tuner.tuner.rho == 1.0


class TestControllerExecution:
    def test_executes_operations_and_observes_them(
        self, tiny_system, key_space
    ):
        config = OnlineConfig(window=200, check_interval=10_000)
        controller = _controller(
            tiny_system, key_space, config, Workload.uniform()
        )
        trace = TraceGenerator(key_space, seed=9)
        operations = trace.operations(Workload.uniform(), 400)
        controller.execute(operations)
        assert controller.position == 400
        estimate = controller.estimator.workload().as_array()
        assert np.allclose(estimate, 0.25, atol=0.15)

    def test_quiet_stream_never_retunes(self, tiny_system, key_space):
        expected = Workload.uniform()
        config = OnlineConfig(
            window=200, check_interval=50, min_observations=100, rho=1.0
        )
        controller = _controller(tiny_system, key_space, config, expected)
        trace = TraceGenerator(key_space, seed=9)
        controller.execute(trace.operations(expected, 1_000))
        assert controller.events == []
        assert controller.num_migrations == 0

    def test_drift_triggers_retuning_and_migration(self, tiny_system, key_space):
        expected = Workload(0.32, 0.32, 0.32, 0.04)
        config = OnlineConfig(
            window=150,
            check_interval=32,
            min_observations=64,
            cooldown=256,
            confirm_checks=2,
            rho=0.5,
            mode="nominal",
            horizon_ops=50_000,
        )
        controller = _controller(tiny_system, key_space, config, expected)
        initial_tuning = controller.tuning
        before_entries = controller.tree.num_entries
        trace = TraceGenerator(key_space, seed=9)
        # Write-only stream: far outside the read-heavy expectation.
        controller.execute(trace.operations(Workload(0.0, 0.0, 0.0, 1.0), 1_500))
        assert controller.num_migrations >= 1
        event = next(e for e in controller.events if e.migrated)
        assert event.decision.justified
        assert event.migration_read_pages > 0
        assert event.migration_write_pages > 0
        assert controller.tuning != initial_tuning
        # No entries were lost by the rebuild (writes keep landing after it).
        assert controller.tree.num_entries >= before_entries

    def test_retuning_prices_the_expected_long_range_fraction(
        self, tiny_system, key_space
    ):
        """The stream only reveals the four query-type proportions, so the
        expected workload's short/long range split must be carried onto the
        observed estimate before re-tuning — otherwise the re-tuner would
        price range queries as all-short and could migrate to a design the
        long-range regime penalises."""
        expected = Workload(0.32, 0.32, 0.32, 0.04, long_range_fraction=0.6)
        config = OnlineConfig(
            window=150,
            check_interval=32,
            min_observations=64,
            cooldown=256,
            confirm_checks=2,
            rho=0.5,
            mode="nominal",
            horizon_ops=50_000,
        )
        controller = _controller(tiny_system, key_space, config, expected)
        trace = TraceGenerator(key_space, seed=9)
        controller.execute(trace.operations(Workload(0.0, 0.0, 0.0, 1.0), 1_500))
        assert controller.events, "the drifted stream must fire at least once"
        for event in controller.events:
            assert event.observed.long_range_fraction == pytest.approx(0.6)

    def test_migration_io_is_charged_as_compaction_traffic(
        self, tiny_system, key_space
    ):
        expected = Workload(0.49, 0.49, 0.01, 0.01)
        config = OnlineConfig(
            window=100,
            check_interval=25,
            min_observations=50,
            cooldown=10_000,
            confirm_checks=1,
            rho=0.25,
            mode="nominal",
            horizon_ops=100_000,
        )
        controller = _controller(tiny_system, key_space, config, expected)
        trace = TraceGenerator(key_space, seed=9)
        # A read-only drift (range-heavy): the only compaction traffic the
        # stream can generate is the migration itself.
        controller.execute(trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 600))
        migrated = [e for e in controller.events if e.migrated]
        assert migrated, "the range-only stream should have triggered a migration"
        counters = controller.disk.counters
        assert counters.compaction_reads == sum(
            e.migration_read_pages for e in migrated
        )
        assert counters.compaction_writes == sum(
            e.migration_write_pages for e in migrated
        )

    def test_migration_keeps_an_updated_key_once(self, tiny_system, key_space):
        """A buffered update over an older version bulk-loaded into a deeper
        run: the migration's rebuild holds the key once, beside its
        neighbours."""
        config = OnlineConfig(check_interval=10**9)
        controller = _controller(tiny_system, key_space, config, Workload.uniform())
        victim, neighbour = int(key_space.existing[10]), int(key_space.existing[11])
        controller.tree.put(victim)
        controller._migrate(LSMTuning(4.0, 4.0, Policy.TIERING))
        assert controller.tree.get(victim) and controller.tree.get(neighbour)
        assert controller.tree.range_query(victim, neighbour) == 2

    def test_infinite_divergence_serialises_to_valid_json(self, tiny_system):
        import json
        import math

        from repro.online.controller import RetuningEvent
        from repro.online.retuner import AdaptiveTuner

        tuner = AdaptiveTuner(tiny_system, OnlineConfig(mode="nominal"))
        current = LSMTuning(30.0, 8.0, Policy.LEVELING)
        decision = tuner.retune(
            Workload(0.0, 0.0, 0.0, 1.0), current, resident_pages=100
        )
        event = RetuningEvent(
            position=10,
            divergence=math.inf,
            observed=Workload(0.0, 0.0, 0.0, 1.0),
            decision=decision,
            migrated=False,
            migration_read_pages=0,
            migration_write_pages=0,
        )
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["divergence"] is None

    def test_cooldown_spans_migrations(self, tiny_system, key_space):
        """Back-to-back drift episodes within one cooldown yield one migration."""
        expected = Workload(0.32, 0.32, 0.32, 0.04)
        config = OnlineConfig(
            window=100,
            check_interval=25,
            min_observations=50,
            cooldown=100_000,
            confirm_checks=1,
            rho=0.25,
            mode="nominal",
            horizon_ops=100_000,
        )
        controller = _controller(tiny_system, key_space, config, expected)
        trace = TraceGenerator(key_space, seed=9)
        controller.execute(trace.operations(Workload(0.0, 0.0, 0.0, 1.0), 800))
        # Drift back towards something else equally far from the recentre.
        controller.execute(trace.operations(Workload(0.9, 0.05, 0.0, 0.05), 800))
        assert controller.num_migrations <= 1


class TestIncrementalMigration:
    """The level-by-level migration mode of the controller."""

    _CONFIG_KWARGS = dict(
        window=150,
        check_interval=32,
        min_observations=64,
        cooldown=256,
        confirm_checks=2,
        rho=0.5,
        mode="nominal",
        horizon_ops=50_000,
        migration="incremental",
        migration_step_ops=64,
        migration_step_pages=16,
    )

    def test_incremental_migration_completes_and_swaps_the_tree(
        self, tiny_system, key_space
    ):
        expected = Workload(0.32, 0.32, 0.32, 0.04)
        config = OnlineConfig(**self._CONFIG_KWARGS)
        controller = _controller(tiny_system, key_space, config, expected)
        initial_tuning = controller.tuning
        trace = TraceGenerator(key_space, seed=9)
        controller.execute(trace.operations(Workload(0.0, 0.0, 0.0, 1.0), 6_000))
        assert controller.num_migrations >= 1
        event = next(e for e in controller.events if e.migrated)
        assert event.migration_steps > 1
        assert event.migration_read_pages > 0
        assert event.migration_write_pages > 0
        assert controller.migration_plan is None
        assert controller.tuning != initial_tuning

    def test_plan_advances_with_the_stream_not_at_the_firing(
        self, tiny_system, key_space
    ):
        """Right after the firing only the first step's pages are charged;
        the rest trickle in as the stream advances."""
        expected = Workload(0.49, 0.49, 0.01, 0.01)
        config = OnlineConfig(**{
            **self._CONFIG_KWARGS,
            "cooldown": 100_000,
            "confirm_checks": 1,
            "rho": 0.25,
            "horizon_ops": 100_000,
        })
        controller = _controller(tiny_system, key_space, config, expected)
        trace = TraceGenerator(key_space, seed=9)
        # Range-only drift: the only compaction traffic is the migration.
        operations = trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 600)
        for operation in operations:
            controller.apply(operation)
            if controller.migration_plan is not None:
                break
        assert controller.migration_plan is not None
        event = controller.events[-1]
        charged = controller.disk.counters.compaction_reads
        assert 0 < charged < event.migration_read_pages
        # Draining the plan charges exactly the planned remainder.
        controller.finish_migration()
        assert controller.migration_plan is None
        counters = controller.disk.counters
        assert counters.compaction_reads == event.migration_read_pages
        assert counters.compaction_writes == event.migration_write_pages

    def test_drift_checks_are_suspended_while_a_plan_runs(
        self, tiny_system, key_space
    ):
        expected = Workload(0.49, 0.49, 0.01, 0.01)
        config = OnlineConfig(**{
            **self._CONFIG_KWARGS,
            "cooldown": 0,
            "confirm_checks": 1,
            "rho": 0.25,
            "horizon_ops": 100_000,
            "migration_step_ops": 10_000,  # the plan effectively never advances
        })
        controller = _controller(tiny_system, key_space, config, expected)
        trace = TraceGenerator(key_space, seed=9)
        controller.execute(trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 1_000))
        assert controller.migration_plan is not None
        # Even with no cooldown, the in-flight plan blocks further firings.
        assert controller.num_migrations == 1

    def test_mixed_state_preserves_entries(self, tiny_system, key_space):
        expected = Workload(0.32, 0.32, 0.32, 0.04)
        config = OnlineConfig(**self._CONFIG_KWARGS)
        controller = _controller(tiny_system, key_space, config, expected)
        before_entries = controller.tree.num_entries
        trace = TraceGenerator(key_space, seed=9)
        controller.execute(trace.operations(Workload(0.0, 0.0, 0.0, 1.0), 6_000))
        assert controller.num_migrations >= 1
        # Writes kept landing throughout: nothing was lost by the migration.
        assert controller.tree.num_entries >= before_entries


class TestAdaptiveRho:
    def test_effective_rho_widens_with_volatility(self, tiny_system):
        config = OnlineConfig(mode="robust", rho=0.5, rho_adaptive=True)
        tuner = AdaptiveTuner(tiny_system, config)
        assert tuner.effective_rho(0.0) == 0.5
        assert VOLATILITY_GAIN == 2.0
        assert tuner.effective_rho(0.4) == pytest.approx(1.3)
        assert tuner.effective_rho(100.0) == RHO_CAP == 4.0  # capped

    def test_fixed_rho_ignores_volatility(self, tiny_system):
        tuner = AdaptiveTuner(tiny_system, OnlineConfig(mode="robust", rho=0.5))
        assert tuner.effective_rho(5.0) == 0.5

    def test_decision_records_the_widened_radius(self, tiny_system):
        config = OnlineConfig(mode="robust", rho=0.25, rho_adaptive=True)
        tuner = AdaptiveTuner(tiny_system, config)
        current = LSMTuning(30.0, 8.0, Policy.LEVELING)
        decision = tuner.retune(
            Workload(0.05, 0.05, 0.05, 0.85), current,
            resident_pages=1_000, volatility=0.5,
        )
        assert decision.rho == pytest.approx(1.25)  # 0.25 + 2.0 × 0.5
        assert decision.to_dict()["rho"] == pytest.approx(1.25)

    def test_migration_widens_the_watched_ball(self, tiny_system, key_space):
        """After a drift-aware migration the detector watches the widened
        radius the replacement tuning was solved for."""
        expected = Workload(0.32, 0.32, 0.32, 0.04)
        config = OnlineConfig(
            window=150, check_interval=32, min_observations=64,
            cooldown=256, confirm_checks=2, rho=0.5, mode="robust",
            horizon_ops=50_000, rho_adaptive=True,
        )
        controller = _controller(tiny_system, key_space, config, expected)
        assert controller.detector.threshold == pytest.approx(0.5)
        trace = TraceGenerator(key_space, seed=9)
        # A cyclic warm phase *inside* the region: the estimate swings between
        # the two mixes, so the KL trajectory disperses without firing.
        near = Workload(0.30, 0.34, 0.30, 0.06)
        swung = Workload(0.50, 0.30, 0.15, 0.05)
        for burst in range(8):
            mix = near if burst % 2 else swung
            controller.execute(trace.operations(mix, 150))
        assert controller.num_migrations == 0
        assert controller.detector.volatility() > 0.0
        # Now the drift: the widened radius is what the re-tuner solves for
        # and what the detector watches afterwards.
        controller.execute(trace.operations(Workload(0.0, 0.0, 0.0, 1.0), 1_500))
        migrated = [e for e in controller.events if e.migrated]
        assert migrated
        assert migrated[0].decision.rho > 0.5
        assert controller.detector.threshold == pytest.approx(
            migrated[0].decision.rho
        )


class TestOnlineConfig:
    def test_threshold_defaults_to_rho(self):
        config = OnlineConfig(rho=0.75)
        assert config.drift_threshold == 0.75

    def test_explicit_threshold_wins(self):
        config = OnlineConfig(rho=0.75, threshold=2.0)
        assert config.drift_threshold == 2.0

    def test_rejects_bad_check_interval(self):
        with pytest.raises(ValueError):
            OnlineConfig(check_interval=0)

    def test_rejects_unknown_migration_mode(self):
        with pytest.raises(ValueError):
            OnlineConfig(migration="lazy")

    def test_rejects_bad_migration_step_knobs(self):
        with pytest.raises(ValueError):
            OnlineConfig(migration_step_ops=0)
        with pytest.raises(ValueError):
            OnlineConfig(migration_step_pages=0)

    def test_rejects_rho_adaptive_outside_robust_mode(self):
        with pytest.raises(ValueError):
            OnlineConfig(mode="nominal", rho_adaptive=True)
        # The default mode is robust, so adaptivity alone is fine.
        assert OnlineConfig(rho_adaptive=True).rho_adaptive

    def test_large_rho_does_not_trip_the_adaptive_cap(self, tiny_system):
        """A radius above the default cap must not crash (the cap bounds the
        widening, never the configured radius itself)."""
        config = OnlineConfig(mode="robust", rho=5.0, rho_adaptive=True)
        tuner = AdaptiveTuner(tiny_system, config)
        assert tuner.effective_rho(0.0) == 5.0
        assert tuner.effective_rho(10.0) == 5.0  # cap clamped up to rho
