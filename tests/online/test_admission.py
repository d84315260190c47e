"""Migration-step admission control: the policy and its controller wiring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import ADMISSION_MODES, OnlineConfig, OnlineLSMController
from repro.online.controller import ops_until_step
from repro.storage import LSMTree
from repro.storage.lsm_tree import MAX_BATCH_OPS
from repro.workloads import KeySpace, TraceGenerator, Workload

_SYSTEM = simulator_system(num_entries=4_000)
_KEY_SPACE = KeySpace.build(_SYSTEM.num_entries, seed=3)


def _controller(config, expected, tuning=None):
    tuning = tuning if tuning is not None else LSMTuning(20.0, 8.0, Policy.LEVELING)
    tree = LSMTree(tuning, _SYSTEM)
    tree.bulk_load(_KEY_SPACE.existing)
    tree.disk.reset()
    return OnlineLSMController(tree=tree, expected=expected, config=config)


def _config(mode="fixed", step_ops=256) -> OnlineConfig:
    """A config with this admission mode and step cadence."""
    return OnlineConfig(admission=mode, migration_step_ops=step_ops)


def _admits(config, position, plan_started, last_step) -> bool:
    """Whether a step is admitted at ``position``, checked after each
    operation: the per-position predicate ``ops_until_step`` solves."""
    if config.admission == "fixed":
        return (position - plan_started) % config.migration_step_ops == 0
    return (
        position - last_step >= config.migration_step_ops
        and position % MAX_BATCH_OPS == 0
    )


class TestStepAdmissionPolicy:
    def test_fixed_reproduces_the_historical_cadence(self):
        config = _config(step_ops=64)
        for position in range(1, 400):
            assert ops_until_step(config, position, 7, 0) == (
                64 - (position - 7) % 64
            )

    def test_queue_depth_defers_to_the_window_end(self):
        config = _config("queue-depth", 10)
        # Due by cadence but the window is still being served: deferred to
        # its end, however long ago the last step ran.
        assert ops_until_step(config, 49, 0, 30) == MAX_BATCH_OPS - 49
        assert ops_until_step(config, 10_000, 0, 30) == 3 * MAX_BATCH_OPS - 10_000
        # One operation before the window end: admitted at the next one.
        assert ops_until_step(config, MAX_BATCH_OPS - 1, 0, 30) == 1
        # Not yet due by cadence at the window end: the next window's end.
        end = MAX_BATCH_OPS
        assert ops_until_step(config, end - 4, 0, end - 6) == MAX_BATCH_OPS + 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(admission="asap"),
            dict(migration_step_ops=0),
            dict(admission="Queue-Depth"),
            dict(migration="stepwise"),
            dict(migration_step_pages=0),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            OnlineConfig(**kwargs)

    @given(
        mode=st.sampled_from(ADMISSION_MODES),
        position=st.integers(min_value=0, max_value=20_000),
        started_ago=st.integers(min_value=0, max_value=5_000),
        stepped_ago=st.integers(min_value=0, max_value=5_000),
        step_ops=st.integers(min_value=1, max_value=8_192),
    )
    @settings(max_examples=200, deadline=None)
    def test_ops_until_step_is_the_first_admitting_position(
        self, mode, position, started_ago, stepped_ago, step_ops,
    ):
        """The closed form agrees with stepping one operation at a time.

        This is the contract batched execution relies on: bounding a span by
        ``ops_until_step`` can never jump over an admission the scalar loop
        would have taken, because within a span the position and the elapsed
        count both grow by one per operation.
        """
        config = _config(mode, step_ops)
        plan_started = max(0, position - started_ago)
        last_step = max(0, position - stepped_ago)
        k = ops_until_step(config, position, plan_started, last_step)
        assert k >= 1
        for j in range(1, k):
            assert not _admits(config, position + j, plan_started, last_step)
        assert _admits(config, position + k, plan_started, last_step)


class TestOnlineConfigWiring:
    def test_the_controller_reads_its_config(self):
        controller = _mid_flight_controller(admission="queue-depth")
        assert controller.config.admission == "queue-depth"
        assert controller._ops_until_boundary() == ops_until_step(
            controller.config, controller.position, controller._plan_started,
            controller._last_step_position,
        ) == MAX_BATCH_OPS - controller.position

    def test_default_is_fixed(self):
        config = OnlineConfig()
        assert config.admission == "fixed"
        # The fixed cadence does not read the window.
        assert ops_until_step(config, 100, 0, 0) == 156

    def test_rejects_unknown_admission_at_construction(self):
        with pytest.raises(ValueError):
            OnlineConfig(admission="eager")


_PLAN_KWARGS = dict(
    window=150,
    check_interval=32,
    min_observations=64,
    cooldown=100_000,
    confirm_checks=1,
    rho=0.25,
    mode="nominal",
    horizon_ops=100_000,
    migration="incremental",
    migration_step_ops=64,
    migration_step_pages=8,
)


def _mid_flight_controller(**admission_kwargs):
    """Drive a controller until an incremental plan is in flight."""
    expected = Workload(0.49, 0.49, 0.01, 0.01)
    config = OnlineConfig(**{**_PLAN_KWARGS, **admission_kwargs})
    controller = _controller(config, expected)
    trace = TraceGenerator(_KEY_SPACE, seed=9)
    for operation in trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 2_000):
        controller.apply(operation)
        if controller.migration_plan is not None:
            return controller
    raise AssertionError("no migration started")


class TestControllerAdmission:
    def test_note_idle_is_a_no_op_under_fixed(self):
        controller = _mid_flight_controller(admission="fixed")
        before = controller.migration_plan.steps_completed
        controller.note_idle()
        assert controller.migration_plan.steps_completed == before

    def test_note_idle_without_a_plan_is_harmless(self):
        controller = _controller(
            OnlineConfig(**_PLAN_KWARGS, admission="queue-depth"),
            Workload(0.49, 0.49, 0.01, 0.01),
        )
        tree, counters = controller.tree, controller.tree.disk.snapshot()
        controller.note_idle()
        assert controller.migration_plan is None
        assert controller.tree is tree
        assert controller.num_migrations == 0
        assert controller.tree.disk.counters == counters

    def test_note_idle_drains_steps_under_queue_depth(self):
        """A lull finishes the whole in-flight plan, not a few of its steps."""
        controller = _mid_flight_controller(admission="queue-depth")
        plan = controller.migration_plan
        assert plan.num_steps - plan.steps_completed > 8
        controller.note_idle()
        assert plan.completed
        assert controller.migration_plan is None
        assert controller.tree is plan.target

    def test_queue_depth_defers_steps_inside_a_busy_window(self):
        """Serving a window, queue-depth admits no step before its end; fixed
        keeps its cadence."""
        results = {}
        for admission in ADMISSION_MODES:
            controller = _mid_flight_controller(admission=admission)
            plan = controller.migration_plan
            before = plan.steps_completed
            trace = TraceGenerator(_KEY_SPACE, seed=31)
            # One big busy chunk that stops one operation short of the window end.
            controller.execute(trace.operations(
                Workload(0.0, 0.0, 1.0, 0.0), MAX_BATCH_OPS - 1 - controller.position
            ))
            results[admission] = plan.steps_completed - before
            if admission == "queue-depth":
                # The window end runs the one due step.
                controller.execute(trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 1))
                assert plan.steps_completed == before + 1
                assert controller._last_step_position == MAX_BATCH_OPS
        assert results["queue-depth"] == 0
        assert results["queue-depth"] < results["fixed"]

    def test_starvation_bound_keeps_the_plan_moving(self):
        """The window end bounds how long a due step waits: however the
        stream is cut into calls, every window end at least one cadence past
        the last step runs exactly one step, and a lull runs the rest."""
        controller, steps, expected = _step_positions(chunk=300, step_ops=64)
        assert steps == expected == [MAX_BATCH_OPS, 2 * MAX_BATCH_OPS, 3 * MAX_BATCH_OPS]
        plan = controller.migration_plan
        controller.execute(TraceGenerator(_KEY_SPACE, seed=5).operations(
            Workload(0.0, 0.0, 1.0, 0.0), 300
        ))
        assert len(steps) == 3
        controller.note_idle()
        assert plan.completed

    @pytest.mark.parametrize("chunk", [10, 700])
    def test_short_chunks_step_at_the_first_window_end_past_the_cadence(self, chunk):
        """A step runs at the first window end at least ``migration_step_ops``
        operations after the last step: with a cadence longer than the rest
        of the plan's first window, its end is skipped."""
        controller, steps, expected = _step_positions(chunk, step_ops=4_050)
        assert steps == expected == [2 * MAX_BATCH_OPS, 3 * MAX_BATCH_OPS]


def _step_positions(chunk, step_ops):
    """Serve three windows' worth of range scans in calls of ``chunk``
    operations on a mid-flight queue-depth controller.  Returns the
    controller, the positions its migration steps ran at, and the positions
    the stream predicate admits."""
    controller = _mid_flight_controller(admission="queue-depth", migration_step_ops=step_ops)
    steps = []
    advance = controller.advance_migration

    def record():
        steps.append(controller.position)
        advance()

    controller.advance_migration = record
    trace = TraceGenerator(_KEY_SPACE, seed=31)
    end = 3 * MAX_BATCH_OPS
    while controller.position < end:
        count = min(chunk, end - controller.position)
        controller.execute(trace.operations(Workload(0.0, 0.0, 1.0, 0.0), count))
    # The plan's first step ran at its start.
    last, expected = controller._plan_started, []
    for position in range(MAX_BATCH_OPS, end + 1, MAX_BATCH_OPS):
        if position - last >= step_ops:
            expected.append(position)
            last = position
    assert controller.migration_plan is not None
    return controller, steps, expected
