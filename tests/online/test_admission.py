"""Migration-step admission control: the policy and its controller wiring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import ADMISSION_MODES, OnlineConfig, OnlineLSMController, StepAdmission
from repro.storage import LSMTree
from repro.workloads import KeySpace, TraceGenerator, Workload

_SYSTEM = simulator_system(num_entries=4_000)
_KEY_SPACE = KeySpace.build(_SYSTEM.num_entries, seed=3)


def _controller(config, expected, tuning=None):
    tuning = tuning if tuning is not None else LSMTuning(20.0, 8.0, Policy.LEVELING)
    tree = LSMTree(tuning, _SYSTEM)
    tree.bulk_load(_KEY_SPACE.existing)
    tree.disk.reset()
    return OnlineLSMController(tree=tree, expected=expected, config=config)


def _admission(mode="fixed", step_ops=256, **knobs) -> StepAdmission:
    """The policy a config with these admission knobs describes."""
    return StepAdmission(
        OnlineConfig(admission=mode, migration_step_ops=step_ops, **knobs)
    )


def _admits(admission, position, plan_started, last_step, backlog) -> bool:
    """Whether a step is admitted at ``position``, checked after each
    operation: the per-position predicate ``ops_until_step`` solves."""
    config = admission.config
    if config.admission == "fixed":
        return (position - plan_started) % config.migration_step_ops == 0
    since = position - last_step
    if since >= config.admission_starvation_ops:
        return True
    return since >= config.migration_step_ops and backlog <= config.admission_max_backlog


class TestStepAdmissionPolicy:
    def test_fixed_reproduces_the_historical_cadence(self):
        admission = _admission(step_ops=64)
        for position in range(1, 400):
            assert admission.ops_until_step(position, 7, 0, backlog=10**6) == (
                64 - (position - 7) % 64
            )

    def test_queue_depth_defers_while_the_backlog_is_deep(self):
        admission = _admission(
            "queue-depth", 10, admission_max_backlog=5, admission_starvation_ops=100
        )
        # Due by cadence but the queue is deep: deferred until it drains.
        assert admission.ops_until_step(49, 0, 30, backlog=500) == 81
        # Queue drained: admitted at the next operation.
        assert admission.ops_until_step(49, 0, 30, backlog=6) == 1
        # Not yet due by cadence even when idle.
        assert admission.ops_until_step(34, 0, 30, backlog=0) == 6
        # Starvation bound overrides any backlog.
        assert admission.ops_until_step(129, 0, 30, backlog=10**9) == 1

    def test_idle_steps_only_under_queue_depth(self):
        assert _admission(admission_idle_steps=8).idle_steps == 0
        assert _admission("queue-depth", admission_idle_steps=3).idle_steps == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(admission="asap"),
            dict(migration_step_ops=0),
            dict(admission_max_backlog=-1),
            dict(admission_idle_steps=-1),
            dict(admission="queue-depth", migration_step_ops=100, admission_starvation_ops=50),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            OnlineConfig(**kwargs)

    def test_starvation_rule_names_the_fields(self):
        with pytest.raises(ValueError, match=(
            "admission_starvation_ops must be at least migration_step_ops"
        )):
            OnlineConfig(
                admission="queue-depth", migration_step_ops=100, admission_starvation_ops=50
            )

    def test_fixed_mode_tolerates_small_starvation_bound(self):
        # Pre-existing fixed configs with huge migration_step_ops must not
        # start raising because the (unused) starvation default is smaller.
        OnlineConfig(migration_step_ops=10_000, admission_starvation_ops=4_096)

    @given(
        mode=st.sampled_from(ADMISSION_MODES),
        position=st.integers(min_value=0, max_value=5_000),
        started_ago=st.integers(min_value=0, max_value=5_000),
        stepped_ago=st.integers(min_value=0, max_value=5_000),
        backlog=st.integers(min_value=0, max_value=10_000),
        step_ops=st.integers(min_value=1, max_value=512),
        max_backlog=st.integers(min_value=0, max_value=512),
        slack=st.integers(min_value=0, max_value=4_096),
    )
    @settings(max_examples=200, deadline=None)
    def test_ops_until_step_is_the_first_admitting_position(
        self, mode, position, started_ago, stepped_ago, backlog,
        step_ops, max_backlog, slack,
    ):
        """The closed form agrees with stepping one operation at a time.

        This is the contract batched execution relies on: bounding a span by
        ``ops_until_step`` can never jump over an admission the scalar loop
        would have taken, because within a span the backlog drains by one per
        operation and the elapsed count grows by one.
        """
        admission = _admission(
            mode, step_ops, admission_max_backlog=max_backlog,
            admission_starvation_ops=step_ops + slack,
        )
        plan_started = max(0, position - started_ago)
        last_step = max(0, position - stepped_ago)
        k = admission.ops_until_step(position, plan_started, last_step, backlog)
        assert k >= 1
        for j in range(1, k):
            assert not _admits(
                admission, position + j, plan_started, last_step, max(0, backlog - j)
            )
        assert _admits(admission, position + k, plan_started, last_step, max(0, backlog - k))


class TestOnlineConfigWiring:
    def test_the_controller_reads_its_config(self):
        config = OnlineConfig(
            migration="incremental", migration_step_ops=128,
            admission="queue-depth", admission_max_backlog=32,
            admission_starvation_ops=999, admission_idle_steps=2,
        )
        controller = _controller(config, Workload(0.25, 0.25, 0.25, 0.25))
        assert controller.admission.config is config
        assert controller.admission.idle_steps == 2

    def test_default_is_fixed(self):
        assert OnlineConfig().admission == "fixed"
        assert StepAdmission(OnlineConfig()).idle_steps == 0

    def test_rejects_unknown_admission_at_construction(self):
        with pytest.raises(ValueError):
            OnlineConfig(admission="eager")

    def test_rejects_starving_faster_than_the_cadence(self):
        with pytest.raises(ValueError):
            OnlineConfig(
                admission="queue-depth", migration_step_ops=512,
                admission_starvation_ops=256,
            )


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

    def test_note_idle_drains_steps_under_queue_depth(self):
        controller = _mid_flight_controller(
            admission="queue-depth", admission_idle_steps=2,
        )
        plan = controller.migration_plan
        before = plan.steps_completed
        controller.note_idle()
        drained = (
            plan.num_steps if plan.completed else plan.steps_completed
        ) - before
        assert 0 < drained <= 2

    def test_queue_depth_defers_steps_inside_a_busy_chunk(self):
        """Serving a deep queue, queue-depth admits fewer steps than fixed."""
        results = {}
        for admission in ADMISSION_MODES:
            controller = _mid_flight_controller(
                admission=admission, admission_max_backlog=0,
                admission_starvation_ops=100_000,
            )
            trace = TraceGenerator(_KEY_SPACE, seed=31)
            # One big busy chunk: the backlog stays deep almost throughout.
            controller.execute(
                trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 1_500)
            )
            plan = controller.migration_plan
            results[admission] = (
                plan.num_steps if plan is None or plan.completed
                else plan.steps_completed
            )
        assert results["queue-depth"] < results["fixed"]

    def test_starvation_bound_keeps_the_plan_moving(self):
        controller = _mid_flight_controller(
            admission="queue-depth", admission_max_backlog=0,
            admission_starvation_ops=_PLAN_KWARGS["migration_step_ops"],
        )
        before = controller.migration_plan.steps_completed
        trace = TraceGenerator(_KEY_SPACE, seed=31)
        controller.execute(
            trace.operations(Workload(0.0, 0.0, 1.0, 0.0), 1_500)
        )
        plan = controller.migration_plan
        after = plan.num_steps if plan is None or plan.completed else plan.steps_completed
        assert after > before
