"""Admission control for incremental migration steps.

An incremental :class:`~repro.online.migration.MigrationPlan` spreads a
migration's page traffic over the operation stream.  *When* each step is
admitted is a serving-layer policy:

``"fixed"``
    The classic cadence — one step every ``migration_step_ops`` operations
    past the plan's start, regardless of load.  Reorganisation I/O lands
    inside whatever the shard happens to be serving.

``"queue-depth"``
    Backpressure-aware pacing.  A step is admitted only once the shard's
    observed backlog (operations still queued in the chunk being served) has
    drained to ``admission_max_backlog``, so a loaded shard defers
    reorganisation I/O out of its busy window; a starvation bound forces a
    step every ``admission_starvation_ops`` operations so an always-busy shard
    still completes its plan, and an idle shard drains up to
    ``admission_idle_steps`` steps per idle notification.

:class:`StepAdmission` is stateless: callers pass the stream position, the
plan's start position, the position of the last admitted step and the current
backlog, and :meth:`~StepAdmission.ops_until_step` answers, in closed form,
how many operations remain until the next step.  The controller runs that
many operations (one window) and then the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import OnlineConfig

#: Admission policies for incremental migration steps.
ADMISSION_MODES: tuple[str, ...] = ("fixed", "queue-depth")


@dataclass(frozen=True)
class StepAdmission:
    """Decides at which stream positions migration steps are admitted.

    A view of the :class:`~repro.online.config.OnlineConfig` it is given,
    which declares and checks the knobs: ``admission`` (the mode),
    ``migration_step_ops`` (the cadence), ``admission_max_backlog``,
    ``admission_starvation_ops`` and ``admission_idle_steps``.
    """

    config: OnlineConfig

    @property
    def idle_steps(self) -> int:
        """Steps to drain on an idle notification (0 under ``"fixed"``)."""
        config = self.config
        return 0 if config.admission == "fixed" else config.admission_idle_steps

    def ops_until_step(
        self, position: int, plan_started: int, last_step: int, backlog: int
    ) -> int:
        """Operations until the next step is admitted (at least 1).

        ``"fixed"`` admits every ``migration_step_ops`` operations past
        ``plan_started``.  ``"queue-depth"`` admits once ``migration_step_ops``
        operations passed since ``last_step`` *and* the backlog drained to
        ``admission_max_backlog``, or unconditionally at the
        ``admission_starvation_ops`` bound.  The backlog drains by one per
        executed operation, so after ``k`` more operations the elapsed count
        grows by ``k`` and the backlog shrinks by ``k``, and the first
        admitting ``k`` solves in closed form.
        """
        config = self.config
        step_ops = config.migration_step_ops
        if config.admission == "fixed":
            return step_ops - (position - plan_started) % step_ops
        since = position - last_step
        until_starved = config.admission_starvation_ops - since
        until_due = max(step_ops - since, backlog - config.admission_max_backlog)
        return max(1, min(until_starved, until_due))
