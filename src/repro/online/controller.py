"""The online control loop: observe, detect drift, re-tune, migrate.

:class:`OnlineLSMController` wraps a live :class:`~repro.storage.lsm_tree.LSMTree`
and executes the operation stream through it while running the adaptive loop:

1. every executed operation is folded into the rolling
   :class:`~repro.online.observed.ObservedWorkload` estimate,
2. every ``check_interval`` operations the
   :class:`~repro.online.drift.DriftDetector` compares the estimate against
   the region the deployed tuning was computed for,
3. on drift, the :class:`~repro.online.retuner.AdaptiveTuner` solves for the
   best tuning of the observed workload and prices the migration,
4. a justified proposal is applied *in place*: the tree's resident data is
   read out and rebuilt under the new tuning — new size ratio, new
   compaction policy, new Monkey bloom allocation — with every migrated page
   charged to the shared virtual disk as compaction traffic, so adaptivity
   is honestly priced in the measured I/O stream.  In ``full`` mode the
   rebuild happens at the firing (one concentrated spike); in
   ``incremental`` mode a :class:`~repro.online.migration.MigrationPlan`
   spreads the same pages over bounded steps while the mixed old/new state
   keeps serving the stream.

*When* an incremental plan's steps run is the ``admission`` policy, answered
in closed form by :func:`ops_until_step`: ``"fixed"`` runs one every
``migration_step_ops`` operations past the plan's start, wherever the stream
is; ``"queue-depth"`` defers a due step to the end of the stream-aligned
window of :data:`~repro.storage.lsm_tree.MAX_BATCH_OPS` operations being
served, and a serving lull (:meth:`~OnlineLSMController.note_idle`)
finishes the plan, so reorganisation I/O lands between busy windows.  Both
read the stream position alone, so the steps, and every counter after them,
are the same however a caller cuts the stream into calls.

After a migration the detector is re-centred on the workload the new tuning
was computed for, and its cooldown gives the migration time to pay off
before the next drift episode may fire.  With ``rho_adaptive`` enabled the
re-tuner widens its robust radius by the detector's observed KL-trajectory
volatility, so a cyclic workload is tuned once for the whole cycle instead
of migrating back and forth every phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.uncertainty import UncertaintyRegion
from ..lsm.policy import CLASSIC_POLICIES, CompactionPolicy, Policy
from ..lsm.system import SystemConfig
from ..lsm.tuning import LSMTuning
from ..storage.lsm_tree import (
    MAX_BATCH_OPS,
    LSMTree,
    execute_operation,
    execute_operations_batched,
)
from ..workloads.traces import Operation, Trace
from ..workloads.workload import Workload
from .config import OnlineConfig
from .drift import DriftDetector
from .migration import MigrationPlan
from .observed import ObservedWorkload
from .retuner import AdaptiveTuner, RetuningDecision


def ops_until_step(
    config: OnlineConfig, position: int, plan_started: int, last_step: int
) -> int:
    """Operations until the next incremental migration step (at least 1).

    ``"fixed"`` admits every ``migration_step_ops`` operations past
    ``plan_started``.  ``"queue-depth"`` admits once ``migration_step_ops``
    operations have passed since ``last_step`` *and* the stream stands at
    the end of a window of ``MAX_BATCH_OPS`` operations: the answer is the
    first window end at least ``k0`` operations ahead, where ``k0`` is what
    is left of the cadence.
    """
    step_ops = config.migration_step_ops
    if config.admission == "fixed":
        return step_ops - (position - plan_started) % step_ops
    k0 = max(1, step_ops - (position - last_step))
    return k0 + (-(position + k0)) % MAX_BATCH_OPS


@dataclass(frozen=True)
class RetuningEvent:
    """One firing of the drift detector and what came of it."""

    position: int
    divergence: float
    observed: Workload
    decision: RetuningDecision
    migrated: bool
    migration_read_pages: int
    migration_write_pages: int
    #: Steps the migration is spread over (1 for a full rebuild; for an
    #: incremental plan the page totals above are *planned* figures, charged
    #: to the disk step by step as the plan advances).
    migration_steps: int = 1

    @property
    def migration_pages(self) -> int:
        """Total pages moved by the migration (0 when it was declined)."""
        return self.migration_read_pages + self.migration_write_pages

    def to_dict(self) -> dict[str, object]:
        """Serialise to plain JSON-compatible data.

        An infinite divergence (the zero-weight-component escape) maps to
        ``None``: ``json.dumps`` would otherwise emit the non-standard
        ``Infinity`` literal, which strict JSON parsers reject.
        """
        return {
            "position": self.position,
            "divergence": self.divergence if math.isfinite(self.divergence) else None,
            "observed": self.observed.as_dict(),
            "decision": self.decision.to_dict(),
            "migrated": self.migrated,
            "migration_read_pages": self.migration_read_pages,
            "migration_write_pages": self.migration_write_pages,
            "migration_steps": self.migration_steps,
        }


@dataclass
class OnlineLSMController:
    """Drives a live LSM tree and re-tunes it when the workload drifts.

    Parameters
    ----------
    tree:
        The live (already loaded) tree; its virtual disk keeps accounting
        across migrations, so measurement deltas taken around the controller
        see query, compaction *and* migration traffic on one stream.
    expected:
        The nominal workload the initial tuning was computed for; the drift
        detector's region is centred here until the first migration.
    config:
        Online-loop knobs; defaults are reasonable for simulator-scale runs.
    policies:
        Compaction policies re-tunings may deploy (enum members, strings,
        or explicit :class:`~repro.lsm.policy.CompactionPolicy` values —
        including per-level bound vectors).
    system:
        System configuration; defaults to the tree's own.
    """

    tree: LSMTree
    expected: Workload
    config: OnlineConfig = field(default_factory=OnlineConfig)
    policies: Sequence[Policy | str | CompactionPolicy] = CLASSIC_POLICIES
    system: SystemConfig | None = None

    def __post_init__(self) -> None:
        if self.system is None:
            self.system = self.tree.system
        self.disk = self.tree.disk
        self.estimator = ObservedWorkload(self.config.window)
        self.detector = DriftDetector(
            UncertaintyRegion(expected=self.expected, rho=self.config.drift_threshold),
            self.config,
        )
        self.retuner = AdaptiveTuner(self.system, self.config, self.policies)
        self.position = 0
        self.events: list[RetuningEvent] = []
        self._plan: MigrationPlan | None = None
        self._plan_started = 0
        self._last_step_position = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tuning(self) -> LSMTuning:
        """The tuning currently deployed on the live tree."""
        return self.tree.tuning

    @property
    def num_migrations(self) -> int:
        """Number of migrations applied so far."""
        return sum(1 for event in self.events if event.migrated)

    @property
    def migration_plan(self) -> MigrationPlan | None:
        """The active incremental migration plan, if any."""
        return self._plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def apply(self, operation: Operation) -> None:
        """Execute one operation on the live tree and run the adaptive loop.

        While an incremental migration plan is in flight the operation is
        served by the mixed old/new state, the plan advances one step every
        ``migration_step_ops`` operations, and drift checks are suspended —
        the detector's cooldown (armed at the firing) is meanwhile running,
        and the estimator keeps observing, so the loop resumes with a warm
        window once the plan completes.
        """
        due = self._ops_until_boundary()
        execute_operation(self._engine, operation)
        self.estimator.record_kind(operation.kind)
        self._advance(1, due)

    @property
    def _engine(self) -> LSMTree | MigrationPlan:
        """What serves the stream: the mixed state while a plan is in flight."""
        return self._plan if self._plan is not None else self.tree

    def _advance(self, count: int, due: int) -> None:
        """Account for ``count`` executed operations of a window that was
        ``due`` operations from the next boundary, then run the boundary
        work — the admitted migration step, or the drift check — if the
        window reached it."""
        self.position += count
        if count < due:
            return
        if self._plan is not None:
            self.advance_migration()
        else:
            self.maybe_retune()

    def execute(self, operations: Iterable[Operation]) -> None:
        """Execute a stream one operation at a time through :meth:`apply`.

        The per-operation reference of :meth:`execute_batched`.  Admission
        reads the stream position, not the call, so any cut of a stream into
        calls replays it as one call would.
        """
        for operation in operations:
            self.apply(operation)

    def note_idle(self) -> None:
        """Signal a serving lull: drain the deferred migration steps.

        Under ``admission="queue-depth"`` an idle shard finishes its in-flight
        plan immediately, without waiting for the end of the current window —
        reorganisation I/O lands in the lull instead of the next busy window.
        Under ``admission="fixed"`` this is a no-op, preserving the classic
        cadence bit-for-bit.
        """
        if self.config.admission != "fixed":
            self.finish_migration()

    def _ops_until_boundary(self) -> int:
        """Operations until the next adaptive-loop boundary (at least 1).

        While a migration plan is in flight the boundary is its next admitted
        step (the admission policy's closed form, :func:`ops_until_step`);
        otherwise it is the next drift check (``check_interval``).  Neither
        depends on the kinds of the operations in between, so a window of the
        stream that ends at the boundary can be replayed in one go: the
        engine it runs on cannot change before the boundary work does.
        """
        if self._plan is not None:
            return ops_until_step(
                self.config, self.position, self._plan_started, self._last_step_position
            )
        interval = self.config.check_interval
        return interval - self.position % interval

    def execute_batched(self, trace: Trace, max_batch_ops: int = MAX_BATCH_OPS) -> None:
        """Execute a trace through the adaptive loop, one window at a time.

        The trace is cut into windows that end at the next adaptive-loop
        boundary; each window replays through
        :func:`~repro.storage.lsm_tree.execute_operations_batched` on the
        current engine — the live tree, or the mixed migration state while a
        plan is in flight — and is folded into the estimator in stream order
        before the boundary work runs.  The detector therefore fires at the
        same stream positions, migrations start and advance at the same
        operations, and the estimator holds the same floats as under the
        per-operation :meth:`execute`.
        """
        total = len(trace)
        start = 0
        while start < total:
            due = self._ops_until_boundary()
            stop = min(start + due, total)
            window = trace[start:stop]
            execute_operations_batched(self._engine, window, max_batch_ops)
            self.estimator.record_batch(window)
            self._advance(stop - start, due)
            start = stop

    # ------------------------------------------------------------------
    # Adaptive loop
    # ------------------------------------------------------------------
    def maybe_retune(self) -> RetuningEvent | None:
        """Run one drift check; re-tune and possibly migrate when it fires.

        The operation stream only reveals the four query-type proportions;
        the short/long range split is a property of the range queries the
        deployment was configured for, so the expected workload's
        ``long_range_fraction`` is carried onto the observed estimate before
        pricing — otherwise a re-tuning could migrate to a design (e.g. a
        multi-run largest level) the long-range regime penalises.
        """
        if self._plan is not None:
            # An in-flight migration plan owns the tree; drift checks resume
            # once it completes (the cooldown armed at its firing still runs).
            return None
        observed = self.estimator.workload()
        if observed is not None and self.expected.long_range_fraction > 0.0:
            observed = observed.with_long_range_fraction(
                self.expected.long_range_fraction
            )
        check = self.detector.check(
            observed, self.position, self.estimator.observations
        )
        if not check.fired:
            return None
        decision = self.retuner.retune(
            observed,
            self.tree.tuning,
            self.tree.resident_pages,
            volatility=self.detector.volatility(),
        )
        migrated = decision.justified and decision.proposed != self.tree.tuning
        read_pages, write_pages, steps = 0, 0, 1
        if migrated:
            read_pages, write_pages, steps = self._migrate(decision.proposed)
            # The new tuning is nominal for the workload it was computed on:
            # watch for the *next* drift relative to that, with fresh cooldown.
            # A drift-aware re-tuning solved for a widened radius; the
            # detector watches the ball the new tuning actually covers
            # (unless an explicit threshold overrides the coupling).
            new_rho = None
            if self.config.rho_adaptive and self.config.threshold is None:
                new_rho = decision.rho
            self.detector.recenter(observed, self.position, rho=new_rho)
        event = RetuningEvent(
            position=self.position,
            divergence=check.divergence,
            observed=observed,
            decision=decision,
            migrated=migrated,
            migration_read_pages=read_pages,
            migration_write_pages=write_pages,
            migration_steps=steps,
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _replacement_tree(self, new_tuning: LSMTuning) -> LSMTree:
        """An empty tree under ``new_tuning`` sharing the live disk.

        Built through the live tree's ``successor`` factory, so the
        replacement lives on a sibling of the same run store (a tree on
        files migrates to a tree on files).
        """
        return self.tree.successor(
            new_tuning,
            seed=self.tree._seed + self.tree._run_counter + 1,
        )

    def _migrate(self, new_tuning: LSMTuning) -> tuple[int, int, int]:
        """Migrate the live tree to ``new_tuning`` through a level-by-level plan.

        Every resident page of the old tree is read and every run page of the
        rebuilt tree is written, both recorded as compaction traffic on the
        shared virtual disk — the migration is part of the measured stream,
        not free.  Buffered (memtable) entries move without I/O, as they
        would in a real engine where the write buffer lives in RAM.

        A ``full`` migration is the plan drained at the firing, reported as
        one step: it was applied in one go.  An ``incremental`` one runs its
        first step at the firing (the migration makes observable progress
        immediately) and the rest every ``migration_step_ops`` operations
        from :meth:`apply`.  Returns the pages read and written — planned
        figures, identical for both modes — and the step count.
        """
        incremental = self.config.migration == "incremental"
        plan = self._plan = MigrationPlan(
            self.tree,
            self._replacement_tree(new_tuning),
            max_step_pages=self.config.migration_step_pages if incremental else None,
        )
        self._plan_started = self._last_step_position = self.position
        if incremental:
            plan.run_next_step()
        else:
            plan.run_to_completion()
        self._maybe_finish_migration()
        steps = plan.num_steps if incremental else 1
        return plan.total_read_pages, plan.total_write_pages, steps

    def advance_migration(self) -> None:
        """Run the next step of the active plan (no-op without one)."""
        if self._plan is None:
            return
        self._last_step_position = self.position
        self._plan.run_next_step()
        self._maybe_finish_migration()

    def finish_migration(self) -> None:
        """Drain every remaining step of the active plan (no-op without one)."""
        if self._plan is None:
            return
        self._plan.run_to_completion()
        self._maybe_finish_migration()

    def _maybe_finish_migration(self) -> None:
        if self._plan is not None and self._plan.completed:
            replaced = self.tree
            self.tree = self._plan.target
            self._plan = None
            # Every live entry now resides in the target; the source tree's
            # backend storage is garbage.
            replaced.dispose()
