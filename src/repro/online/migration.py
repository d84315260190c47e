"""Incremental, level-by-level migration of a live LSM tree.

The full migration of :class:`~repro.online.controller.OnlineLSMController`
reads every resident page and rewrites the whole tree in one shot — an I/O
spike proportional to the database size, concentrated in whichever session
the drift detector happened to fire in.  A :class:`MigrationPlan` replaces
that with a sequence of bounded steps:

1. the plan derives its checkpoint from the *source* tree itself: the live
   keys of its buffer and runs, consolidated newest first with tombstones
   resolved, exactly like a full compaction, and read without charging a
   page.  The *target* tree's bulk-load placements are computed for it via
   :meth:`~repro.storage.lsm_tree.LSMTree.plan_bulk_load` — the same
   placements a fresh bulk load would install, so the finished migration is
   byte-identical to rebuilding from scratch;
2. the placements are cut into steps of at most ``max_step_pages`` pages;
   each executed step charges its tranche of reads (a proportional share of
   the source's resident pages, allocated so the steps sum *exactly* to the
   full migration's read cost) and writes (the tranche's pages of the run
   under construction) to the shared virtual disk as compaction traffic, and
   the step completing a run installs it into the target;
3. between steps the pair serves the live stream in a *mixed state*: writes
   land in the target (it survives the migration), point and range reads
   consult the target first and fall back to the frozen source, with the
   target's tombstones shadowing the source snapshot;
4. the final step verifies the **checkpoint-equality invariant** — the
   migrated placements, re-assembled, must equal the checkpoint snapshot
   key-for-key — and raises :class:`MigrationInvariantError` otherwise, so a
   planning bug can never silently lose or duplicate data.

A plan is resumable: an interrupted migration (e.g. the operator pausing it,
or drift firing mid-flight and the controller electing to finish later)
leaves a queryable mixed state, and ``run_next_step`` continues from where it
stopped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..storage.lsm_tree import BufferFirstReads, LSMTree
from ..storage.run import consolidate_versions


class MigrationInvariantError(RuntimeError):
    """The migrated placements do not reproduce the checkpoint snapshot."""


def _live_keys(tree: LSMTree) -> np.ndarray:
    """All live keys of ``tree`` (memtable + runs), tombstones resolved.

    Versions are consolidated newest first exactly like a full compaction
    (via :func:`~repro.storage.run.consolidate_versions`): a tombstone in a
    recent run *shadows* older live versions of its key in deeper runs, so
    deleted keys are not resurrected by the rebuild.  ``levels`` runs shallow
    to deep with each level's runs most recent first, the recency order
    consolidation expects; run contents are read through ``entries()``,
    which a run answers wherever its store keeps it.
    """
    parts = [tree.memtable.sorted_items()]
    parts += [run.entries() for runs in tree.levels for run in runs]
    keys, _ = consolidate_versions(*zip(*parts), drop_tombstones=True)
    return keys.copy()


@dataclass(frozen=True)
class MigrationStep:
    """One bounded tranche of an incremental migration."""

    #: Position of the step within the plan.
    index: int
    #: Target-tree disk level the tranche belongs to.
    level: int
    #: Half-open entry range of the target run this step moves.
    start: int
    stop: int
    #: Source pages read by this step (the tranche's share of the snapshot).
    read_pages: int
    #: Target pages written by this step.
    write_pages: int
    #: Whether this step completes its run (the run is installed).
    installs_run: bool


class MigrationPlan(BufferFirstReads):
    """A resumable, step-bounded rebuild of ``source`` under ``target``'s tuning.

    Parameters
    ----------
    source:
        The live tree being migrated away from.  It is *frozen* for writes
        once the plan exists (the controller routes them to the target) but
        keeps serving reads of not-yet-shadowed keys.
    target:
        A freshly constructed, empty tree under the new tuning, sharing the
        source's virtual disk so every step's I/O lands on the measured
        stream.
    max_step_pages:
        Upper bound on the pages written per step; ``None`` migrates one
        whole run per step (a level-by-level migration in the classic sense).
    """

    def __init__(
        self, source: LSMTree, target: LSMTree, max_step_pages: int | None = None
    ) -> None:
        if source.disk is not target.disk:
            raise ValueError("source and target must share one virtual disk")
        if max_step_pages is not None and max_step_pages <= 0:
            raise ValueError("max_step_pages must be positive")
        self.source = source
        self.target = target
        #: The source's live keys at planning time (sorted, unique).
        self.checkpoint_keys = _live_keys(source)
        bulk_plan = target.plan_bulk_load(self.checkpoint_keys)
        self._placements = bulk_plan.placements
        self._leftover = bulk_plan.leftover
        target._ensure_level(bulk_plan.deepest)
        # Levels are structure: committed now, a target on files reopens with
        # them even when the plan installs no run (an empty checkpoint).
        target.store.commit(target.levels, target._run_counter, buffered=None)
        self.steps = self._cut_steps(bulk_plan, max_step_pages)
        self._cursor = 0
        self._installed_runs = 0
        #: Keys written/deleted through the mixed state; a leftover checkpoint
        #: key that was overwritten mid-migration must not be replayed over
        #: the newer version at finalisation.
        self._dirty_keys: set[int] = set()
        source.preserve_tombstones = True
        target.preserve_tombstones = True

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _cut_steps(self, bulk_plan, max_step_pages) -> tuple[MigrationStep, ...]:
        """Cut the bulk-load placements into page-bounded migration steps.

        Write pages are allocated by cumulative page boundaries within each
        run and read pages by cumulative share of the source's resident
        pages, so the step columns sum exactly to the full migration's
        totals — incremental migration moves the same I/O, just spread out.
        """
        entries_per_page = self.target.entries_per_page
        total_entries = bulk_plan.num_entries
        total_read = self.source.resident_pages
        steps: list[MigrationStep] = []
        moved = 0

        def read_share(upto: int) -> int:
            if total_entries == 0:
                return 0
            return int(round(total_read * (upto / total_entries)))

        for level, piece in bulk_plan.placements:
            step_entries = (
                piece.size
                if max_step_pages is None
                else max(1, max_step_pages * entries_per_page)
            )
            start = 0
            while True:
                stop = min(start + step_entries, int(piece.size))
                write_pages = int(
                    np.ceil(stop / entries_per_page) - np.ceil(start / entries_per_page)
                )
                moved_after = moved + (stop - start)
                steps.append(
                    MigrationStep(
                        index=len(steps),
                        level=level,
                        start=start,
                        stop=stop,
                        read_pages=read_share(moved_after) - read_share(moved),
                        write_pages=write_pages,
                        installs_run=stop >= piece.size,
                    )
                )
                moved = moved_after
                start = stop
                if start >= piece.size:
                    break
        if total_entries == 0 and total_read > 0 and steps:
            # A checkpoint with no placeable entries still reads the source.
            last = steps[-1]
            steps[-1] = MigrationStep(
                index=last.index,
                level=last.level,
                start=last.start,
                stop=last.stop,
                read_pages=total_read,
                write_pages=last.write_pages,
                installs_run=last.installs_run,
            )
        if not steps:
            # An empty checkpoint (every key deleted) still needs one step:
            # it charges the read of the source's resident (tombstone) pages
            # and, crucially, drives the plan through finalisation — which
            # releases the tombstone hold and checks the invariant.
            steps.append(
                MigrationStep(
                    index=0,
                    level=1,
                    start=0,
                    stop=0,
                    read_pages=total_read,
                    write_pages=0,
                    installs_run=False,
                )
            )
        return tuple(steps)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Number of steps the plan executes in total."""
        return len(self.steps)

    @property
    def steps_completed(self) -> int:
        """Number of steps executed so far."""
        return self._cursor

    @property
    def completed(self) -> bool:
        """Whether every step has been executed."""
        return self._cursor >= len(self.steps)

    @property
    def total_read_pages(self) -> int:
        """Source pages the whole plan reads (equals the full migration's)."""
        return sum(step.read_pages for step in self.steps)

    @property
    def total_write_pages(self) -> int:
        """Target pages the whole plan writes (equals the full migration's)."""
        return sum(step.write_pages for step in self.steps)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_next_step(self) -> MigrationStep | None:
        """Execute the next step, charging its I/O; ``None`` when done.

        The final step verifies the checkpoint-equality invariant and
        releases the target's tombstone hold.
        """
        if self.completed:
            return None
        step = self.steps[self._cursor]
        disk = self.target.disk
        if step.read_pages:
            disk.read_pages(step.read_pages, compaction=True)
        if step.write_pages:
            disk.write_pages(step.write_pages, compaction=True)
        if step.installs_run:
            level, piece = self._placements[self._installed_runs]
            self.target.install_bulk_run(self._without_dirty(piece), level)
            self._installed_runs += 1
        self._cursor += 1
        if self.completed:
            self._finalise()
        return step

    def run_to_completion(self) -> int:
        """Execute every remaining step; returns how many were run."""
        executed = 0
        while self.run_next_step() is not None:
            executed += 1
        return executed

    def _without_dirty(self, piece: np.ndarray) -> np.ndarray:
        """Drop checkpoint keys the mixed state has since overwritten.

        A key written (or deleted) during the migration has its newest
        version somewhere in the target already — possibly *deeper* than
        this placement's level, if the target's own compactions cascaded it
        down.  Installing the stale checkpoint copy above that version would
        shadow it (``lookup_entry`` stops at the shallowest hit), serving
        stale reads or resurrecting deleted keys; the obsolete copy is
        dropped instead, exactly as the next compaction would have.
        """
        if not self._dirty_keys:
            return piece
        dirty = np.fromiter(
            self._dirty_keys, dtype=np.int64, count=len(self._dirty_keys)
        )
        return piece[~np.isin(piece, dirty)]

    def _finalise(self) -> None:
        """Verify the checkpoint invariant and re-home the leftover keys."""
        migrated = [piece for _, piece in self._placements]
        migrated.append(self._leftover)
        reassembled = (
            np.sort(np.concatenate(migrated))
            if migrated
            else np.empty(0, dtype=np.int64)
        )
        if not np.array_equal(reassembled, self.checkpoint_keys):
            raise MigrationInvariantError(
                f"migrated placements hold {reassembled.size} keys but the "
                f"checkpoint snapshot holds {self.checkpoint_keys.size}; "
                "the plan would lose or duplicate data"
            )
        # Leftover checkpoint keys live in the memtable, exactly as a bulk
        # load homes them — unless the mixed state already wrote a newer
        # version (the checkpoint copy is obsolete then).  Logged first, like
        # any write the target must not lose to a kill; not ``target.put``,
        # which could flush and move counters.
        for key in self._leftover.tolist():
            if key not in self._dirty_keys:
                self.target.store.log(key, False)
                self.target.memtable.put(key)
        self.target.preserve_tombstones = False
        self.source.preserve_tombstones = False

    # ------------------------------------------------------------------
    # Mixed-state serving
    # ------------------------------------------------------------------
    def put(self, key: int) -> None:
        """Insert or update ``key``; lands in the surviving (target) tree."""
        self._dirty_keys.add(int(key))
        self.target.put(key)

    def delete(self, key: int) -> None:
        """Delete ``key``; the target's tombstone shadows the source copy."""
        self._dirty_keys.add(int(key))
        self.target.delete(key)

    # ``get`` & co. are :class:`BufferFirstReads`' over this buffer and these probes.
    @property
    def memtable(self):
        """The buffer a read consults first: the target's, where writes land."""
        return self.target.memtable

    def write_room(self) -> int:
        """Puts that certainly cannot flush the target."""
        return self.target.write_room()

    def probe_runs(self, key: int) -> tuple[bool, bool]:
        """Newest version past the buffer: the target's runs, then the source.

        The target holds everything written since the plan started plus the
        already-migrated placements, so its verdict (live *or* deleted) is
        authoritative; only a key the target has never seen falls back to the
        frozen source snapshot.
        """
        found, tombstone = self.target.probe_runs(key)
        return (True, tombstone) if found else self.source.lookup_entry(key)

    def probe_runs_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`probe_runs`, each side charging exactly the pages
        the per-key scalar path would have."""
        found, tombstone = self.target.probe_runs_many(keys)
        unseen = np.flatnonzero(~found)
        if unseen.size:
            found[unseen], tombstone[unseen] = self.source.lookup_entries(keys[unseen])
        return found, tombstone

    def scan_runs(
        self, start_key: int, end_key: int, buffered: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Versions past the buffer: the target's runs under ``buffered``, then
        the frozen source (each side charging its own pages).  Any version the
        target holds — live or tombstone — shadows the source's copy of the key.
        """
        target = self.target.scan_runs(start_key, end_key, buffered)
        source = self.source.scan_versions(start_key, end_key)
        return consolidate_versions(*zip(target, source))

    def charge_range(self, start_key: int, end_key: int) -> None:
        """The pages :meth:`scan_runs` charges: the target's runs, then the source's."""
        self.target.charge_range(start_key, end_key)
        self.source.charge_range(start_key, end_key)

    def charge_ranges(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Batched :meth:`charge_range`, a batch on each side."""
        self.target.charge_ranges(starts, ends)
        self.source.charge_ranges(starts, ends)
