"""One stateful oracle machine drives every engine at once.

A hypothesis ``RuleBasedStateMachine`` loads one drawn tuning into four
engines and a Python ``set`` of the live keys, then runs random rules against
all of them in lockstep:

* ``LSMTree`` on a ``MemoryStore`` and on a ``FileStore``, driven through the
  scalar calls (``put`` / ``get`` / ``get_many`` / ``range_query``);
* a memory twin fed only through ``execute_operations_batched`` at a drawn
  ``max_batch_ops`` and a drawn ``WIDE_WINDOW_OPS``, so its flush-free windows
  take the per-row body or the array pass;
* a fleet of one or three memory trees, loaded with ``partition_keys`` and
  routed by ``shard_of_key`` (scalar calls) or ``shard_operations`` (traces).

Keys cover the whole ``int64`` range, both ends of it always loaded, with a
dense band where updates, misses and ranges collide.  Rules write,
read, replay short mixed traces, write bursts deep enough to cascade into the
deepest level, kill and reopen the file tree, and migrate every engine to a
drawn tuning one step at a time; mid-migration, one rule overwrites a key a
placement not yet installed holds, flushes the newer version out of the
target's buffer and steps the plan until that placement is installed, after
which the target must hold the newer version only.  After every rule each
answer, and each engine's contents read without I/O, have matched the
oracle; the memory, file and batched engines have equal disk counters,
shapes and fingerprints (source and target apart mid-migration); a one-shard
fleet equals the memory tree; a shard's part of a trace is what
``shard_of_key`` routes to it; and every engine holds at least one entry per
key and at most one per write.
Teardown leaves no file and no open descriptor behind.  The machine does not
shrink what it fails on: a real engine bug fails many rule sequences, and
shrinking each one for minutes makes a failing run look hung.  The unshrunk
sequence is printed, and ``.hypothesis/`` replays it.  Two sequences
it once failed on stay below it as plain tests.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.lsm import CompactionPolicy, LSMTuning, Policy, simulator_system
from repro.online import MigrationPlan
from repro.serving.sharding import partition_keys, shard_ids, shard_of_key, shard_operations
from repro.storage import FileStore, LSMTree, lsm_tree
from repro.storage.executor import tree_fingerprint
from repro.storage.lsm_tree import WIDE_WINDOW_OPS, execute_operations_batched
from repro.storage.run import consolidate_versions
from repro.workloads import Operation, OperationType, Trace

#: Seven-entry buffers: a few puts flush, a burst reaches the deepest level.
_SYSTEM = simulator_system(num_entries=600)
#: Every registered policy, including a per-level K_i bound vector.
_TUNINGS = [
    LSMTuning(8.0, 6.0, Policy.LEVELING),
    LSMTuning(5.0, 5.0, Policy.TIERING),
    LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING),
    LSMTuning(6.0, 6.0, Policy.ONE_LEVELING),
    LSMTuning(5.0, 5.0, CompactionPolicy.fluid((3,), 2)),
    LSMTuning(6.0, 6.0, CompactionPolicy.fluid((4.0, 2.0, 1.0), 1.0)),
]
_MIN_KEY, _MAX_KEY = -(2**63), 2**63 - 1
#: Width of the dense band the bulk load fills.
_BAND = 2**16
#: A key the machine has used, one in the band, or any ``int64``.  A used key
#: is drawn by its rank from either end: small ranks are the keys a bulk load
#: puts in its shallowest and in its deepest level.
_KNOWN = st.tuples(st.just("known"), st.integers(-(2**16), 2**16))
_KEY = st.one_of(
    _KNOWN,
    st.tuples(st.just("band"), st.integers(0, _BAND)),
    st.tuples(st.just("any"), st.integers(_MIN_KEY, _MAX_KEY)),
)
#: A trace's scan lengths are ``int32``; one from the top key ends past it.
_LENGTH = st.integers(0, 2**31 - 1)
_KINDS = st.sampled_from(list(OperationType))


def _trees(engine) -> list[LSMTree]:
    """The trees behind an engine: a plan's target, then its source."""
    return [engine.target, engine.source] if isinstance(engine, MigrationPlan) else [engine]


def _live_keys(engine) -> np.ndarray:
    """What an engine holds, each key once — read without charging a page (a
    migration's checkpoint)."""
    parts = []
    for tree in _trees(engine):
        parts.append(tree.memtable.sorted_items())
        parts += [run.keys for runs in tree.levels for run in runs]
    return consolidate_versions(parts).copy()


def _versions(tree: LSMTree) -> np.ndarray:
    """Every key version a tree holds, buffered or in a run, one per copy."""
    return np.concatenate(
        [tree.memtable.sorted_items()] + [run.keys for runs in tree.levels for run in runs]
    )


def _descriptors_under(directory: Path) -> list[str]:
    """Targets of this process's open descriptors inside ``directory``."""
    targets = []
    for entry in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:  # the descriptor of the listing itself
            continue
        if target.startswith(str(directory)):
            targets.append(target)
    return targets


class EngineMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="machine-"))
        #: Engine name -> its shards (one, but for the fleet): trees or plans.
        self.engines: dict[str, list] = {}

    @initialize(
        tuning=st.sampled_from(_TUNINGS),
        size=st.integers(0, 1_000),
        base=st.integers(_MIN_KEY, _MAX_KEY - _BAND),
        seed=st.integers(0, 2**32 - 1),
        max_batch_ops=st.sampled_from([1, 3, 4_096]),
        num_shards=st.sampled_from([1, 3]),
        window_ops=st.sampled_from([2, WIDE_WINDOW_OPS]),
    )
    def load(self, tuning, size, base, seed, max_batch_ops, num_shards, window_ops):
        # The window cutoff is a wall-clock choice: the loop's every call in
        # this example, on the twin and the fleet, runs under the drawn one.
        self.windows = mock.patch.object(lsm_tree, "WIDE_WINDOW_OPS", window_ops)
        self.windows.start()
        offsets = np.random.default_rng(seed).choice(_BAND, size=size, replace=False)
        keys = np.unique(np.r_[base + offsets, _MIN_KEY, _MAX_KEY])
        self.base, self.max_batch_ops = base, max_batch_ops
        self.live = set(keys.tolist())
        self.known = list(self.live)
        self.writes = keys.size

        def tree(store=None):
            return LSMTree(tuning, _SYSTEM, seed=9, store=store)

        self.engines = {
            "memory": [tree()],
            "files": [tree(FileStore(self.root / "files"))],
            "batched": [tree()],
            "fleet": [tree() for _ in range(num_shards)],
        }
        for name, shards in self.engines.items():
            parts = partition_keys(keys, num_shards) if name == "fleet" else [keys]
            for shard, part in zip(shards, parts):
                shard.bulk_load(part)

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _key(self, drawn) -> int:
        how, value = drawn
        if how == "known":
            self.known.sort()
            return self.known[value % len(self.known)]
        return self.base + value if how == "band" else value

    def _singles(self):
        return self.engines["memory"][0], self.engines["files"][0], self.engines["batched"][0]

    @property
    def _fleet(self) -> list:
        return self.engines["fleet"]

    def _owner(self, key: int):
        return self._fleet[shard_of_key(key, len(self._fleet))]

    def _feed_twin(self, trace: Trace) -> None:
        execute_operations_batched(self.engines["batched"][0], trace, self.max_batch_ops)

    def _replay(self, trace: Trace) -> None:
        """The batched twin and the fleet's shards replay ``trace``; a shard's
        part is its own point operations and every range, in stream order."""
        self._feed_twin(trace)
        num_shards = len(self._fleet)
        for shard, engine in enumerate(self._fleet):
            sub = shard_operations(trace, shard, num_shards)
            assert list(sub) == [
                op
                for op in trace
                if op.kind is OperationType.RANGE or shard_of_key(op.key, num_shards) == shard
            ]
            execute_operations_batched(engine, sub, self.max_batch_ops)

    def _count(self, start: int, end: int) -> int:
        return sum(start <= key <= end for key in self.live)

    def _wrote(self, keys) -> None:
        self.live.update(keys)
        self.known += keys
        self.writes += len(keys)

    def _migrating(self) -> bool:
        shards = (shard for shards in self.engines.values() for shard in shards)
        return any(isinstance(shard, MigrationPlan) for shard in shards)

    def _retire_finished_plans(self) -> None:
        for shards in self.engines.values():
            for index, plan in enumerate(shards):
                if isinstance(plan, MigrationPlan) and plan.completed:
                    plan.source.dispose()
                    shards[index] = plan.target

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def _put(self, key: int) -> None:
        memory, files, _ = self._singles()
        for engine in (memory, files, self._owner(key)):
            engine.put(key)
        self._feed_twin(Trace.of([Operation(OperationType.PUT, key)]))
        self._wrote([key])

    def _burst(self, keys: list[int]) -> None:
        memory, files, _ = self._singles()
        for key in keys:
            memory.put(key)
            files.put(key)
        self._replay(Trace.of(Operation(OperationType.PUT, key) for key in keys))
        self._wrote(keys)

    def _fresh(self, rng, count: int, exclude: int | None = None) -> list[int]:
        """Up to ``count`` band keys that are not live (nor ``exclude``)."""
        drawn = (self.base + rng.integers(0, _BAND, size=count)).tolist()
        return [key for key in drawn if key not in self.live and key != exclude]

    @rule(key=_KEY)
    def put(self, key):
        self._put(self._key(key))

    @rule(key=_KEY)
    def get(self, key):
        key = self._key(key)
        memory, files, _ = self._singles()
        assert memory.get(key) == files.get(key) == self._owner(key).get(key) == (key in self.live)
        self._feed_twin(Trace.of([Operation(OperationType.GET, key)]))

    @rule(keys=st.lists(_KEY, max_size=30), repeat=st.integers(0, 5))
    def get_many(self, keys, repeat):
        keys = [self._key(key) for key in keys]
        keys = np.array(keys + keys[:repeat], dtype=np.int64)
        want = np.array([key in self.live for key in keys.tolist()], dtype=bool)
        memory, files, _ = self._singles()
        assert memory.get_many(keys).tolist() == want.tolist()
        assert [files.get(key) for key in keys.tolist()] == want.tolist()
        owners = shard_ids(keys, len(self._fleet))
        for shard, engine in enumerate(self._fleet):
            assert engine.get_many(keys[owners == shard]).tolist() == want[owners == shard].tolist()
        self._feed_twin(Trace.of(Operation(OperationType.GET, key) for key in keys.tolist()))

    @rule(start=_KEY, length=_LENGTH)
    def range(self, start, length):
        start = self._key(start)
        end = start + length
        memory, files, _ = self._singles()
        want = self._count(start, end)
        assert memory.range_query(start, end) == files.range_query(start, end) == want
        assert sum(engine.range_query(start, end) for engine in self._fleet) == want
        self._feed_twin(Trace.of([Operation(OperationType.RANGE, start, length)]))

    @rule(ops=st.lists(st.tuples(_KINDS, _KEY, _LENGTH), max_size=60))
    def replay(self, ops):
        """A mixed trace: row by row on the scalar engines, answers checked at
        each row's position; through the loop on the twin and the fleet."""
        ops = [
            Operation(kind, self._key(key), length if kind is OperationType.RANGE else 0)
            for kind, key, length in ops
        ]
        memory, files, _ = self._singles()
        for kind, key, length in ops:
            if kind is OperationType.PUT:
                memory.put(key)
                files.put(key)
                self._wrote([key])
            elif kind is OperationType.RANGE:
                want = self._count(key, key + length)
                assert memory.range_query(key, key + length) == want
                assert files.range_query(key, key + length) == want
            else:
                assert memory.get(key) == files.get(key) == (key in self.live)
        self._replay(Trace.of(ops))

    @rule(count=st.integers(20, 200), seed=st.integers(0, 2**32 - 1))
    def write_burst(self, count, seed):
        """Fresh puts in the band, enough to cascade into the deepest level."""
        self._burst(self._fresh(np.random.default_rng(seed), count))

    @precondition(lambda self: not self._migrating())
    @rule()
    def crash_reopen(self):
        """Kill the file tree (nothing synced, no plan in flight) and reopen it."""
        files = self.engines["files"][0]
        files.store.abandon()
        self.engines["files"][0] = LSMTree(
            files.tuning,
            _SYSTEM,
            disk=files.disk,
            seed=files._seed,
            store=FileStore(files.store.data_dir),
        )

    @precondition(lambda self: not self._migrating())
    @rule(tuning=st.sampled_from(_TUNINGS), max_step_pages=st.sampled_from([None, 1, 8]))
    def begin_migration(self, tuning, max_step_pages):
        for shards in self.engines.values():
            shards[:] = [
                MigrationPlan(
                    tree,
                    tree.successor(tuning, seed=tree._seed + 1),
                    max_step_pages=max_step_pages,
                )
                for tree in shards
            ]

    @precondition(lambda self: self._migrating())
    @rule()
    def step(self):
        for shards in self.engines.values():
            for plan in shards:
                if isinstance(plan, MigrationPlan):
                    plan.run_next_step()
        self._retire_finished_plans()

    @precondition(lambda self: self._pending_keys().size > 0)
    @rule(rank=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1))
    def overwrite_a_pending_placement(self, rank, seed):
        """Write a key whose checkpoint copy a placement not yet installed
        holds, put fresh keys until the target flushes so the newer version
        sinks out of its buffer, then step the plan until that placement is
        installed.  The copy is stale: the target must hold the newer version
        only, and a copy installed above it would also shadow it."""
        plan = self.engines["memory"][0]
        pending = self._pending_keys()
        key = int(pending[rank % pending.size])
        self._put(key)
        rng = np.random.default_rng(seed)
        while plan.target.memtable.holds(key):
            self._burst(self._fresh(rng, plan.target.buffer_entries, exclude=key))
        placement = next(
            index
            for index, (_, piece) in enumerate(plan._placements)
            if key in piece.tolist()
        )
        while plan._installed_runs <= placement and not plan.completed:
            self.step()
        assert np.count_nonzero(_versions(plan.target) == key) == 1

    def _pending_keys(self) -> np.ndarray:
        """Checkpoint keys of the memory plan's placements not yet installed
        that the mixed state has not written since it began."""
        plan = self.engines["memory"][0]
        if not isinstance(plan, MigrationPlan):
            return np.empty(0, dtype=np.int64)
        pending = [piece for _, piece in plan._placements[plan._installed_runs :]]
        keys = np.concatenate(pending) if pending else np.empty(0, dtype=np.int64)
        return keys[~np.isin(keys, _versions(plan.target))]

    @precondition(lambda self: self._migrating())
    @rule()
    def finish(self):
        for shards in self.engines.values():
            for plan in shards:
                if isinstance(plan, MigrationPlan):
                    plan.run_to_completion()
        self._retire_finished_plans()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def engines_agree(self):
        memory, files, batched = self._singles()
        twins = [files, batched] + (self._fleet if len(self._fleet) == 1 else [])
        for twin in twins:
            assert _trees(twin)[0].disk.counters == _trees(memory)[0].disk.counters
            for tree, reference in zip(_trees(twin), _trees(memory), strict=True):
                assert tree.stats() == reference.stats()
                assert tree_fingerprint(tree) == tree_fingerprint(reference)

    @invariant()
    def contents_equal_the_oracle(self):
        for name in ("memory", "fleet"):
            held = np.concatenate([_live_keys(shard) for shard in self.engines[name]])
            assert held.size == len(self.live) and self.live.issuperset(held.tolist())

    @invariant()
    def entries_lie_between_live_keys_and_writes(self):
        for shards in self.engines.values():
            trees = [tree for shard in shards for tree in _trees(shard)]
            entries = sum(tree.num_entries for tree in trees)
            assert len(self.live) <= entries
            if len(trees) == len(shards):  # no plan holds a second copy
                assert entries <= self.writes

    def teardown(self):
        if hasattr(self, "windows"):
            self.windows.stop()
        try:
            for shards in self.engines.values():
                for shard in shards:
                    for tree in _trees(shard):
                        tree.dispose()
            assert _descriptors_under(self.root) == []
            assert list(self.root.iterdir()) == []
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


#: Every phase but shrinking, as ``tests/storage/test_replay_parity.py``
#: runs its parity cases (see the module docstring).
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

EngineMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    phases=_NO_SHRINK,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestEngineMachine = EngineMachine.TestCase



def test_an_updated_key_is_held_once_through_a_merge_into_a_stacked_level():
    """Tiering's bulk load leaves every key in one run at the deepest level;
    the second burst merges level 1 into that level beside the old run, which
    still holds the updated key's older version."""
    state = EngineMachine()
    state.load(
        tuning=_TUNINGS[1], size=27, base=0, seed=0, max_batch_ops=1, num_shards=1, window_ops=2
    )
    try:
        state.put(key=("known", 0))
        state.write_burst(count=20, seed=0)
        state.write_burst(count=20, seed=1)
        state.contents_equal_the_oracle()
        state.engines_agree()
    finally:
        state.teardown()


def test_a_migration_that_installs_no_run_reopens_with_its_levels():
    """A never-loaded tree: the plan installs nothing, and the target on
    files must reopen with the level the plan gave it."""
    state = EngineMachine()
    state.load(
        tuning=_TUNINGS[0], size=0, base=0, seed=0, max_batch_ops=1, num_shards=1, window_ops=2
    )
    try:
        state.begin_migration(tuning=_TUNINGS[0], max_step_pages=None)
        state.finish()
        state.crash_reopen()
        state.engines_agree()
        state.contents_equal_the_oracle()
    finally:
        state.teardown()
