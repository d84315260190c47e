"""Tests for concrete query-trace generation."""

import hashlib

import numpy as np
import pytest

from repro.workloads import (
    KeySpace,
    Operation,
    OperationType,
    Trace,
    TraceGenerator,
    Workload,
    operation_mix,
)


@pytest.fixture(scope="module")
def key_space() -> KeySpace:
    return KeySpace.build(num_entries=2_000, seed=3)


@pytest.fixture()
def generator(key_space) -> TraceGenerator:
    return TraceGenerator(key_space, seed=11)


class TestKeySpace:
    def test_partitions_are_disjoint(self, key_space):
        assert not set(key_space.existing.tolist()) & set(key_space.missing.tolist())

    def test_sizes(self, key_space):
        assert key_space.num_entries == 2_000
        assert key_space.missing.size == 2_000

    def test_fresh_keys_beyond_domain(self, key_space):
        domain_max = max(key_space.existing.max(), key_space.missing.max())
        assert key_space.fresh_start > domain_max

    def test_keys_are_sorted(self, key_space):
        assert np.all(np.diff(key_space.existing) > 0)
        assert np.all(np.diff(key_space.missing) > 0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            KeySpace.build(0)


class TestTraceGeneration:
    def test_produces_requested_number_of_operations(self, generator):
        ops = generator.operations(Workload.uniform(), 400)
        assert len(ops) == 400

    def test_rejects_non_positive_count(self, generator):
        with pytest.raises(ValueError):
            generator.operations(Workload.uniform(), 0)

    def test_empty_gets_use_missing_keys(self, generator, key_space):
        ops = generator.operations(Workload(1.0, 0.0, 0.0, 0.0), 200)
        missing = set(key_space.missing.tolist())
        assert all(op.kind is OperationType.EMPTY_GET for op in ops)
        assert all(op.key in missing for op in ops)

    def test_gets_use_existing_keys(self, generator, key_space):
        ops = generator.operations(Workload(0.0, 1.0, 0.0, 0.0), 200)
        existing = set(key_space.existing.tolist())
        assert all(op.kind is OperationType.GET for op in ops)
        assert all(op.key in existing for op in ops)

    def test_puts_use_fresh_unique_keys(self, generator, key_space):
        ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 200)
        keys = [op.key for op in ops]
        assert len(set(keys)) == len(keys)
        assert min(keys) >= key_space.fresh_start

    def test_fresh_keys_do_not_repeat_across_calls(self, generator):
        first = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 50)
        second = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 50)
        assert not {op.key for op in first} & {op.key for op in second}

    def test_range_operations_carry_scan_length(self, key_space):
        generator = TraceGenerator(key_space, range_scan_keys=32, seed=1)
        ops = generator.operations(Workload(0.0, 0.0, 1.0, 0.0), 50)
        assert all(op.kind is OperationType.RANGE for op in ops)
        assert all(op.scan_length == 32 for op in ops)

    def test_realised_mix_tracks_requested_workload(self, generator):
        requested = Workload(0.4, 0.3, 0.1, 0.2)
        ops = generator.operations(requested, 5_000)
        realised = operation_mix(ops)
        assert np.allclose(realised.as_array(), requested.as_array(), atol=0.03)

    def test_operation_mix_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            operation_mix(Trace.of([]))

    def test_invalid_configuration_rejected(self, key_space):
        with pytest.raises(ValueError):
            TraceGenerator(key_space, range_scan_keys=0)
        with pytest.raises(ValueError):
            TraceGenerator(key_space, range_scan_keys=16, long_scan_keys=8)


class TestTraceColumns:
    """``Trace`` is three parallel columns that read as ``Operation`` rows."""

    ROWS = [
        Operation(OperationType.GET, 3),
        Operation(OperationType.RANGE, 10, scan_length=5),
        Operation(OperationType.PUT, 11),
        Operation(OperationType.EMPTY_GET, 90),
    ]

    def test_of_round_trips_rows(self):
        trace = Trace.of(self.ROWS)
        assert len(trace) == 4
        assert list(trace) == self.ROWS
        assert [trace[i] for i in range(4)] == self.ROWS
        assert all(op.kind is row.kind for op, row in zip(trace, self.ROWS))

    def test_columns_have_fixed_dtypes_and_kind_codes(self):
        trace = Trace.of(self.ROWS)
        assert trace.kinds.dtype == np.uint8
        assert trace.keys.dtype == np.int64
        assert trace.scan_lengths.dtype == np.int32
        # A kind's code is its index in the workload vector (z0, z1, q, w).
        assert trace.kinds.tolist() == [1, 2, 3, 0]
        assert [int(kind) for kind in OperationType] == [0, 1, 2, 3]

    def test_slices_and_masks_select_rows(self):
        trace = Trace.of(self.ROWS)
        assert list(trace[1:3]) == self.ROWS[1:3]
        assert list(trace[trace.kinds != OperationType.PUT]) == [
            row for row in self.ROWS if row.kind is not OperationType.PUT
        ]
        assert np.shares_memory(trace[1:3].keys, trace.keys)

    def test_equality_is_column_wise(self):
        assert Trace.of(self.ROWS) == Trace.of(list(self.ROWS))
        assert Trace.of(self.ROWS) != Trace.of(self.ROWS[:-1])
        assert Trace.of(self.ROWS) != Trace.of(self.ROWS[::-1])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            Trace([0, 1], [5], [0, 0])

    def test_operation_mix_counts_kind_codes(self):
        mix = operation_mix(Trace.of(self.ROWS + [Operation(OperationType.PUT, 12)]))
        assert mix.as_array().tolist() == [0.2, 0.2, 0.2, 0.4]


def _digest(trace: Trace) -> str:
    digest = hashlib.sha256()
    digest.update(trace.kinds.astype(np.uint8).tobytes())
    digest.update(trace.keys.astype("<i8").tobytes())
    digest.update(trace.scan_lengths.astype("<i4").tobytes())
    return digest.hexdigest()[:16]


def _rng_state_digest(generator: TraceGenerator) -> str:
    state = (
        generator._rng.bit_generator.state,
        generator._update_rng.bit_generator.state,
        generator._next_fresh_key,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


#: Digests of traces the object-per-operation generator (``rng.shuffle`` over
#: a list of frozen dataclasses) produced at the last commit that had it:
#: ``(num_entries, seed, (z0, z1, q, w, long_range_fraction), n, second_n,
#: update_fraction, update_skew)`` -> sha256 prefixes of the first call's
#: columns, of a second call's on the same generator, and of both RNG states
#: plus the fresh-key cursor afterwards.  Seeds 29 and 97 are the ones behind
#: ``benchmarks/results/vectorized_execute.txt`` and the executor default.
GOLDEN_TRACES = [
    ((20000, 29, (0.3, 0.68, 0.01, 0.01, 0.0), 1000000, 200000, 0.0, 0.0), "cc782e095571e7b2", "0a4eef4ec3b8ffe1", "202606059296b025"),
    ((20000, 29, (0.2, 0.3, 0.2, 0.3, 0.0), 70000, 20000, 0.0, 0.0), "2d9d217b7792839b", "21ad70dcd5e81df7", "bf8d6f4379c36973"),
    ((2000, 97, (0.25, 0.25, 0.25, 0.25, 0.0), 2000, 2000, 0.0, 0.0), "53a3619289ba0f5c", "48c4ecfe7fb814b8", "fdc643062967335f"),
    ((2000, 97, (0.05, 0.05, 0.01, 0.89, 0.0), 6000, 1000, 0.5, 1.2), "8ce74dde5cecb9e0", "faffc8584668d747", "c174f869a31c310f"),
    ((2000, 5, (0.1, 0.1, 0.7, 0.1, 0.2), 5000, 7, 0.3, 0.0), "8cde60791a6159d6", "0fbe6d1aa1a67200", "c8c31d78f1d96638"),
    ((2000, 11, (0.0, 0.0, 0.0, 1.0, 0.0), 1000, 2, 1.0, 0.0), "cbb646473f4b5eee", "8f6d09c7c84bb1c2", "06752c0b11d1fbe8"),
    ((500, 3, (0.0, 1.0, 0.0, 0.0, 0.0), 1, 1, 0.0, 0.0), "04b9c90d18c8f99a", "bdda8085882cd8dd", "b2d43bebc2335b73"),
    ((500, 3, (0.4, 0.3, 0.1, 0.2, 0.5), 7, 2, 0.25, 2.0), "9642e8f1ff36138e", "9d6879ca06831505", "7236ea21794b3778"),
    ((500, 23, (0.5, 0.0, 0.5, 0.0, 1.0), 1000, 1000, 0.0, 0.0), "fb820f8095bc875f", "b391421b7f59e009", "59fb01b17f67ffca"),
]


class TestGoldenTraces:
    """Every seeded trace is bit-identical to the pre-columnar generator's."""

    @pytest.mark.parametrize(
        "case, first, second, state", GOLDEN_TRACES, ids=[str(i) for i in range(9)]
    )
    def test_columns_and_rng_state_match_the_recorded_digests(
        self, case, first, second, state
    ):
        num_entries, seed, mix, n, second_n, update_fraction, update_skew = case
        generator = TraceGenerator(
            KeySpace.build(num_entries, seed=seed),
            seed=seed,
            update_fraction=update_fraction,
            update_skew=update_skew,
        )
        workload = Workload(*mix[:4], long_range_fraction=mix[4])
        assert _digest(generator.operations(workload, n)) == first
        assert _digest(generator.operations(workload, second_n)) == second
        assert _rng_state_digest(generator) == state


class TestUpdateHeavyTraces:
    """The duplicate-key skew knob: writes that overwrite resident keys."""

    def test_update_fraction_splits_puts(self, key_space):
        generator = TraceGenerator(key_space, update_fraction=0.4, seed=5)
        ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 500)
        existing = set(key_space.existing.tolist())
        updates = [op for op in ops if op.key in existing]
        inserts = [op for op in ops if op.key >= key_space.fresh_start]
        assert len(updates) + len(inserts) == len(ops)
        assert len(updates) == 200  # 40% of 500, deterministic rounding

    def test_updates_hit_duplicate_keys(self, key_space):
        """With enough updates over a finite key set, keys repeat — the
        obsolete-version amplification the long-range model charges for."""
        generator = TraceGenerator(key_space, update_fraction=1.0, seed=5)
        ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 3 * key_space.num_entries)
        keys = [op.key for op in ops]
        assert len(set(keys)) < len(keys)

    def test_update_skew_concentrates_on_hot_keys(self, key_space):
        uniform = TraceGenerator(key_space, update_fraction=1.0, update_skew=0.0, seed=5)
        skewed = TraceGenerator(key_space, update_fraction=1.0, update_skew=1.2, seed=5)
        count = 4_000

        def top_share(generator):
            ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), count)
            frequencies = {}
            for op in ops:
                frequencies[op.key] = frequencies.get(op.key, 0) + 1
            top = sorted(frequencies.values(), reverse=True)[:10]
            return sum(top) / count

        assert top_share(skewed) > 2 * top_share(uniform)

    def test_zero_update_fraction_leaves_the_trace_bit_identical(self, key_space):
        """Enabling the knob machinery must not perturb the main RNG stream:
        the default trace is unchanged from the pre-knob generator."""
        plain = TraceGenerator(key_space, seed=5)
        explicit = TraceGenerator(key_space, update_fraction=0.0, update_skew=2.0, seed=5)
        workload = Workload(0.2, 0.3, 0.2, 0.3)
        assert plain.operations(workload, 400) == explicit.operations(workload, 400)

    def test_update_knob_preserves_the_non_write_stream(self, key_space):
        """Updates draw from a dedicated RNG stream, so reads and ranges of a
        seeded trace are identical with and without the knob."""
        plain = TraceGenerator(key_space, seed=5)
        updating = TraceGenerator(key_space, update_fraction=0.5, seed=5)
        workload = Workload(0.2, 0.3, 0.2, 0.3)
        plain_ops = plain.operations(workload, 400)
        updating_ops = updating.operations(workload, 400)
        for kind in (OperationType.EMPTY_GET, OperationType.GET, OperationType.RANGE):
            assert [op for op in plain_ops if op.kind is kind] == [
                op for op in updating_ops if op.kind is kind
            ]

    def test_rejects_bad_update_knobs(self, key_space):
        with pytest.raises(ValueError):
            TraceGenerator(key_space, update_fraction=1.5)
        with pytest.raises(ValueError):
            TraceGenerator(key_space, update_fraction=-0.1)
        with pytest.raises(ValueError):
            TraceGenerator(key_space, update_skew=-1.0)
