"""Unit tests of the hash partitioner and operation router."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.sharding import (
    partition_keys,
    shard_ids,
    shard_of_key,
    shard_operations,
)
from repro.workloads import KeySpace, Operation, OperationType, Trace


class TestShardIds:
    def test_deterministic_and_in_range(self):
        keys = np.arange(-500, 500, dtype=np.int64)
        for n in (1, 2, 3, 4, 7):
            sids = shard_ids(keys, n)
            assert sids.dtype == np.int64
            assert sids.min() >= 0 and sids.max() < n
            assert np.array_equal(sids, shard_ids(keys, n))

    def test_single_shard_owns_everything(self):
        keys = np.arange(100, dtype=np.int64)
        assert np.array_equal(shard_ids(keys, 1), np.zeros(100, dtype=np.int64))

    def test_balance_on_structured_key_space(self):
        """The mixer must not alias with the key space's stride structure."""
        space = KeySpace.build(20_000, seed=29)
        for n in (2, 4, 8):
            counts = np.bincount(shard_ids(space.existing, n), minlength=n)
            expected = space.existing.size / n
            assert counts.min() > 0.9 * expected
            assert counts.max() < 1.1 * expected

    def test_scalar_helper_matches_vector(self):
        keys = np.array([0, 1, -17, 2**40], dtype=np.int64)
        vec = shard_ids(keys, 5)
        assert [shard_of_key(int(k), 5) for k in keys] == vec.tolist()

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_ids(np.arange(4, dtype=np.int64), 0)


class TestPartitionKeys:
    def test_partitions_are_a_disjoint_cover(self):
        keys = np.arange(0, 4_000, 2, dtype=np.int64)
        parts = partition_keys(keys, 4)
        assert len(parts) == 4
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.sort(keys))
        sids = shard_ids(keys, 4)
        for shard, part in enumerate(parts):
            assert np.array_equal(part, keys[sids == shard])

    def test_single_shard_is_identity(self):
        keys = np.arange(10, dtype=np.int64)
        (only,) = partition_keys(keys, 1)
        assert np.array_equal(only, keys)


def _ops():
    return [
        Operation(kind=OperationType.GET, key=3),
        Operation(kind=OperationType.RANGE, key=10, scan_length=5),
        Operation(kind=OperationType.PUT, key=11),
        Operation(kind=OperationType.EMPTY_GET, key=90),
        Operation(kind=OperationType.GET, key=7),
        Operation(kind=OperationType.RANGE, key=40, scan_length=3),
    ]


class TestShardOperations:
    def test_points_route_by_owner_ranges_fan_out(self):
        ops = _ops()
        num_shards = 3
        streams = [
            list(shard_operations(Trace.of(ops), s, num_shards)) for s in range(num_shards)
        ]
        for shard, stream in enumerate(streams):
            for op in stream:
                if op.kind is not OperationType.RANGE:
                    assert shard_of_key(op.key, num_shards) == shard
        # Every range op appears on every shard; every point op on exactly one.
        for op in ops:
            holders = sum(op in stream for stream in streams)
            assert holders == (num_shards if op.kind is OperationType.RANGE else 1)

    def test_mask_equals_the_per_row_rule(self):
        """The column mask keeps exactly the rows the routing rule keeps:
        a point operation on its key's owner, a range scan everywhere."""
        ops = _ops()
        for num_shards in (1, 2, 3, 5):
            for shard in range(num_shards):
                by_row = [
                    op
                    for op in ops
                    if op.kind is OperationType.RANGE
                    or shard_of_key(op.key, num_shards) == shard
                ]
                assert list(shard_operations(Trace.of(ops), shard, num_shards)) == by_row

    def test_stream_order_is_preserved(self):
        ops = _ops()
        for shard in range(3):
            stream = shard_operations(Trace.of(ops), shard, 3)
            indices = [ops.index(op) for op in stream]
            assert indices == sorted(indices)

    def test_single_shard_passthrough(self):
        trace = Trace.of(_ops())
        assert shard_operations(trace, 0, 1) == trace

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ValueError, match="shard"):
            shard_operations(Trace.of(_ops()), 3, 3)
