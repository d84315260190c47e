"""Shard-per-worker serving layer over the LSM measurement harness.

Production Endure serves live traffic from many shards while each shard's
tuner adapts independently; this package reproduces that deployment shape on
top of the existing single-tree executor:

* :mod:`~repro.serving.sharding` hash-partitions the int64 key space with a
  splitmix64-style mixer and routes operation streams: point operations go
  to their key's owner shard, range scans fan out to every shard (a hash
  partition scatters key intervals).
* :class:`~repro.serving.executor.ShardedExecutor` builds one tree (or one
  :class:`~repro.online.controller.OnlineLSMController`) per shard — each
  persistent shard in its own data dir — replays the sequence per shard,
  and merges per-shard :class:`~repro.storage.disk.VirtualDisk` counters
  into global session measurements plus fleet-style percentiles
  (p50/p95/worst shard).

With ``num_shards=1`` every measurement is bit-identical to the classic
:class:`~repro.storage.executor.WorkloadExecutor` — pinned by test.
"""

# Alias kept only because ``bench/`` imports the replay loop under this name;
# a later benchmark PR can drop it.
from ..storage.lsm_tree import execute_operations_batched as execute_serving_batched
from .executor import (
    ShardedComparison,
    ShardedExecutor,
    ShardedSequenceMeasurement,
    ShardRun,
    fleet_percentiles,
)
from .report import format_sharded_comparison
from .sharding import partition_keys, shard_ids, shard_operations

__all__ = [
    "ShardRun",
    "ShardedComparison",
    "ShardedExecutor",
    "ShardedSequenceMeasurement",
    "execute_serving_batched",
    "fleet_percentiles",
    "format_sharded_comparison",
    "partition_keys",
    "shard_ids",
    "shard_operations",
]
