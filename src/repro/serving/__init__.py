"""Shard-per-worker serving layer over the LSM measurement harness.

Production Endure serves live traffic from many shards while each shard's
tuner adapts independently; this package reproduces that deployment shape
with the one executor — a shard is a
:meth:`~repro.storage.executor.WorkloadExecutor.run_shard` call, of which the
classic single tree is shard 0 of 1:

* :mod:`~repro.serving.sharding` hash-partitions the int64 key space with a
  splitmix64-style mixer and routes operation streams: point operations go
  to their key's owner shard, range scans fan out to every shard (a hash
  partition scatters key intervals).
* :class:`~repro.serving.executor.ShardedExecutor` runs one shard per
  partition — each persistent shard in its own data dir — sequentially or
  on the executor's process pool, and sums the per-shard
  :class:`~repro.storage.disk.IOCounters` deltas into global session
  measurements (priced by the one :class:`~repro.storage.disk.VirtualDisk`
  latency formula) plus fleet-style percentiles (p50/p95/worst shard).

With ``num_shards=1`` every measurement is bit-identical to the classic
:class:`~repro.storage.executor.WorkloadExecutor` — pinned by test.
"""

# Alias kept only because ``bench/`` imports the replay loop under this name;
# a later benchmark PR can drop it.
from ..storage.lsm_tree import execute_operations_batched as execute_serving_batched
from .executor import (
    ShardedExecutor,
    ShardedSequenceMeasurement,
    ShardRun,
    fleet_percentiles,
)
from .sharding import partition_keys, shard_ids, shard_operations

__all__ = [
    "ShardRun",
    "ShardedExecutor",
    "ShardedSequenceMeasurement",
    "execute_serving_batched",
    "fleet_percentiles",
    "partition_keys",
    "shard_ids",
    "shard_operations",
]
