"""Hash sharding of the key space and of operation streams.

Production Endure serves live traffic from many shards while each shard's
tuner adapts independently; the harness reproduces that deployment shape
with the one executor: a :class:`~repro.storage.executor.WorkloadExecutor`
whose ``ExecutorConfig.num_shards`` is above 1 serves each shard as one
:meth:`~repro.storage.executor.WorkloadExecutor.run_shard` call — each
persistent shard in its own data dir — and merges the shards' counters into
fleet measurements.  This package holds what that call routes by:

* :mod:`~repro.serving.sharding` hash-partitions the int64 key space with a
  splitmix64-style mixer and routes operation streams: point operations go
  to their key's owner shard, range scans fan out to every shard (a hash
  partition scatters key intervals).
* :mod:`~repro.serving.executor` keeps ``ShardedExecutor``, the executor's
  old name, for ``bench/``.
"""

# Aliases kept only because ``bench/`` imports these names from here; a later
# benchmark change can drop them.
from ..storage.lsm_tree import execute_operations_batched as execute_serving_batched
from .executor import ShardedExecutor
from .sharding import partition_keys, shard_ids, shard_operations

__all__ = [
    "ShardedExecutor",
    "execute_serving_batched",
    "partition_keys",
    "shard_ids",
    "shard_operations",
]
