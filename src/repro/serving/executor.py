"""Names the frozen ``bench/`` harness still imports from this module.

The shard fleet is :class:`~repro.storage.executor.WorkloadExecutor` itself
(its ``num_shards`` knob); ``ShardedExecutor`` is only its old name.
"""

from ..storage.executor import WorkloadExecutor as ShardedExecutor
from ..storage.executor import tree_fingerprint

__all__ = ["ShardedExecutor", "tree_fingerprint"]
