"""Hash partitioning of keys and operation streams across serving shards.

Keys are spread with the splitmix64 finaliser — a full-avalanche 64-bit
mixer — reduced modulo the shard count.  The reproduction's key spaces are
structured (a permutation of ``0..2N``), so a plain ``key % num_shards``
would alias badly with the generators' stride patterns; the mixer decouples
shard placement from key structure, giving every shard an ~equal slice of
both the resident keys and the operation stream.

Routing rules mirror a real hash-partitioned deployment:

* ``GET`` / ``EMPTY_GET`` / ``PUT`` touch exactly one key and go to its
  owner shard;
* ``RANGE`` scans a contiguous *key interval*, which a hash partition
  scatters across every shard — range operations fan out to all shards, and
  each shard serves the fragment of the interval it owns (charging only the
  pages of its own runs, so the fleet-wide I/O sum matches the unsharded
  scan's structure shard by shard).
"""

from __future__ import annotations

import numpy as np

from ..workloads.traces import OperationType, Trace

_SPLITMIX_INC = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


def shard_ids(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Owner shard of each key (vectorised splitmix64 mix, mod shards)."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    x = np.asarray(keys, dtype=np.int64).astype(np.uint64) + _SPLITMIX_INC
    x ^= x >> np.uint64(30)
    x *= _SPLITMIX_M1
    x ^= x >> np.uint64(27)
    x *= _SPLITMIX_M2
    x ^= x >> np.uint64(31)
    return (x % np.uint64(num_shards)).astype(np.int64)


def shard_of_key(key: int, num_shards: int) -> int:
    """Owner shard of one key."""
    return int(shard_ids(np.asarray([key], dtype=np.int64), num_shards)[0])


def partition_keys(keys: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Split a key array into its per-shard partitions (order preserved)."""
    keys = np.asarray(keys, dtype=np.int64)
    if num_shards == 1:
        return [keys]
    sids = shard_ids(keys, num_shards)
    return [keys[sids == shard] for shard in range(num_shards)]


def route_operations(trace: Trace, num_shards: int) -> list[Trace]:
    """Every shard's sub-stream of ``trace`` from one :func:`shard_ids` pass:
    entry ``s`` equals ``shard_operations(trace, s, num_shards)``."""
    owners = shard_ids(trace.keys, num_shards)
    fanned_out = trace.kinds == OperationType.RANGE
    return [trace[(owners == shard) | fanned_out] for shard in range(num_shards)]


def shard_operations(trace: Trace, shard: int, num_shards: int) -> Trace:
    """The sub-stream one shard serves, in original stream order.

    Point operations are kept when the shard owns their key; range scans are
    kept on every shard (see the module docstring).
    """
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard must be in [0, {num_shards}), got {shard}")
    owned = shard_ids(trace.keys, num_shards) == shard
    return trace[owned | (trace.kinds == OperationType.RANGE)]
