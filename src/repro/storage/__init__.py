"""Pure-Python LSM-tree storage engine with I/O accounting (RocksDB substitute)."""

from .bloom_filter import BloomFilter
from .disk import IOCounters, VirtualDisk
from .executor import (
    AdaptiveSequenceMeasurement,
    ExecutorConfig,
    SequenceMeasurement,
    SessionMeasurement,
    ShardRun,
    WorkloadExecutor,
)
from .lsm_tree import LSMTree, TreeStats
from .memtable import Memtable
from .persistent import PersistentLSMTree, SSTable, WriteAheadLog
from .run import PageSpan, SortedRun

__all__ = [
    "AdaptiveSequenceMeasurement",
    "BloomFilter",
    "ExecutorConfig",
    "IOCounters",
    "LSMTree",
    "Memtable",
    "PageSpan",
    "PersistentLSMTree",
    "SSTable",
    "SequenceMeasurement",
    "SessionMeasurement",
    "ShardRun",
    "SortedRun",
    "TreeStats",
    "VirtualDisk",
    "WorkloadExecutor",
    "WriteAheadLog",
]
