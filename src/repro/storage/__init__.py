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
from .persistent import FileStore, PersistentLSMTree, SSTable, WriteAheadLog
from .run import MemoryStore, SortedRun

__all__ = [
    "AdaptiveSequenceMeasurement",
    "BloomFilter",
    "ExecutorConfig",
    "FileStore",
    "IOCounters",
    "LSMTree",
    "MemoryStore",
    "Memtable",
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
