"""The run store on real files, behind the one LSMTree.

:class:`~repro.storage.lsm_tree.LSMTree` keeps its runs wherever its run
store puts them.  This package is the store for real storage —
:class:`FileStore`: a write-ahead log for durability, SSTables that are
one file each (records, then sparse index and Bloom filter in a footer,
written by one ``write``), a manifest, real compaction I/O
— under the same tree making the same structure decisions and charging the
same disk counters, so measured wall-clock time can be compared against the
analytical cost model's predictions.  :class:`PersistentLSMTree` is that tree
by its old constructor.
"""

from .sstable import SSTable
from .store import FileStore, PersistentLSMTree
from .wal import WriteAheadLog

__all__ = ["FileStore", "PersistentLSMTree", "SSTable", "WriteAheadLog"]
