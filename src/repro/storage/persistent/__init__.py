"""The run store on real files, behind the one LSMTree.

:class:`~repro.storage.lsm_tree.LSMTree` keeps its runs wherever its run
store puts them.  This package is the store for real storage —
:class:`FileStore`: a write-ahead log for durability, on-disk SSTable files
with sparse-index and Bloom-filter sidecars, a manifest, real compaction I/O
— under the same tree making the same structure decisions and charging the
same disk counters, so measured wall-clock time can be compared against the
analytical cost model's predictions.  :class:`PersistentLSMTree` is that tree
by its old constructor.
"""

from .sstable import SSTable
from .store import FileStore, PersistentLSMTree
from .wal import WriteAheadLog

__all__ = ["FileStore", "PersistentLSMTree", "SSTable", "WriteAheadLog"]
