"""Index substrates: traditional and learned ordered indexes.

This subpackage provides the data-access structures the benchmark's
systems under test are built on:

* :class:`~repro.indexes.base.OrderedIndex` — the common interface.
* :class:`~repro.indexes.btree.BPlusTree` — classic B+ tree baseline.
* :class:`~repro.indexes.sorted_array.SortedArrayIndex` — binary search.
* :class:`~repro.indexes.hashindex.HashIndex` — unordered hash baseline.
* :class:`~repro.indexes.rmi.RecursiveModelIndex` — two-layer RMI
  (Kraska et al., "The Case for Learned Index Structures").
* :class:`~repro.indexes.pgm.PGMIndex` — piecewise-linear ε-bounded index.
* :class:`~repro.indexes.delta.DeltaBufferedIndex` — the delta buffer,
  tombstones and merge the RMI and PGM share; each adds only its model.
* :class:`~repro.indexes.alex.AdaptiveLearnedIndex` — updatable learned
  index with gapped arrays (simplified ALEX).
"""

from repro.indexes.alex import AdaptiveLearnedIndex
from repro.indexes.base import IndexStats, OrderedIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.hashindex import HashIndex
from repro.indexes.pgm import PGMIndex
from repro.indexes.rmi import RecursiveModelIndex
from repro.indexes.sorted_array import SortedArrayIndex

__all__ = [
    "IndexStats",
    "OrderedIndex",
    "BPlusTree",
    "SortedArrayIndex",
    "HashIndex",
    "RecursiveModelIndex",
    "PGMIndex",
    "AdaptiveLearnedIndex",
]
