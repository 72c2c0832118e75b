"""The textbook B+ tree: the oracle the columnar ``BPlusTree`` is pinned to.

:class:`repro.indexes.btree.BPlusTree` keeps its leaves as spans of one
sorted key array. This module keeps the tree it replaced, verbatim: leaf
node objects chained for range scans, inner nodes over node objects, and
a flat view beside them that ``bulk_load`` assembles, non-splitting
inserts patch, and splits and deletes drop so the next bulk read walks
the tree again (``_build_bulk_cache``). Its ``get`` / ``insert`` /
``delete`` descend node by node, which makes it the definition of every
:class:`~repro.indexes.base.IndexStats` counter the columnar tree must
reproduce. Tests run both on the same operations and compare return
values, exceptions, counters and shapes.

Deletes never merge or rebalance: leaves may go sparse or empty.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.indexes.base import OrderedIndex, sorted_unique_pairs, verified_ranks
from repro.indexes.keybuffer import PositionTagBuffer, SortedKeyBuffer


class _Node:
    """A B+ tree node; ``leaf`` nodes carry values, inner nodes children."""

    __slots__ = ("keys", "children", "values", "next", "leaf")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: List[float] = []
        self.children: List["_Node"] = []
        self.values: List[Any] = []
        self.next: Optional["_Node"] = None


class _FlatView(NamedTuple):
    """The tree flattened for vectorized routing, in leaf order.

    Attributes:
        seps: Every inner separator, ascending.
        keys: Every stored key, ascending.
        leaf_of: The leaf number of every position of ``keys``.
        ends: Each leaf's end position in ``keys`` (cumulative sizes).
        leaf_comps: Comparisons of a ``get`` that ends in each leaf.
        leaf_na: Node accesses of a ``get`` that ends in each leaf.
        leaves: The leaf nodes, in key order.
    """

    seps: np.ndarray
    keys: SortedKeyBuffer
    leaf_of: PositionTagBuffer
    ends: np.ndarray
    leaf_comps: np.ndarray
    leaf_na: np.ndarray
    leaves: List[_Node]


def _search_comps(sizes: np.ndarray) -> np.ndarray:
    """``max(1, bit_length)`` of each leaf size: a leaf search's comparisons."""
    # frexp's exponent of a positive integer is its bit_length.
    return np.maximum(1, np.frexp(sizes.astype(np.float64))[1].astype(np.int64))


def _earlier_in_group(groups: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per row, how many ``marked`` rows before it share its group.

    A running count over the rows sorted by group (stable, so row order
    holds within a group), minus the count where the group starts.
    """
    is_marked = np.zeros(groups.size, dtype=np.int64)
    is_marked[marked] = 1
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    before = np.cumsum(is_marked[order]) - is_marked[order]
    out = np.empty_like(before)
    out[order] = before - before[np.searchsorted(grouped, grouped)]
    return out


class BPlusTree(OrderedIndex):
    """In-memory B+ tree with configurable fanout.

    Args:
        order: Maximum number of keys per node (>= 3). Smaller orders make
            deeper trees, useful for testing; 64 approximates a cache-line
            conscious in-memory tree.
    """

    def __init__(self, order: int = 64) -> None:
        super().__init__()
        if order < 3:
            raise ConfigurationError(f"B+ tree order must be >= 3, got {order}")
        self._order = order
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1
        self._bulk_cache = None

    @property
    def order(self) -> int:
        """Maximum number of keys per node."""
        return self._order

    @property
    def height(self) -> int:
        """Current tree height (1 = root is a leaf)."""
        return self._height

    # -- search ---------------------------------------------------------------

    def _find_leaf(self, key: float) -> _Node:
        """Descend from the root to the leaf responsible for ``key``."""
        node = self._root
        while not node.leaf:
            self.stats.node_accesses += 1
            idx = bisect.bisect_right(node.keys, key)
            self.stats.comparisons += max(1, len(node.keys).bit_length())
            node = node.children[idx]
        self.stats.node_accesses += 1
        return node

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        self.stats.comparisons += max(1, len(leaf.keys).bit_length())
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        raise KeyNotFoundError(key)

    # -- bulk lookup -----------------------------------------------------------

    def _build_bulk_cache(self):
        """Flatten the tree for vectorized routing.

        An in-order walk yields every stored key in sorted order, so a
        key's position among them names its leaf, and every inner
        separator in sorted order (one per leaf boundary), which is what
        the per-node ``bisect_right`` descent routes by. Per-leaf
        comparison/node-access totals are precomputed along each
        root-to-leaf path, and the leaves are kept in order so a bulk
        write can reach its leaf. Returns ``False`` if the two routings
        could disagree (unsupported shape).

        This walk is the definition of the view: ``bulk_load``,
        non-splitting inserts and ``bulk_apply`` maintain the same arrays
        incrementally, a split or delete drops the view so the next bulk
        read rebuilds it here, and the tests compare the maintained view
        against a fresh walk.
        """
        seps: List[float] = []
        leaves: List[_Node] = []
        path_comps: List[int] = []
        depths: List[int] = []

        def dfs(node: _Node, comps: int, depth: int) -> None:
            if node.leaf:
                leaves.append(node)
                path_comps.append(comps)
                depths.append(depth)
                return
            step = max(1, len(node.keys).bit_length())
            for i, child in enumerate(node.children):
                if i > 0:
                    seps.append(node.keys[i - 1])
                dfs(child, comps + step, depth + 1)

        dfs(self._root, 0, 0)
        return self._flat_view(
            seps,
            [k for leaf in leaves for k in leaf.keys],
            leaves,
            path_comps,
            depths,
        )

    @staticmethod
    def _flat_view(seps, keys, leaves, path_comps, depths):
        """Assemble the view from per-leaf facts in leaf order.

        ``path_comps`` / ``depths`` are each leaf's inner-node comparison
        total and inner-node count on the way down from the root.
        """
        sizes = [len(leaf.keys) for leaf in leaves]
        sep_arr = np.asarray(seps, dtype=np.float64)
        if sep_arr.size and (np.diff(sep_arr) < 0).any():
            return False
        all_keys = np.asarray(keys, dtype=np.float64)
        # Strictly ascending: what lets ``bulk_lookup`` verify a rank hint.
        if not (all_keys[1:] > all_keys[:-1]).all():
            return False
        sizes = np.asarray(sizes, dtype=np.int64)
        ends = np.cumsum(sizes)
        # The descent routes by separators, the view by position: they
        # agree iff every separator's insertion point is its leaf boundary.
        if not np.array_equal(np.searchsorted(all_keys, sep_arr), ends[:-1]):
            return False
        leaf_of = PositionTagBuffer(np.repeat(np.arange(sizes.size), sizes))
        leaf_comps = np.asarray(path_comps, dtype=np.int64) + _search_comps(sizes)
        leaf_na = np.asarray(depths, dtype=np.int64) + 1
        return _FlatView(
            sep_arr, SortedKeyBuffer(all_keys), leaf_of, ends, leaf_comps, leaf_na, leaves
        )

    def _grow_view(self, key: float, idx: int, leaf_size: int) -> None:
        """Patch the view for ``key`` landing at ``idx`` of an unsplit leaf."""
        view = self._bulk_cache
        leaf = int(view.seps.searchsorted(key, side="right"))
        pos = (int(view.ends[leaf - 1]) if leaf else 0) + idx
        view.keys.insert_at(pos, key)
        view.leaf_of.insert_at(pos, leaf)
        view.ends[leaf:] += 1
        view.leaf_comps[leaf] += max(1, leaf_size.bit_length()) - max(
            1, (leaf_size - 1).bit_length()
        )

    def _live_view(self):
        """The flat view, walked first if dropped; ``None`` if unsupported or empty."""
        if self._bulk_cache is None:
            self._bulk_cache = self._build_bulk_cache()
        view = self._bulk_cache
        return view if view and len(view.keys) else None

    def bulk_lookup(self, keys, ranks=None) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized point lookups: each key's position names its leaf."""
        view = self._live_view()
        if view is None:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        all_keys = view.keys.view
        pos = verified_ranks(ranks, all_keys, keys)
        if pos is None:
            pos = np.searchsorted(all_keys, keys)
            # A key past the end is compared with the last key and differs.
            if not (all_keys[np.minimum(pos, all_keys.size - 1)] == keys).all():
                return None
        leaf = view.leaf_of.view[pos]
        comps = view.leaf_comps[leaf]
        na = view.leaf_na[leaf]
        self.stats.lookups += pos.size
        self.stats.comparisons += int(comps.sum())
        self.stats.node_accesses += int(na.sum())
        return comps, na, np.zeros(pos.size, dtype=np.int64)

    def bulk_apply(
        self, keys, ranks, writes, values
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Gets and inserts in row order, each priced at its leaf's size then.

        Without a split, a ``get`` and an ``insert`` descend the same
        path and search their leaf over the keys it holds *before* the
        row: the pre-run size plus the new keys earlier rows routed there.
        A write is *new* if its key was not stored before the run and no
        earlier row wrote it; every other write overwrites. A stored key's
        leaf is its position's; a new key's is where the separators route
        it, as :meth:`_grow_view` does. Declines, touching nothing, when a
        read's key is not stored or a new key would split its leaf.
        """
        view = self._live_view()
        if view is None:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        writes = np.asarray(writes, dtype=bool)
        if len(values) != keys.size:
            raise ValueError(f"{keys.size} keys but {len(values)} values")
        all_keys = view.keys.view
        # ``verified_ranks`` can only prove a run whose every key is stored.
        pos = verified_ranks(ranks, all_keys, keys)
        if pos is None:
            pos = np.searchsorted(all_keys, keys)
        at = np.minimum(pos, all_keys.size - 1)
        fresh = all_keys[at] != keys
        if (fresh & ~writes).any():
            return None
        leaf = view.leaf_of.view[at]
        sizes = np.diff(view.ends, prepend=0)
        new_keys = np.empty(0)
        if fresh.any():
            rows = np.flatnonzero(fresh)
            leaf[rows] = view.seps.searchsorted(keys[rows], side="right")
            new_keys, first = np.unique(keys[rows], return_index=True)
            new_rows = rows[first]
            size_at = sizes[leaf] + _earlier_in_group(leaf, new_rows)
            if (size_at[new_rows] >= self._order).any():
                return None  # a split reshapes the inner nodes
            comps = view.leaf_comps[leaf] + _search_comps(size_at) - _search_comps(sizes[leaf])
        else:
            comps = view.leaf_comps[leaf]
        na = view.leaf_na[leaf]
        n_writes = int(np.count_nonzero(writes))
        self.stats.lookups += keys.size - n_writes
        self.stats.inserts += n_writes
        self.stats.comparisons += int(comps.sum())
        self.stats.node_accesses += int(na.sum())
        write_rows = np.flatnonzero(writes)
        for row, key, leaf_no in zip(
            write_rows.tolist(), keys[write_rows].tolist(), leaf[write_rows].tolist()
        ):
            node = view.leaves[leaf_no]
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = values[row]
            else:
                node.keys.insert(idx, key)
                node.values.insert(idx, values[row])
        if new_keys.size:
            self._size += new_keys.size
            new_leaves = leaf[new_rows]
            view.keys.merge(pos[new_rows], new_keys)
            view.leaf_of.merge(pos[new_rows], new_leaves)
            grown = np.bincount(new_leaves, minlength=sizes.size)
            view.ends[:] += np.cumsum(grown)
            view.leaf_comps[:] += _search_comps(sizes + grown) - _search_comps(sizes)
        return comps, na, np.zeros(keys.size, dtype=np.int64)

    # -- insert ---------------------------------------------------------------

    def insert(self, key: float, value: Any) -> None:
        self.stats.inserts += 1
        root = self._root
        result = self._insert_into(root, key, value)
        if result is not None:
            sep, right = result
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [root, right]
            self._root = new_root
            self._height += 1

    def _insert_into(
        self, node: _Node, key: float, value: Any
    ) -> Optional[Tuple[float, _Node]]:
        """Insert under ``node``; return (separator, new right node) on split."""
        self.stats.node_accesses += 1
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key)
            self.stats.comparisons += max(1, len(node.keys).bit_length())
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) > self._order:
                # Every split (inner and root ones follow a leaf split)
                # changes the leaf layout: the next bulk read re-walks.
                self._bulk_cache = None
                return self._split_leaf(node)
            if self._bulk_cache:  # a live view: neither dropped nor unsupported
                self._grow_view(key, idx, len(node.keys))
            return None

        idx = bisect.bisect_right(node.keys, key)
        self.stats.comparisons += max(1, len(node.keys).bit_length())
        result = self._insert_into(node.children[idx], key, value)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.keys) > self._order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, node: _Node) -> Tuple[float, _Node]:
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_inner(self, node: _Node) -> Tuple[float, _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- delete ---------------------------------------------------------------

    def delete(self, key: float) -> None:
        self._bulk_cache = None
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(key)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._size -= 1
        self.stats.deletes += 1
        # Lazy underflow: tolerate sparse leaves; collapse an empty root chain.
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1

    # -- range / iteration ------------------------------------------------------

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        self.stats.range_scans += 1
        leaf: Optional[_Node] = self._find_leaf(low)
        out: List[Tuple[float, Any]] = []
        while leaf is not None:
            self.stats.node_accesses += 1
            for k, v in zip(leaf.keys, leaf.values):
                if k < low:
                    continue
                if k > high:
                    return out
                out.append((k, v))
            leaf = leaf.next
        return out

    def items(self) -> Iterator[Tuple[float, Any]]:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        leaf: Optional[_Node] = node
        while leaf is not None:
            for k, v in zip(list(leaf.keys), list(leaf.values)):
                yield k, v
            leaf = leaf.next

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Build bottom-up from sorted pairs (deduplicated by last wins).

        The flat view is assembled from the same sorted keys and level
        shapes, so the first bulk read does not have to walk the tree.
        """
        key_arr, values = sorted_unique_pairs(pairs)
        keys: List[float] = key_arr.tolist()
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1
        if not keys:
            self._bulk_cache = None
            return
        per_leaf = max(1, (self._order + 1) // 2)
        leaves: List[_Node] = []
        for start in range(0, len(keys), per_leaf):
            leaf = _Node(leaf=True)
            leaf.keys = keys[start : start + per_leaf]
            leaf.values = values[start : start + per_leaf]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        self._size = len(keys)
        self.stats.inserts += len(keys)
        level: List[_Node] = leaves
        spans = [1] * len(leaves)  # leaves below each node of ``level``
        path_comps = np.zeros(len(leaves), dtype=np.int64)
        height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            parent_spans: List[int] = []
            per_inner = max(2, (self._order + 1) // 2 + 1)
            for start in range(0, len(level), per_inner):
                group = level[start : start + per_inner]
                if len(group) == 1 and parents:
                    # Fold a lone trailing child into the previous parent.
                    parents[-1].keys.append(self._min_key(group[0]))
                    parents[-1].children.append(group[0])
                    parent_spans[-1] += spans[start]
                    continue
                parent = _Node(leaf=False)
                parent.children = group
                parent.keys = [self._min_key(child) for child in group[1:]]
                parents.append(parent)
                parent_spans.append(sum(spans[start : start + per_inner]))
            path_comps += np.repeat(
                [max(1, len(p.keys).bit_length()) for p in parents], parent_spans
            )
            level, spans = parents, parent_spans
            height += 1
        self._root = level[0]
        self._height = height
        self._bulk_cache = self._flat_view(
            key_arr[per_leaf::per_leaf],
            key_arr,
            leaves,
            path_comps,
            np.full(len(leaves), height - 1),
        )

    @staticmethod
    def _min_key(node: _Node) -> float:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0]

    def size_bytes(self) -> int:
        """Keys + child/value pointers + per-node header (64 B)."""
        nodes = 0
        entries = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            entries += len(node.keys)
            if not node.leaf:
                entries += len(node.children)
                stack.extend(node.children)
            else:
                entries += len(node.values)
        return entries * 8 + nodes * 64

    def __len__(self) -> int:
        return self._size
