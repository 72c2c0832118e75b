"""A classic B+ tree.

This is the traditional baseline structure the learned indexes are
compared against throughout the benchmark. It is a textbook in-memory
B+ tree: all values live in leaves, leaves are chained for range scans,
inner nodes hold separator keys, and nodes split at ``order`` entries.

Deletes use lazy underflow handling (merge with a sibling when a node
drops below half capacity) which keeps the structure valid without the
full rebalancing zoo; the benchmark exercises read/insert-heavy paths.
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
        overwrite can reach a position's value. Returns ``False`` if the
        two routings could disagree (unsupported shape).

        This walk is the definition of the view: ``bulk_load`` and
        non-splitting inserts maintain the same arrays incrementally, a
        split or delete drops the view so the next bulk read rebuilds it
        here, and the tests compare the maintained view against a fresh
        walk.
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
        # frexp's exponent of a positive integer is its bit_length.
        leaf_bits = np.frexp(sizes.astype(np.float64))[1].astype(np.int64)
        leaf_comps = np.asarray(path_comps, dtype=np.int64) + np.maximum(1, leaf_bits)
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

    def _locate(self, keys, ranks):
        """The live view and every key's position in it, or ``None``.

        ``None`` when the view is unsupported or empty, or a key is not
        stored. Nothing is counted here.
        """
        if self._bulk_cache is None:
            self._bulk_cache = self._build_bulk_cache()
        view = self._bulk_cache
        if view is False:
            return None
        all_keys = view.keys.view
        n = all_keys.size
        if n == 0:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        pos = verified_ranks(ranks, all_keys, keys)
        if pos is None:
            pos = np.searchsorted(all_keys, keys)
            # A key past the end is compared with the last key and differs.
            if not (all_keys[np.minimum(pos, n - 1)] == keys).all():
                return None
        return view, pos

    def _count_descents(self, view, pos):
        """Per-key ``get`` costs of the leaves holding ``pos``, committed."""
        leaf_idx = view.leaf_of.view[pos]
        comps = view.leaf_comps[leaf_idx]
        na = view.leaf_na[leaf_idx]
        self.stats.comparisons += int(comps.sum())
        self.stats.node_accesses += int(na.sum())
        return leaf_idx, (comps, na, np.zeros(pos.size, dtype=np.int64))

    def bulk_lookup(self, keys, ranks=None) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized point lookups: each key's position names its leaf."""
        found = self._locate(keys, ranks)
        if found is None:
            return None
        _, counts = self._count_descents(*found)
        self.stats.lookups += counts[0].size
        return counts

    def bulk_update(self, keys, ranks, values) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Overwrite stored keys in call order, priced like a ``get`` each.

        An overwrite descends by the same ``bisect_right`` steps and
        searches its leaf over the same keys as a lookup, and changes no
        node's shape, so the view's per-leaf costs hold as they are.
        """
        found = self._locate(keys, ranks)
        if found is None:
            return None
        view, pos = found
        if len(values) != pos.size:
            raise ValueError(f"{pos.size} keys but {len(values)} values")
        leaf_idx, counts = self._count_descents(view, pos)
        self.stats.inserts += pos.size
        # Leaf ``i`` holds positions ``[ends[i] - size, ends[i])``, so
        # ``pos - ends[i]`` is the value's index from the leaf's end.
        offsets = (pos - view.ends[leaf_idx]).tolist()
        for leaf, offset, value in zip(leaf_idx.tolist(), offsets, values):
            view.leaves[leaf].values[offset] = value
        return counts

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
