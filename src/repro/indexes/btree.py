"""A classic B+ tree, with its leaf level stored as arrays.

This is the traditional baseline structure the learned indexes are
compared against throughout the benchmark. It behaves, and counts, as a
textbook in-memory B+ tree: all values live in leaves, inner nodes hold
separator keys, a lookup descends one node per level, and nodes split
at ``order`` entries.

The leaf level is laid out column-wise, like the array B+ trees that
updatable learned indexes are measured against. Every key sits in one
sorted :class:`SortedKeyBuffer`, and leaf ``i`` is the span
``[ends[i-1], ends[i])`` of it. Values sit in one slot column
(:class:`_ValueSlots`), each at the slot a parallel column names for its
key's position: a new key's value is appended, so adding keys moves slot
numbers, never Python objects. The column reads the loaded values in
place and records only the slots written since, so a load of ranks
builds no per-key object. Only inner nodes are objects. A key's leaf
number is the count of separators at or below it, which is the child a
``bisect_right`` descent picks level by level. A leaf split inserts a boundary into ``ends`` and a
separator into the parent, and no key moves. The vectorized reads and
writes (:meth:`BPlusTree.bulk_lookup`, :meth:`BPlusTree.bulk_apply`)
search the same arrays, and the key-value store snaps against the same
key buffer (:meth:`BPlusTree.key_buffer`), so there is no second copy of
the keys to keep in step.

Deletes never merge or rebalance: a leaf may go sparse or empty, and
separators stay where they are.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.indexes.base import OrderedIndex, sorted_unique_pairs, verified_gaps, verified_ranks
from repro.indexes.keybuffer import PositionTagBuffer, SortedKeyBuffer


class _Node:
    """An inner node: separators, and child nodes unless its children are leaves."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: List[float], children: List["_Node"]) -> None:
        self.keys = keys
        self.children = children


def _step(node: _Node) -> int:
    """Comparisons of one ``bisect`` over ``node``'s separators."""
    return max(1, len(node.keys).bit_length())


def _search_comps(sizes: np.ndarray) -> np.ndarray:
    """``max(1, bit_length)`` of each leaf size: a leaf search's comparisons."""
    # frexp's exponent of a positive integer is its bit_length.
    return np.maximum(1, np.frexp(sizes.astype(np.float64))[1].astype(np.int64))


class _ValueSlots:
    """The value of every slot: the load's values, then the slots written since.

    ``base`` is the value sequence the load handed over (a ``range`` of
    ranks, say), read in place and never written; ``written`` holds every
    slot written or appended since, and wins over ``base``. Slots
    ``[0, len)`` are live.
    """

    __slots__ = ("base", "written", "size")

    def __init__(self, base: Sequence[Any]) -> None:
        self.base = base
        self.written: Dict[int, Any] = {}
        self.size = len(base)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, slot: int) -> Any:
        written = self.written
        return written[slot] if slot in written else self.base[slot]

    def __setitem__(self, slot: int, value: Any) -> None:
        self.written[slot] = value

    def at(self, slots: List[int]) -> List[Any]:
        """The values of ``slots``, in order."""
        written, base = self.written, self.base
        if not written:
            return list(map(base.__getitem__, slots))
        return [written[s] if s in written else base[s] for s in slots]

    def append(self, value: Any) -> None:
        self.written[self.size] = value
        self.size += 1

    def extend(self, count: int) -> None:
        """Append ``count`` slots holding ``None``."""
        self.written.update(dict.fromkeys(range(self.size, self.size + count)))
        self.size += count

    def move_last(self, freed: int) -> None:
        """Free slot ``freed``: the last slot's value moves into it."""
        last = self.size - 1
        if freed != last:
            self.written[freed] = self[last]
        self.written.pop(last, None)
        self.size = last


def _earlier_in_group(groups: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per row, how many ``marked`` rows before it share its group.

    A running count over the rows sorted by group, then row (one sort
    of distinct ``group * rows + row`` keys), minus the count where the
    group starts.
    """
    n = groups.size
    is_marked = np.zeros(n, dtype=np.int64)
    is_marked[marked] = 1
    order = np.argsort(groups * n + np.arange(n))
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

    The leaf level is five arrays in key order: ``_keys`` (every stored
    key), ``_slot`` (each position's slot in ``_values``), ``_leaf_of``
    (each position's leaf number), ``_ends`` (each leaf's end position)
    and ``_seps`` (every separator, one per leaf boundary). ``_path``
    holds, per leaf, the comparisons of the inner nodes on the way down
    to it; every leaf is ``height`` nodes from the root.
    """

    def __init__(self, order: int = 64) -> None:
        super().__init__()
        if order < 3:
            raise ConfigurationError(f"B+ tree order must be >= 3, got {order}")
        self._order = order
        self._build(np.empty(0), [])

    @property
    def order(self) -> int:
        """Maximum number of keys per node."""
        return self._order

    @property
    def height(self) -> int:
        """Current tree height (1 = root is a leaf)."""
        return self._height

    # -- search ---------------------------------------------------------------

    def _descend(self, key: float) -> int:
        """Count a root-to-leaf descent for ``key`` and return its leaf."""
        leaf = int(self._seps.searchsorted(key, side="right"))
        self.stats.node_accesses += self._height
        self.stats.comparisons += int(self._path[leaf])
        return leaf

    def _span(self, leaf: int) -> Tuple[int, int]:
        """Leaf ``leaf``'s positions in ``_keys``, as ``[start, end)``."""
        return (int(self._ends[leaf - 1]) if leaf else 0), int(self._ends[leaf])

    def _locate(self, key: float) -> Tuple[int, bool]:
        """``key``'s insertion point among the stored keys, and whether it is there."""
        keys = self._keys.view
        pos = int(keys.searchsorted(key))
        return pos, pos < keys.size and keys[pos] == key

    def _search(self, key: float) -> Tuple[int, int, bool]:
        """Count a descent and the search of its leaf: ``(leaf, position, found)``."""
        leaf = self._descend(key)
        start, end = self._span(leaf)
        self.stats.comparisons += max(1, (end - start).bit_length())
        return (leaf, *self._locate(key))

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        _, pos, found = self._search(key)
        if found:
            return self._values[self._slot.view.item(pos)]
        raise KeyNotFoundError(key)

    # -- bulk reads and writes -------------------------------------------------

    def _charge(self, comps: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Count a descent per row, ``comps`` comparisons each.

        Commits the comparisons and node accesses, and returns them with
        the (zero) model evaluations as per-row arrays.
        """
        self.stats.comparisons += int(comps.sum())
        self.stats.node_accesses += comps.size * self._height
        return comps, np.full(comps.size, self._height, dtype=np.int64), np.zeros(
            comps.size, dtype=np.int64
        )

    def bulk_lookup(self, keys, ranks=None) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized point lookups: each key's position names its leaf."""
        all_keys = self._keys.view
        if not all_keys.size:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        pos = verified_ranks(ranks, all_keys, keys)
        if pos is None:
            pos = np.searchsorted(all_keys, keys)
            # A key past the end is compared with the last key and differs.
            if not (all_keys[np.minimum(pos, all_keys.size - 1)] == keys).all():
                return None
        self.stats.lookups += pos.size
        # Every row of a leaf costs the same: price each leaf once.
        per_leaf = self._path + _search_comps(np.diff(self._ends, prepend=0))
        return self._charge(per_leaf[self._leaf_of.view[pos]])

    def bulk_apply(
        self, keys, ranks, writes, values
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Gets and inserts in row order up to the first split, each priced
        at its leaf's size then.

        Without a split, a ``get`` and an ``insert`` descend the same
        path and search their leaf over the keys it holds *before* the
        row: the pre-run size plus the new keys earlier rows routed there.
        A write is *new* if its key was not stored before the run and no
        earlier row wrote it; every other write overwrites. A read is of a
        stored key or of a new key an earlier row wrote. A stored key's
        leaf is its position's; a new key's is where the separators route
        it. The rows before the first new key that would split its leaf
        are served: their new keys are merged into the key arrays at once,
        with new value slots, and every write then stores its value at its
        position's slot. ``ranks`` stands in for the search once
        :func:`verified_gaps` proves it. Declines, touching nothing, when
        a read's key is neither stored nor written by an earlier row, or
        when row 0 would split.
        """
        all_keys = self._keys.view
        if not all_keys.size:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        writes = np.asarray(writes, dtype=bool)
        if len(values) != keys.size:
            raise ValueError(f"{keys.size} keys but {len(values)} values")
        pos = verified_gaps(ranks, all_keys, keys)
        if pos is None:
            pos = np.searchsorted(all_keys, keys)
        at = np.minimum(pos, all_keys.size - 1)
        fresh = all_keys[at] != keys
        leaf = self._leaf_of.view[at]
        sizes = np.diff(self._ends, prepend=0)
        size_at = sizes[leaf]
        new_keys = np.empty(0)
        if fresh.any():
            rows = np.flatnonzero(fresh)
            added = rows[writes[rows]]
            new_keys, first = np.unique(keys[added], return_index=True)
            new_rows = added[first]
            reads = rows[~writes[rows]]
            if reads.size:
                # Each must read a new key that an earlier row wrote.
                if not new_keys.size:
                    return None
                which = np.minimum(new_keys.searchsorted(keys[reads]), new_keys.size - 1)
                if ((new_keys[which] != keys[reads]) | (new_rows[which] > reads)).any():
                    return None
            leaf[rows] = self._seps.searchsorted(keys[rows], side="right")
            size_at = sizes[leaf] + _earlier_in_group(leaf, new_rows)
            splits = new_rows[size_at[new_rows] >= self._order]
            if splits.size:
                # A split reshapes the inner nodes: serve the rows before it.
                served = int(splits.min())
                if not served:
                    return None
                keys, writes, pos = keys[:served], writes[:served], pos[:served]
                leaf, size_at = leaf[:served], size_at[:served]
                kept = new_rows < served
                new_keys, new_rows = new_keys[kept], new_rows[kept]
        counts = self._charge(self._path[leaf] + _search_comps(size_at))
        n_writes = int(np.count_nonzero(writes))
        self.stats.lookups += keys.size - n_writes
        self.stats.inserts += n_writes
        if new_keys.size:
            points, new_leaves = pos[new_rows], leaf[new_rows]
            self._keys.merge(points, new_keys)
            self._leaf_of.merge(points, new_leaves)
            appended = len(self._values)
            self._slot.merge(points, np.arange(appended, appended + new_keys.size))
            self._values.extend(new_keys.size)
            self._ends += np.cumsum(np.bincount(new_leaves, minlength=sizes.size))
        write_rows = np.flatnonzero(writes)
        # A write's position after the merge: before it, plus the new keys below it.
        final = pos[write_rows] + new_keys.searchsorted(keys[write_rows])
        # In row order, so a repeated key keeps its last value.
        self._values.written.update(
            zip(self._slot.view[final].tolist(), map(values.__getitem__, write_rows.tolist()))
        )
        return counts

    # -- insert ---------------------------------------------------------------

    def insert(self, key: float, value: Any) -> None:
        self.stats.inserts += 1
        leaf, pos, found = self._search(key)
        if found:
            self._values[self._slot.view.item(pos)] = value
            return
        self._keys.insert_at(pos, key)
        self._leaf_of.insert_at(pos, leaf)
        self._slot.insert_at(pos, len(self._values))
        self._values.append(value)
        self._ends[leaf:] += 1
        start, end = self._span(leaf)
        if end - start > self._order:
            self._split(leaf, start + (end - start) // 2)

    def _split(self, leaf: int, cut: int) -> None:
        """Split ``leaf`` before position ``cut``, whose key becomes the separator.

        The upper half becomes leaf ``leaf + 1``: one more boundary in
        ``ends``, one more leaf number past ``cut``. Then the separator
        goes into the parent, and every inner node that overflows splits
        in turn, the root last. A node that gains a separator, or is
        halved, changes the comparisons of the leaves below it.
        """
        sep = float(self._keys.view[cut])
        self._leaf_of.view[cut:] += 1
        self._ends = np.insert(self._ends, leaf, cut)
        self._seps = np.insert(self._seps, leaf, sep)
        self._path = np.insert(self._path, leaf, self._path[leaf])
        path = []  # (node, child index, lower separator, upper separator), root first
        node, low, high = self._root, None, None
        while node is not None:
            idx = bisect.bisect_right(node.keys, sep)
            path.append((node, idx, low, high))
            low = node.keys[idx - 1] if idx else low
            high = node.keys[idx] if idx < len(node.keys) else high
            node = node.children[idx] if node.children else None
        right = None
        for node, idx, low, high in reversed(path):
            before = _step(node)
            node.keys.insert(idx, sep)
            if right is not None:
                node.children.insert(idx + 1, right)
            if len(node.keys) <= self._order:
                self._reprice(low, high, _step(node) - before)
                return
            mid = len(node.keys) // 2
            sep = node.keys[mid]
            right = _Node(node.keys[mid + 1 :], node.children[mid + 1 :])
            node.keys, node.children = node.keys[:mid], node.children[: mid + 1]
            self._reprice(low, sep, _step(node) - before)
            self._reprice(sep, high, _step(right) - before)
        self._root = _Node([sep], [] if right is None else [self._root, right])
        self._height += 1
        self._path += 1

    def _reprice(self, low: Optional[float], high: Optional[float], delta: int) -> None:
        """Add ``delta`` comparisons to every leaf between separators ``low`` and ``high``."""
        if delta:
            seps = self._seps
            first = 0 if low is None else int(seps.searchsorted(low, side="right"))
            end = seps.size + 1 if high is None else int(seps.searchsorted(high, side="right"))
            self._path[first:end] += delta

    # -- delete ---------------------------------------------------------------

    def delete(self, key: float) -> None:
        """Remove ``key``; the descent is counted, the leaf search is not.

        The last value slot moves into the freed one, so ``_values``
        holds exactly the stored keys' values.
        """
        leaf = self._descend(key)
        pos, found = self._locate(key)
        if not found:
            raise KeyNotFoundError(key)
        slots = self._slot.view
        freed = int(slots[pos])
        slots[slots == len(self._values) - 1] = freed
        self._values.move_last(freed)
        self._keys.delete_at(pos)
        self._leaf_of.delete_at(pos)
        self._slot.delete_at(pos)
        self._ends[leaf:] -= 1
        self.stats.deletes += 1

    # -- range / iteration ------------------------------------------------------

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        """Pairs in ``[low, high]``, counted as a walk along the leaves.

        The walk starts at ``low``'s leaf and stops in the leaf holding
        the first key at or past ``low`` that is above ``high``, or at
        the last leaf; each leaf it enters is one more node access.
        """
        self.stats.range_scans += 1
        first = self._descend(low)
        keys = self._keys.view
        start = int(keys.searchsorted(low))
        stop = max(start, int(keys.searchsorted(high, side="right")))
        last = min(int(self._ends.searchsorted(stop, side="right")), self._ends.size - 1)
        self.stats.node_accesses += last - first + 1
        return list(zip(keys[start:stop].tolist(), self._values_at(start, stop)))

    def _values_at(self, start: int, stop: int) -> List[Any]:
        """The values of positions ``[start, stop)``, in key order."""
        return self._values.at(self._slot.view[start:stop].tolist())

    def items(self) -> Iterator[Tuple[float, Any]]:
        return zip(self._keys.view.tolist(), self._values_at(0, len(self)))

    def key_buffer(self) -> SortedKeyBuffer:
        """The leaf level's own key array, ``_keys``."""
        return self._keys

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Build bottom-up from sorted pairs (deduplicated by last wins).

        The value sequence is kept as handed over, as the read-only base
        of the slot column: no per-key object is built.
        """
        keys, values = sorted_unique_pairs(pairs)
        self.stats.inserts += keys.size
        self._build(keys, values)

    def _build(self, keys: np.ndarray, values: Sequence[Any]) -> None:
        """Lay out ``keys`` (ascending, unique) in half-full leaves, then the
        inner levels over them: groups of ``(order + 1) // 2 + 1`` children,
        a lone trailing child folded into the group before it."""
        per_leaf = (self._order + 1) // 2
        n = keys.size
        n_leaves = max(1, -(-n // per_leaf))
        self._keys = SortedKeyBuffer(keys)
        self._values = _ValueSlots(values)
        self._slot = PositionTagBuffer(np.arange(n))
        self._leaf_of = PositionTagBuffer(np.arange(n) // per_leaf)
        self._ends = np.minimum(np.arange(1, n_leaves + 1) * per_leaf, n)
        self._seps = keys[per_leaf::per_leaf].copy()
        self._path = np.zeros(n_leaves, dtype=np.int64)
        self._height = 1
        mins = keys[::per_leaf]  # each leaf's first key: the separator before it
        per_inner = (self._order + 1) // 2 + 1
        firsts = np.arange(n_leaves)  # the first leaf below each node of the level
        level: List[_Node] = []
        while firsts.size > 1:
            cuts = np.arange(0, firsts.size, per_inner)
            if firsts.size - cuts[-1] == 1:
                cuts = cuts[:-1]
            bounds = np.append(cuts, firsts.size).tolist()
            level = [
                _Node(mins[firsts[a + 1 : b]].tolist(), level[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            firsts = firsts[cuts]
            spans = np.diff(np.append(firsts, n_leaves))
            self._path += np.repeat([_step(node) for node in level], spans)
            self._height += 1
        self._root = level[0] if level else None

    def size_bytes(self) -> int:
        """Keys + child/value pointers + per-node header (64 B).

        Counted as node objects hold them: a leaf holds a key and a value
        pointer per entry, and an inner node its separators plus one more
        child pointer than separators.
        """
        inner, stack = 0, [self._root] if self._root else []
        while stack:
            inner += 1
            stack.extend(stack.pop().children)
        entries = 2 * len(self) + 2 * self._seps.size + inner
        return entries * 8 + (self._ends.size + inner) * 64

    def __len__(self) -> int:
        return len(self._keys)
