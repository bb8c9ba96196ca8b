"""A B+-tree index stored in unified memory.

A concrete "downstream user" of the FlatFlash programming model: every
node is one page of a mapped region, traversals issue real loads through
the memory hierarchy, and updates issue real stores — so index lookups on
SSD-resident nodes ride byte-granular MMIO while hot upper levels promote
to DRAM automatically.  The tree works unchanged (and is tested) on every
memory system in the package.

Node layout (one page per node, little endian)::

    u8  node type (1 = leaf, 2 = inner)
    u16 key count              (at offset 2)
    u64 next-leaf page         (at offset 8; leaves only, ~0 = none)
    keys   [max_keys x u64]    (at offset 16)
    values [max_keys x u64]    (leaves)  |  children [max_keys+1 x u64]

Keys are unsigned 64-bit; values are unsigned 64-bit payloads.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.core.memory_system import MemorySystem

_LEAF = 1
_INNER = 2
_NO_LEAF = (1 << 64) - 1
_HEADER_SIZE = 16
_U64 = struct.Struct("<Q")
_U16 = struct.Struct("<H")


class BPlusTree:
    """An order-configurable B+-tree over a mapped region."""

    def __init__(
        self,
        system: MemorySystem,
        capacity_pages: int = 64,
        max_keys: Optional[int] = None,
        name: str = "btree",
    ) -> None:
        if capacity_pages < 2:
            raise ValueError(f"need at least 2 pages, got {capacity_pages}")
        self.system = system
        self.page_size = system.page_size
        # Arrays carry two spare key slots (and three child slots) so a
        # node may hold max_keys+1 entries transiently while splitting.
        natural = (self.page_size - _HEADER_SIZE - 5 * 8) // 16
        self.max_keys = natural if max_keys is None else max_keys
        if not 2 <= self.max_keys <= natural:
            raise ValueError(f"max_keys must be in [2, {natural}], got {self.max_keys}")
        self.region = system.mmap(capacity_pages, name=name)
        self._next_free = 0
        self._size = 0
        self.root = self._alloc_node(_LEAF)

    # ------------------------------------------------------------------ #
    # Raw node field access (every call is a real memory access)
    # ------------------------------------------------------------------ #

    def _page_addr(self, page: int, offset: int) -> int:
        return self.region.page_addr(page, offset)

    def _alloc_node(self, node_type: int) -> int:
        if self._next_free >= self.region.num_pages:
            raise MemoryError(
                f"B+-tree out of pages ({self.region.num_pages}); "
                "grow capacity_pages"
            )
        page = self._next_free
        self._next_free += 1
        self.system.store(self._page_addr(page, 0), 1, bytes([node_type]))
        self._set_count(page, 0)
        if node_type == _LEAF:
            self._set_next_leaf(page, _NO_LEAF)
        return page

    def _node_type(self, page: int) -> int:
        data = self.system.load(self._page_addr(page, 0), 1).data
        return data[0] if data else _LEAF

    def _count(self, page: int) -> int:
        data = self.system.load(self._page_addr(page, 2), 2).data
        return _U16.unpack(data)[0] if data else 0

    def _set_count(self, page: int, count: int) -> None:
        self.system.store(self._page_addr(page, 2), 2, _U16.pack(count))

    def _next_leaf(self, page: int) -> int:
        value, _ = self.system.load_u64(self._page_addr(page, 8))
        return value

    def _set_next_leaf(self, page: int, target: int) -> None:
        self.system.store_u64(self._page_addr(page, 8), target)

    def _key_off(self, index: int) -> int:
        return _HEADER_SIZE + index * 8

    def _val_off(self, index: int) -> int:
        return _HEADER_SIZE + (self.max_keys + 2) * 8 + index * 8

    def _key(self, page: int, index: int) -> int:
        value, _ = self.system.load_u64(self._page_addr(page, self._key_off(index)))
        return value

    def _set_key(self, page: int, index: int, key: int) -> None:
        self.system.store_u64(self._page_addr(page, self._key_off(index)), key)

    def _value(self, page: int, index: int) -> int:
        value, _ = self.system.load_u64(self._page_addr(page, self._val_off(index)))
        return value

    def _set_value(self, page: int, index: int, value: int) -> None:
        self.system.store_u64(self._page_addr(page, self._val_off(index)), value)

    # children share the value slots, plus one extra at index max_keys
    _child = _value
    _set_child = _set_value

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def _lower_bound(self, page: int, count: int, key: int) -> int:
        """First index whose key is >= key (binary search, real loads)."""
        low, high = 0, count
        while low < high:
            mid = (low + high) // 2
            if self._key(page, mid) < key:
                low = mid + 1
            else:
                high = mid
        return low

    def _descend(self, key: int) -> List[int]:
        """Root-to-leaf path for a key."""
        path = [self.root]
        while self._node_type(path[-1]) == _INNER:
            page = path[-1]
            count = self._count(page)
            index = self._lower_bound(page, count, key)
            if index < count and self._key(page, index) == key:
                index += 1  # equal separator: go right
            path.append(self._child(page, index))
        return path

    def get(self, key: int) -> Optional[int]:
        """Look up a key; None when absent."""
        leaf = self._descend(key)[-1]
        count = self._count(leaf)
        index = self._lower_bound(leaf, count, key)
        if index < count and self._key(leaf, index) == key:
            return self._value(leaf, index)
        return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #

    def insert(self, key: int, value: int) -> None:
        """Insert or update ``key``."""
        if not 0 <= key < _NO_LEAF:
            raise ValueError(f"key {key} out of u64 range")
        path = self._descend(key)
        leaf = path[-1]
        count = self._count(leaf)
        index = self._lower_bound(leaf, count, key)
        if index < count and self._key(leaf, index) == key:
            self._set_value(leaf, index, value)
            return
        self._shift_right(leaf, index, count, leaf_node=True)
        self._set_key(leaf, index, key)
        self._set_value(leaf, index, value)
        self._set_count(leaf, count + 1)
        self._size += 1
        if count + 1 > self.max_keys:
            self._split(path)

    def _shift_right(self, page: int, index: int, count: int, leaf_node: bool) -> None:
        """Open a slot at ``index`` by shifting entries right."""
        for slot in range(count, index, -1):
            self._set_key(page, slot, self._key(page, slot - 1))
            self._set_value(page, slot, self._value(page, slot - 1))
        if not leaf_node:
            self._set_child(page, count + 1, self._child(page, count))

    def _split(self, path: List[int]) -> None:
        """Split the overfull tail node of ``path``, propagating upward."""
        node = path[-1]
        is_leaf = self._node_type(node) == _LEAF
        count = self._count(node)
        half = count // 2
        sibling = self._alloc_node(_LEAF if is_leaf else _INNER)
        if is_leaf:
            moved = count - half
            for slot in range(moved):
                self._set_key(sibling, slot, self._key(node, half + slot))
                self._set_value(sibling, slot, self._value(node, half + slot))
            self._set_count(sibling, moved)
            self._set_count(node, half)
            self._set_next_leaf(sibling, self._next_leaf(node))
            self._set_next_leaf(node, sibling)
            separator = self._key(sibling, 0)
        else:
            # Middle key moves up; right half goes to the sibling.
            separator = self._key(node, half)
            moved = count - half - 1
            for slot in range(moved):
                self._set_key(sibling, slot, self._key(node, half + 1 + slot))
                self._set_child(sibling, slot, self._child(node, half + 1 + slot))
            self._set_child(sibling, moved, self._child(node, count))
            self._set_count(sibling, moved)
            self._set_count(node, half)
        self._insert_into_parent(path, node, separator, sibling)

    def _insert_into_parent(
        self, path: List[int], left: int, separator: int, right: int
    ) -> None:
        if len(path) == 1:  # splitting the root: grow the tree
            new_root = self._alloc_node(_INNER)
            self._set_key(new_root, 0, separator)
            self._set_child(new_root, 0, left)
            self._set_child(new_root, 1, right)
            self._set_count(new_root, 1)
            self.root = new_root
            return
        parent = path[-2]
        count = self._count(parent)
        index = self._lower_bound(parent, count, separator)
        # Shift keys and children right of the insertion point.
        self._set_child(parent, count + 1, self._child(parent, count))
        for slot in range(count, index, -1):
            self._set_key(parent, slot, self._key(parent, slot - 1))
            self._set_child(parent, slot + 1, self._child(parent, slot))
        self._set_key(parent, index, separator)
        self._set_child(parent, index + 1, right)
        self._set_count(parent, count + 1)
        if count + 1 > self.max_keys:
            self._split(path[:-1])

    # ------------------------------------------------------------------ #
    # Range scan
    # ------------------------------------------------------------------ #

    def scan(self, low: int, high: int) -> Iterator[Tuple[int, int]]:
        """Yield (key, value) for low <= key < high, leaf-chain order."""
        if low >= high:
            return
        leaf = self._descend(low)[-1]
        while leaf != _NO_LEAF:
            count = self._count(leaf)
            for index in range(count):
                key = self._key(leaf, index)
                if key >= high:
                    return
                if key >= low:
                    yield key, self._value(leaf, index)
            leaf = self._next_leaf(leaf)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Every (key, value), in key order."""
        return self.scan(0, _NO_LEAF)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # YCSB-E driver (scan-heavy workload over the ordered index)
    # ------------------------------------------------------------------ #

    def run_ycsb_e(
        self,
        num_ops: int,
        num_records: int,
        max_scan_length: int = 50,
        theta: float = 0.99,
        seed: int = 41,
    ):
        """YCSB workload E: 95 % short range scans / 5 % inserts.

        The tree must be preloaded with keys ``[0, num_records)``.  Returns
        per-operation latency statistics (scan latency = the whole range
        traversal through the memory hierarchy).
        """
        import numpy as np

        from repro.sim.stats import LatencyStats
        from repro.workloads.zipfian import ZipfianGenerator

        if num_ops <= 0 or num_records <= 0:
            raise ValueError("num_ops and num_records must be > 0")
        if max_scan_length <= 0:
            raise ValueError(f"max_scan_length must be > 0, got {max_scan_length}")
        rng = np.random.default_rng(seed)
        zipf = ZipfianGenerator(num_records, theta=theta, seed=seed + 1)
        stats = LatencyStats("YCSB-E")
        next_insert = num_records
        for _ in range(num_ops):
            start_ns = self.system.clock.now
            if rng.random() < 0.05:
                self.insert(next_insert, next_insert)
                next_insert += 1
            else:
                start_key = int(zipf.sample_scattered(1)[0])
                length = int(rng.integers(1, max_scan_length + 1))
                for _pair in self.scan(start_key, start_key + length):
                    pass
            stats.record(self.system.clock.now - start_ns)
        return stats

    @property
    def height(self) -> int:
        """Levels from root to leaf (1 for a lone leaf)."""
        level, page = 1, self.root
        while self._node_type(page) == _INNER:
            page = self._child(page, 0)
            level += 1
        return level
