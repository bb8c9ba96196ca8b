"""SSD-Cache: the in-SSD DRAM page cache behind the byte interface.

NAND flash is page-granular, so the byte-addressable interface is bridged by
a cache held in the SSD controller's DRAM (the memory freed by merging the
FTL into the host page table, §3.1).  The cache is set-associative over
flash pages, uses RRIP replacement (§3.4), and each entry carries the
``pageCnt`` access counter that feeds the adaptive promotion algorithm.

Entries are keyed by *logical* page number: lpn↔ppn is one-to-one, so this
is equivalent to physical-address indexing but stays stable across GC
relocation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.stats import StatRegistry
from repro.ssd.rrip import RRIPSet
from repro.units import LPN


class LRUSet:
    """LRU replacement with the same per-set interface as :class:`RRIPSet`.

    Exists for the replacement-policy ablation; RRIP is the paper's choice.
    """

    def __init__(self, num_ways: int) -> None:
        if num_ways <= 0:
            raise ValueError(f"num_ways must be > 0, got {num_ways}")
        self.num_ways = num_ways
        self._stamp = 0
        self._last_use: List[int] = [-1] * num_ways

    def _touch(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def on_insert(self, way: int) -> None:
        self._touch(way)

    def select_victim(self, occupied: List[bool]) -> int:
        for way, used in enumerate(occupied):
            if not used:
                return way
        return min(range(self.num_ways), key=lambda w: self._last_use[w])

    def reset_way(self, way: int) -> None:
        self._last_use[way] = -1


class CacheEntry:
    """One cached flash page."""

    __slots__ = ("lpn", "dirty", "page_cnt", "data")

    def __init__(self, lpn: LPN, data: Optional[bytearray], dirty: bool) -> None:
        self.lpn = lpn
        self.dirty = dirty
        self.page_cnt = 0  # promotion access counter (Algorithm 1)
        self.data = data


EvictHook = Callable[[CacheEntry], None]


class SSDCache:
    """Set-associative page cache with RRIP (or LRU) replacement."""

    def __init__(
        self,
        num_pages: int,
        ways: int,
        page_size: int,
        track_data: bool = True,
        policy: str = "rrip",
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be > 0, got {num_pages}")
        if ways <= 0 or num_pages < ways:
            raise ValueError(f"invalid ways={ways} for {num_pages} pages")
        if policy not in ("rrip", "lru"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.ways = ways
        self.num_sets = max(1, num_pages // ways)
        self.page_size = page_size
        self.track_data = track_data
        self.policy_name = policy
        self._entries: List[List[Optional[CacheEntry]]] = [
            [None] * ways for _ in range(self.num_sets)
        ]
        if policy == "rrip":
            self._policies = [RRIPSet(ways) for _ in range(self.num_sets)]
        else:
            self._policies = [LRUSet(ways) for _ in range(self.num_sets)]
        self._where: Dict[LPN, int] = {}  # lpn -> set*ways + way
        self._evict_hooks: List[EvictHook] = []
        self.stats = stats if stats is not None else StatRegistry()
        self._hit_ratio = self.stats.ratio("ssd_cache.hits")
        self._evictions = self.stats.counter("ssd_cache.evictions")
        self._dirty_evictions = self.stats.counter("ssd_cache.dirty_evictions")

    @property
    def capacity_pages(self) -> int:
        return self.num_sets * self.ways

    @property
    def occupancy(self) -> int:
        return len(self._where)

    def add_evict_hook(self, hook: EvictHook) -> None:
        """Called with the entry about to be evicted (ADJUST_CNT, Alg. 1)."""
        self._evict_hooks.append(hook)

    def contains(self, lpn: LPN) -> bool:
        return lpn in self._where

    def lookup(self, lpn: LPN) -> Optional[CacheEntry]:
        """Find a cached page; a hit refreshes the replacement state."""
        slot = self._where.get(lpn)
        if slot is None:
            self._hit_ratio.record(False)
            return None
        set_index, way = divmod(slot, self.ways)
        self._hit_ratio.record(True)
        self._policies[set_index].on_hit(way)
        return self._entries[set_index][way]

    def peek(self, lpn: LPN) -> Optional[CacheEntry]:
        """Find a cached page without touching replacement or hit stats."""
        slot = self._where.get(lpn)
        if slot is None:
            return None
        return self._entries[slot // self.ways][slot % self.ways]

    def insert(
        self, lpn: LPN, data: Optional[bytes] = None, dirty: bool = False
    ) -> CacheEntry:
        """Install a page; returns its new entry.

        An entry evicted to make room is handed to the eviction hooks (so
        the promotion manager can retire its counters and, when the entry
        is dirty, the device can write it back).
        """
        if lpn in self._where:
            raise ValueError(f"lpn {lpn} is already cached; use lookup/write")
        set_index = lpn % self.num_sets
        policy = self._policies[set_index]
        row = self._entries[set_index]
        occupied = [entry is not None for entry in row]
        way = policy.select_victim(occupied)
        victim = row[way]
        if victim is not None:
            for hook in self._evict_hooks:
                hook(victim)
            self._evictions.add()
            if victim.dirty:
                self._dirty_evictions.add()
            del self._where[victim.lpn]
        payload: Optional[bytearray] = None
        if self.track_data:
            if data is not None and len(data) != self.page_size:
                raise ValueError(
                    f"page data must be {self.page_size} bytes, got {len(data)}"
                )
            payload = bytearray(data) if data is not None else bytearray(self.page_size)
        entry = CacheEntry(lpn, payload, dirty)
        row[way] = entry
        self._where[lpn] = set_index * self.ways + way
        policy.on_insert(way)
        return entry

    def invalidate(self, lpn: LPN) -> Optional[CacheEntry]:
        """Drop a page (e.g. it was promoted to host DRAM); returns it."""
        slot = self._where.pop(lpn, None)
        if slot is None:
            return None
        set_index, way = divmod(slot, self.ways)
        entry = self._entries[set_index][way]
        self._entries[set_index][way] = None
        self._policies[set_index].reset_way(way)
        return entry

    def clear(self) -> None:
        """Drop every entry without firing eviction hooks (power loss)."""
        for set_index, row in enumerate(self._entries):
            policy = self._policies[set_index]
            for way in range(self.ways):
                if row[way] is not None:
                    row[way] = None
                    policy.reset_way(way)
        self._where.clear()

    def dirty_entries(self) -> List[CacheEntry]:
        """All dirty entries, for the GC's periodic write-back (§4)."""
        dirty = []
        for row in self._entries:
            for entry in row:
                if entry is not None and entry.dirty:
                    dirty.append(entry)
        return dirty

    @property
    def hit_ratio(self) -> float:
        return self._hit_ratio.ratio
