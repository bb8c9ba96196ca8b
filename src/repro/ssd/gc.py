"""Read-modify-write garbage collection with SSD-Cache destaging.

FlatFlash does not write dirty SSD-Cache pages back on the access path;
instead the SSD's garbage collector collects them periodically (§3.2, §4):

* **read phase** — GC reads a victim flash block;
* **modify phase** — invalid/stale pages in the in-memory copy are
  overwritten with the dirty pages from the SSD-Cache;
* **write phase** — the merged copy is written to a free block, and the
  moved pages' PTE/TLB entries are updated lazily through the device's
  remap table.

The relocation mechanics live in :class:`repro.ssd.ftl.PageFTL`; this class
adds the cache-folding policy and a periodic ``flush_dirty`` destage used
when the cache pressure (dirty ratio) grows.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.stats import StatRegistry
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.ssd_cache import CacheEntry, SSDCache
from repro.units import LPN, TimeNs


class GarbageCollector:
    """Couples the FTL's relocation GC with SSD-Cache dirty-page folding."""

    def __init__(
        self,
        flash: FlashArray,
        ftl: PageFTL,
        cache: SSDCache,
        dirty_ratio_limit: float = 0.5,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if not 0.0 < dirty_ratio_limit <= 1.0:
            raise ValueError(
                f"dirty_ratio_limit must be in (0, 1], got {dirty_ratio_limit}"
            )
        self.flash = flash
        self.ftl = ftl
        self.cache = cache
        self.dirty_ratio_limit = dirty_ratio_limit
        self.stats = stats if stats is not None else StatRegistry()
        self._folded = self.stats.counter("gc.cache_pages_folded")
        self._flushed = self.stats.counter("gc.dirty_pages_flushed")
        self._background_ns = self.stats.counter("gc.background_ns")
        # Fold dirty cache contents into relocated pages during FTL GC.
        ftl.page_source = self._fresh_copy

    def _fresh_copy(self, lpn: LPN) -> Optional[bytes]:
        """FTL GC callback: newest data for ``lpn`` if the cache holds it dirty."""
        entry = self.cache.peek(lpn)
        if entry is None or not entry.dirty:
            return None
        self._folded.add()
        entry.dirty = False  # the relocated flash copy is now current
        if entry.data is None:
            return None
        return bytes(entry.data)

    # ------------------------------------------------------------------ #
    # Dirty-page destaging
    # ------------------------------------------------------------------ #

    @property
    def dirty_ratio(self) -> float:
        """Dirty pages as a fraction of cache capacity."""
        dirty = len(self.cache.dirty_entries())
        return dirty / self.cache.capacity_pages

    def flush_entry(self, entry: CacheEntry) -> TimeNs:
        """Write one dirty cache entry back to flash; returns cost in ns."""
        if not entry.dirty:
            return 0
        data = bytes(entry.data) if entry.data is not None else None
        _new_ppn, cost = self.ftl.write(entry.lpn, data)
        entry.dirty = False
        self._flushed.add()
        self._background_ns.add(cost)
        return cost

    def flush_dirty(self, limit: Optional[int] = None) -> TimeNs:
        """Destage dirty pages (all, or at most ``limit``); returns ns spent.

        This models the periodic background write-back; its cost is charged
        to ``gc.background_ns`` rather than to any foreground access.
        """
        cost = 0
        for count, entry in enumerate(self.cache.dirty_entries()):
            if limit is not None and count >= limit:
                break
            cost += self.flush_entry(entry)
        if self.flash.sanitizer is not None:
            self.flash.sanitizer.check_accounting(
                len(self.ftl.mapping), context="dirty-page destage"
            )
        return cost

    def maybe_flush(self) -> TimeNs:
        """Destage when the dirty ratio exceeds the configured limit."""
        if self.dirty_ratio >= self.dirty_ratio_limit:
            return self.flush_dirty()
        return 0

    def collect(self) -> TimeNs:
        """Run one foreground-independent GC pass; returns ns spent."""
        cost = self.ftl.collect_garbage()
        self._background_ns.add(cost)
        if self.flash.sanitizer is not None:
            # A GC cycle must neither leak valid pages (relocated but not
            # invalidated) nor leave dangling mappings.
            self.flash.sanitizer.check_accounting(
                len(self.ftl.mapping), context="GC collect"
            )
        return cost

    @property
    def background_ns(self) -> int:
        return self._background_ns.value

    @property
    def retired_blocks(self) -> int:
        """Blocks retired as bad — erase failures plus wear-limit hits
        (repro.faults).  Spare capacity GC can no longer use."""
        return sum(1 for block in self.flash.blocks if block.bad)
