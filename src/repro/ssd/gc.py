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
adds the cache-folding policy (installed as the FTL's ``page_source``) and
the dirty-page destage: one entry for an SSD-Cache victim, or every dirty
page for a battery-backed crash.
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
        stats: Optional[StatRegistry] = None,
    ) -> None:
        self.flash = flash
        self.ftl = ftl
        self.cache = cache
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

    def flush_dirty(self) -> TimeNs:
        """Destage every dirty page; returns ns spent.

        The cost is charged to ``gc.background_ns`` rather than to any
        foreground access.
        """
        cost = 0
        for entry in self.cache.dirty_entries():
            cost += self.flush_entry(entry)
        if self.flash.sanitizer is not None:
            self.flash.sanitizer.check_accounting(
                len(self.ftl.mapping), context="dirty-page destage"
            )
        return cost

    @property
    def retired_blocks(self) -> int:
        """Blocks retired as bad — erase failures plus wear-limit hits
        (repro.faults).  Spare capacity GC can no longer use."""
        return sum(self.flash.bad)
