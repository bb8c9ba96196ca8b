"""The byte-addressable SSD: dual byte/block interface over flash.

This is the device FlatFlash's host stack talks to.  It combines:

* a :class:`~repro.ssd.flash.FlashArray` (NAND timing/wear),
* a :class:`~repro.ssd.ftl.PageFTL` (out-of-place mapping),
* an :class:`~repro.ssd.ssd_cache.SSDCache` (controller DRAM bridging the
  byte interface to page-granular flash, §3.1),
* a :class:`~repro.ssd.gc.GarbageCollector` (read-modify-write GC that
  periodically destages dirty cache pages, §4),
* a :class:`~repro.interconnect.pcie.PCIeLink` (MMIO/DMA costs, BAR).

Two FTL placements are supported:

* ``host_merged_ftl=True`` (FlatFlash / UnifiedMMap): host PTEs hold flash
  physical page numbers; GC relocation is absorbed by a *remap table* that
  the host drains lazily in batches (§4).
* ``host_merged_ftl=False`` (TraditionalStack): the host addresses logical
  pages and every access pays a device-side FTL lookup.

The device never advances a clock itself — every operation returns its cost
in nanoseconds, and callers (the memory systems) charge it appropriately.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.config import FlatFlashConfig
from repro.faults.plan import FaultInjector
from repro.interconnect.pcie import BarWindow, PCIeLink
from repro.sim.sanitizers import FlashSanitizer, PersistenceSanitizer
from repro.sim.stats import StatRegistry
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.ssd_cache import CacheEntry, SSDCache
from repro.units import LPN, PPN, HostPage, OffsetBytes, TimeNs

#: Host physical base address of the SSD BAR window (1 TiB mark, far above DRAM).
DEFAULT_BAR_BASE = 1 << 40


class PromotionSink(Protocol):
    """What the device needs from a promotion manager (Algorithm 1 hooks)."""

    def update(self, entry: CacheEntry) -> None:
        """Called on every memory access served by the SSD."""

    def adjust_cnt(self, entry: CacheEntry) -> None:
        """Called when a page is evicted from the SSD-Cache."""


class MMIOResult:
    """Outcome of one MMIO access."""

    __slots__ = ("latency_ns", "data", "cache_hit")

    def __init__(self, latency_ns: int, data: Optional[bytes], cache_hit: bool) -> None:
        self.latency_ns = latency_ns
        self.data = data
        self.cache_hit = cache_hit

    def __repr__(self) -> str:
        return (
            f"MMIOResult(latency={self.latency_ns}ns, hit={self.cache_hit}, "
            f"data={'yes' if self.data is not None else 'no'})"
        )


class ByteAddressableSSD:
    """A PCIe SSD exposing both byte (MMIO) and block (DMA) interfaces."""

    def __init__(
        self,
        config: FlatFlashConfig,
        host_merged_ftl: bool = True,
        bar_base: int = DEFAULT_BAR_BASE,
        cache_policy: str = "rrip",
        stats: Optional[StatRegistry] = None,
        device_id: Optional[int] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.host_merged_ftl = host_merged_ftl
        #: Fleet position (None = standalone device).  Only used to
        #: namespace the fault injector's RNG streams per device.
        self.device_id = device_id
        self.stats = stats if stats is not None else StatRegistry()
        geometry = config.geometry
        latency = config.latency

        # Flash sized so the exported capacity fits under over-provisioning
        # with the FTL's two spare blocks.
        # Runtime invariant sanitizers (opt-in via config.sanitizers).
        self.flash_sanitizer = FlashSanitizer() if config.sanitizers.flash else None
        self.persistence_sanitizer = (
            PersistenceSanitizer() if config.sanitizers.persistence else None
        )

        # Fault injection (repro.faults): constructed only when the config
        # can ever fire a fault, so zero-rate runs take the exact baseline
        # code paths.  Fleet members get a per-device namespace so one
        # device's traffic never perturbs another's fault schedule.
        namespace = "" if device_id is None else f"dev{device_id}"
        self.faults = (
            FaultInjector(config.faults, namespace=namespace)
            if config.faults.active
            else None
        )

        ppb = geometry.flash_pages_per_block
        exported_blocks = -(-geometry.ssd_pages // ppb)
        spare = max(2, int(exported_blocks * geometry.flash_overprovision) + 1)
        num_blocks = exported_blocks + spare
        self.flash = FlashArray(
            num_blocks=num_blocks,
            pages_per_block=ppb,
            page_size=geometry.page_size,
            latency=latency,
            track_data=config.track_data,
            num_channels=geometry.flash_channels,
            stats=self.stats,
            sanitizer=self.flash_sanitizer,
            faults=self.faults,
        )
        self.ftl = PageFTL(self.flash, overprovision=0.0, stats=self.stats)
        # Trim the export to exactly the configured capacity.
        self.ftl.exported_pages = min(self.ftl.exported_pages, geometry.ssd_pages)
        self.cache = SSDCache(
            num_pages=geometry.resolved_ssd_cache_pages(),
            ways=geometry.ssd_cache_ways,
            page_size=geometry.page_size,
            track_data=config.track_data,
            policy=cache_policy,
            stats=self.stats,
        )
        self.gc = GarbageCollector(self.flash, self.ftl, self.cache, stats=self.stats)
        self.pcie = PCIeLink(
            latency,
            geometry.cacheline_size,
            stats=self.stats,
            persistence_sanitizer=self.persistence_sanitizer,
            faults=self.faults,
        )

        # BAR spans the raw flash in host-merged mode (PTEs hold ppns) or
        # the logical export when the FTL stays in the device.
        span_pages = self.flash.total_pages if host_merged_ftl else self.ftl.exported_pages
        self.bar = BarWindow(bar_base, span_pages * geometry.page_size)

        # GC remap table: old ppn -> new ppn, drained lazily by the host.
        # The reverse index (target ppn -> sources pointing at it) keeps
        # chain collapsing O(chain length) instead of O(table size).
        self._remap: Dict[int, int] = {}
        self._remap_sources: Dict[int, List[int]] = {}
        if host_merged_ftl:
            self.ftl.add_relocate_hook(self._on_relocate)

        self.promotion_manager: Optional[PromotionSink] = None
        self.cache.add_evict_hook(self._on_cache_evict)
        self._pending_writeback_ns = 0

        self._mmio_reads = self.stats.counter("ssd.mmio_reads")
        self._mmio_writes = self.stats.counter("ssd.mmio_writes")
        self._fills = self.stats.counter("ssd.cache_fills")
        self._durable_writes = self.stats.counter("ssd.durable_writes")
        # Cacheable-MMIO fast-path misses: a peek/poke that could not be
        # served coherently and fell back to a full MMIO transaction.
        self._peek_misses = self.stats.counter("ssd.peek_misses")
        self._poke_misses = self.stats.counter("ssd.poke_misses")
        # Posted persist-writes not yet fenced by a write-verify read: these
        # are the writes a power failure can lose (undo data kept so crash()
        # can revert them).  Cleared by verify_read().
        self._posted_log: List[Tuple[int, int, Optional[bytes]]] = []

    def register_shared(self, recorder) -> None:
        """Name the device's shared objects for the dynamic access
        recorder (:class:`repro.sim.race.AccessRecorder`): every DES
        process of one memory system funnels into this device, so its
        FTL, SSD-Cache and GC state are the prime race candidates."""
        recorder.register(self, "ssd")
        recorder.register(self.ftl, "ssd.ftl")
        recorder.register(self.cache, "ssd.cache")
        recorder.register(self.gc, "ssd.gc")
        recorder.register(self.flash, "ssd.flash")
        recorder.register(self._mmio_reads, "ssd.mmio_reads")
        recorder.register(self._mmio_writes, "ssd.mmio_writes")
        recorder.register(self._fills, "ssd.cache_fills")
        recorder.register(self._durable_writes, "ssd.durable_writes")

    # ------------------------------------------------------------------ #
    # Address handling
    # ------------------------------------------------------------------ #

    @property
    def exported_pages(self) -> int:
        return self.ftl.exported_pages

    def _on_relocate(self, lpn: int, old_ppn: int, new_ppn: int) -> None:
        # Collapse chains so lookups stay O(1): anything that pointed at
        # old_ppn now points at new_ppn directly.
        remap = self._remap
        index = self._remap_sources
        sources = index.pop(old_ppn, None)
        if sources:
            for source in sources:
                remap[source] = new_ppn
            index.setdefault(new_ppn, []).extend(sources)
        prev = remap.get(old_ppn)
        if prev is not None:
            if prev == new_ppn:
                return
            bucket = index.get(prev)
            if bucket is not None:
                bucket.remove(old_ppn)
        remap[old_ppn] = new_ppn
        index.setdefault(new_ppn, []).append(old_ppn)

    def _rebuild_remap_index(self) -> None:
        index: Dict[int, List[int]] = {}
        for source, target in self._remap.items():
            index.setdefault(target, []).append(source)
        self._remap_sources = index

    def _on_cache_evict(self, entry: CacheEntry) -> None:
        if self.promotion_manager is not None:
            self.promotion_manager.adjust_cnt(entry)
        if entry.dirty:
            # Dirty victim: destage through the FTL.  Charged to background
            # time (the paper's GC handles write-back off the access path).
            self._pending_writeback_ns += self.gc.flush_entry(entry)

    def resolve_lpn(self, host_page: HostPage) -> LPN:
        """Translate a host-visible device page number to its lpn.

        This is one of the two sanctioned address puns (with
        :meth:`host_page_of`): in host-merged mode the BAR page number *is*
        a flash ppn, in device-FTL mode it *is* the lpn.  The explicit
        domain casts are the permission slip for that reinterpretation.
        """
        if self.host_merged_ftl:
            # The pun proper: reinterpret the BAR page number as a flash
            # ppn first, then chase any pending GC relocations (the remap
            # table lives entirely in ppn space).
            ppn = PPN(host_page)
            ppn = self._remap.get(ppn, ppn)
            lpn = self.ftl.lpn_of(ppn)
            if lpn is None:
                raise KeyError(f"host page {host_page} maps to no live flash page")
            return lpn
        if not 0 <= host_page < self.ftl.exported_pages:
            raise ValueError(f"logical page {host_page} out of range")
        return LPN(host_page)

    def host_page_of(self, lpn: LPN) -> HostPage:
        """Current host-visible page number for an lpn (inverse pun)."""
        if self.host_merged_ftl:
            return HostPage(self.ftl.lookup(lpn))
        return HostPage(lpn)

    def map_page(self, lpn: LPN) -> Tuple[HostPage, TimeNs]:
        """Back ``lpn`` with flash; returns (host-visible page number, cost)."""
        ppn, cost = self.ftl.map_page(lpn)
        return (HostPage(ppn) if self.host_merged_ftl else HostPage(lpn)), cost

    def drain_remaps(self) -> Tuple[Dict[HostPage, HostPage], TimeNs]:
        """Hand the host the pending GC remaps (lazy batch update, §4).

        Returns (old page -> new page in host-visible numbering, cost of
        the single batched interrupt).
        """
        if not self._remap:
            return {}, 0
        updates = {HostPage(old): HostPage(new) for old, new in self._remap.items()}
        self._remap.clear()
        self._remap_sources.clear()
        return updates, self.config.latency.pte_tlb_update_ns

    def take_background_ns(self) -> int:
        """Collect write-back time accrued since the last call."""
        spent = self._pending_writeback_ns
        self._pending_writeback_ns = 0
        return spent

    # ------------------------------------------------------------------ #
    # Byte interface (PCIe MMIO)
    # ------------------------------------------------------------------ #

    def _ensure_cached(self, lpn: LPN) -> Tuple[CacheEntry, TimeNs, bool]:
        """Find or fill the cache entry for ``lpn``: (entry, cost, was_hit)."""
        entry = self.cache.lookup(lpn)
        if entry is not None:
            return entry, 0, True
        _ppn, data, cost = self.ftl.read(lpn)
        self.cache.insert(lpn, data, dirty=False)
        entry = self.cache.peek(lpn)
        assert entry is not None
        self._fills.add()
        return entry, cost, False

    def _check_span(self, offset: OffsetBytes, size: int) -> None:
        if offset < 0 or size <= 0 or offset + size > self.config.geometry.page_size:
            raise ValueError(
                f"MMIO span [{offset}, {offset + size}) outside one "
                f"{self.config.geometry.page_size}-byte page"
            )

    def mmio_read(
        self, host_page: HostPage, offset: OffsetBytes, size: int, persist: bool = False
    ) -> MMIOResult:
        """Serve a memory read of ``size`` bytes via PCIe MMIO (§3.2)."""
        self._check_span(offset, size)
        lpn = self.resolve_lpn(host_page)
        self._mmio_reads.add()
        entry, fill_cost, hit = self._ensure_cached(lpn)
        cost = fill_cost + self.pcie.mmio_read_cost(size)
        data = None
        if entry.data is not None:
            data = bytes(entry.data[offset : offset + size])
        if not persist and self.promotion_manager is not None:
            self.promotion_manager.update(entry)
        return MMIOResult(cost, data, hit)

    def mmio_write(
        self,
        host_page: HostPage,
        offset: OffsetBytes,
        size: int,
        data: Optional[bytes] = None,
        persist: bool = False,
    ) -> MMIOResult:
        """Serve a memory write via posted PCIe MMIO (§3.2).

        With ``persist`` set (the PTE's P bit travelled in the TLP attribute
        field, §3.5) the page is excluded from promotion accounting, and the
        write is durable once in the battery-backed SSD-Cache.
        """
        self._check_span(offset, size)
        if data is not None and len(data) != size:
            raise ValueError(f"data length {len(data)} != size {size}")
        lpn = self.resolve_lpn(host_page)
        self._mmio_writes.add()
        entry, fill_cost, hit = self._ensure_cached(lpn)
        # Charge the link before touching device state: an injected PCIe
        # fault (PCIeFaultError) means the posted write never landed, so
        # nothing below may have happened yet.
        cost = fill_cost + self.pcie.mmio_write_cost(size)
        if persist:
            old = None
            if entry.data is not None:
                old = bytes(entry.data[offset : offset + size])
            self._posted_log.append((lpn, offset, old))
            if self.persistence_sanitizer is not None:
                self.persistence_sanitizer.on_persist_posted(lpn, offset)
        entry.dirty = True
        if entry.data is not None and data is not None:
            entry.data[offset : offset + size] = data
        if persist:
            self._durable_writes.add()
        elif self.promotion_manager is not None:
            self.promotion_manager.update(entry)
        return MMIOResult(cost, None, hit)

    def peek_bytes(
        self, host_page: HostPage, offset: OffsetBytes, size: int
    ) -> Optional[bytes]:
        """Zero-cost data peek for coherently cached lines (cacheable MMIO).

        Returns None when the page is not resident in the SSD-Cache or when
        payloads are not tracked.
        """
        lpn = self.resolve_lpn(host_page)
        entry = self.cache.peek(lpn)
        if entry is None or entry.data is None:
            self._peek_misses.add()
            return None
        return bytes(entry.data[offset : offset + size])

    def poke_bytes(self, host_page: HostPage, offset: OffsetBytes, data: bytes) -> bool:
        """Zero-cost data write for coherently cached lines (cacheable MMIO).

        Returns False when the page is not resident in the SSD-Cache — the
        caller must fall back to a full MMIO write.
        """
        lpn = self.resolve_lpn(host_page)
        entry = self.cache.peek(lpn)
        if entry is None:
            self._poke_misses.add()
            return False
        entry.dirty = True
        if entry.data is not None:
            entry.data[offset : offset + len(data)] = data
        return True

    def mmio_atomic(self, host_page: HostPage, offset: OffsetBytes, size: int) -> MMIOResult:
        """A PCIe atomic (read-modify-write round trip) against the page."""
        lpn = self.resolve_lpn(host_page)
        entry, fill_cost, hit = self._ensure_cached(lpn)
        # Link cost first: a faulted atomic aborts before mutating the entry.
        cost = fill_cost + self.pcie.mmio_atomic_cost(size)
        entry.dirty = True
        self._durable_writes.add()
        return MMIOResult(cost, None, hit)

    def verify_read(self) -> TimeNs:
        """Write-verify read that flushes posted writes to the device (§3.5).

        Everything posted before this fence is now inside the battery-backed
        domain and will survive a crash.
        """
        self._posted_log.clear()
        cost = self.pcie.verify_read_cost()
        if self.persistence_sanitizer is not None:
            self.persistence_sanitizer.on_fence()
        return cost

    # ------------------------------------------------------------------ #
    # Block / page interface (DMA)
    # ------------------------------------------------------------------ #

    def read_page_for_promotion(
        self, host_page: HostPage
    ) -> Tuple[Optional[bytes], bool, TimeNs]:
        """Read a whole page for promotion to host DRAM.

        Returns (data, newest_copy_was_dirty, cost).  The SSD-Cache copy is
        the freshest version and is invalidated — after promotion the page
        lives in host DRAM.  When that copy was dirty the caller must mark
        the DRAM frame dirty, otherwise eviction could lose the updates.
        """
        lpn = self.resolve_lpn(host_page)
        entry = self.cache.invalidate(lpn)
        if entry is not None:
            if self.promotion_manager is not None:
                # The page leaves the SSD-Cache: retire its counter (Alg. 1).
                self.promotion_manager.adjust_cnt(entry)
            data = bytes(entry.data) if entry.data is not None else None
            cost = self.pcie.dma_to_host_cost(self.config.geometry.page_size)
            return data, entry.dirty, cost
        _ppn, data, flash_cost = self.ftl.read(lpn)
        cost = flash_cost + self.pcie.dma_to_host_cost(self.config.geometry.page_size)
        return data, False, cost

    def write_page(self, lpn: LPN, data: Optional[bytes]) -> Tuple[HostPage, TimeNs]:
        """Page write-back (DRAM eviction / block write).

        Returns (new host-visible page number, cost).  Any cached copy is
        dropped — it is stale relative to the incoming data.
        """
        self.cache.invalidate(lpn)
        dma = self.pcie.dma_from_host_cost(self.config.geometry.page_size)
        _new_ppn, cost = self.ftl.write(lpn, data)
        return self.host_page_of(lpn), dma + cost

    def read_page_block(self, lpn: LPN) -> Tuple[Optional[bytes], TimeNs]:
        """Block-interface page read (paging baselines).

        Device-FTL mode charges the FTL lookup; the freshest copy may be in
        the SSD-Cache (write-back cache semantics).
        """
        cost = 0
        if not self.host_merged_ftl:
            cost += self.config.latency.ftl_lookup_ns
        entry = self.cache.peek(lpn)
        if entry is not None:
            data = bytes(entry.data) if entry.data is not None else None
            cost += self.config.latency.ssd_cache_page_copy_ns
            cost += self.pcie.dma_to_host_cost(self.config.geometry.page_size)
            return data, cost
        _ppn, data, flash_cost = self.ftl.read(lpn)
        cost += flash_cost + self.pcie.dma_to_host_cost(self.config.geometry.page_size)
        return data, cost

    def write_page_block(self, lpn: LPN, data: Optional[bytes]) -> TimeNs:
        """Block-interface page write (paging baselines)."""
        cost = 0
        if not self.host_merged_ftl:
            cost += self.config.latency.ftl_lookup_ns
        self.cache.invalidate(lpn)
        dma = self.pcie.dma_from_host_cost(self.config.geometry.page_size)
        _new_ppn, write_cost = self.ftl.write(lpn, data)
        return cost + dma + write_cost

    def trim(self, lpn: LPN) -> None:
        """Discard a logical page: drop any cached copy and TRIM the FTL."""
        self.cache.invalidate(lpn)
        self.ftl.trim(lpn)

    # ------------------------------------------------------------------ #
    # Crash / recovery (persistence experiments)
    # ------------------------------------------------------------------ #

    def fail_stop(self) -> None:
        """Administratively kill the device's PCIe link (device loss).

        Used by fleet campaigns to fail a device at an exact simulated
        instant; every later transaction raises ``DeviceLostError``."""
        self.pcie.kill_link()

    def crash(self) -> None:
        """Power failure.  Battery-backed controllers destage dirty cache
        pages to flash; without the battery the cache contents are lost."""
        # Posted writes still in the host bridge's write buffer never made
        # it into the battery domain: revert them (newest first).
        for lpn, offset, old in reversed(self._posted_log):
            if old is None:
                continue
            entry = self.cache.peek(lpn)
            if entry is not None and entry.data is not None:
                entry.data[offset : offset + len(old)] = old
            elif self.config.track_data and self.ftl.is_mapped(lpn):
                # The page was destaged carrying the unfenced write: patch
                # the flash copy back (no timing — this is the crash path).
                _ppn, data, _cost = self.ftl.read(lpn)
                page = bytearray(data if data is not None else b"")
                if page:
                    page[offset : offset + len(old)] = old
                    self.ftl.write(lpn, bytes(page))  # crash path is untimed
        self._posted_log.clear()
        if self.persistence_sanitizer is not None:
            self.persistence_sanitizer.on_crash()
        if self.config.battery_backed:
            self.gc.flush_dirty()
        self.cache.clear()

    def recover_read(self, lpn: LPN) -> Optional[bytes]:
        """Post-recovery read straight from flash (no cache, no timing)."""
        _ppn, data, _cost = self.ftl.read(lpn)
        return data

    def flash_image(self) -> dict:
        """Snapshot everything on the device that survives power loss:
        the NAND array plus the FTL mapping/allocator state.  Taken after
        :meth:`crash` it is the image a restarted system boots from."""
        return {
            "exported_pages": self.ftl.exported_pages,
            "flash": self.flash.snapshot_state(),
            "ftl": self.ftl.snapshot_state(),
            "remap": dict(self._remap),
        }

    def load_flash_image(self, image: dict) -> None:
        """Restore a :meth:`flash_image` snapshot into this device.

        The device must have identical geometry (it is a fresh construction
        from the same config).  The SSD-Cache is left empty — volatile
        controller DRAM does not survive — and the flash sanitizer's shadow
        is resynced to the restored page states.
        """
        if image["exported_pages"] != self.ftl.exported_pages:
            raise ValueError(
                f"flash image exports {image['exported_pages']} pages, "
                f"device exports {self.ftl.exported_pages}"
            )
        self.flash.restore_state(image["flash"])
        self.ftl.restore_state(image["ftl"])
        self._remap = dict(image["remap"])
        self._rebuild_remap_index()
        self._posted_log.clear()
