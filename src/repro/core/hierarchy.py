"""FlatFlash: the unified memory-storage hierarchy (§3).

The flat address space spans host DRAM and the SSD BAR.  A virtual page's
PTE points either at a DRAM frame or directly at a flash page — both
*present* — so SSD-resident pages are accessed with ordinary loads/stores
over PCIe MMIO instead of page faults.  Hot pages are promoted to DRAM by
the adaptive scheme of Algorithm 1, off the critical path, with in-flight
promotions kept consistent by the PLB (Fig. 4).

Timeline model for off-critical-path promotion: a promotion started at
time T completes at ``T + page_promotion_ns`` (12.1 us, Table 2).  Until
the simulated clock passes that point, accesses to the page are mediated
by the PLB — stores land in the destination frame and own their cache
line; loads of not-yet-copied lines are forwarded to the SSD.  Inbound
copy progress advances linearly with simulated time.

Background costs (promotion DMA, LRU eviction write-back, GC, lazy remap
propagation) are charged to ``background_ns`` rather than to the access
that happened to trigger them, which is exactly the paper's claim that
these activities do not stall the application.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import FlatFlashConfig
from repro.core.memory_system import AccessResult, MemorySystem
from repro.core.promotion import PromotionManager
from repro.host.bridge import HostBridge, MMIORetryPolicy
from repro.host.cpu_cache import CPUCache
from repro.host.dram import Frame, HostDRAM
from repro.host.page_table import Domain, PageTableEntry
from repro.host.plb import PLBEntry
from repro.interconnect.pcie import PCIeFaultError
from repro.ssd.device import ByteAddressableSSD
from repro.units import LPN, VPN, HostPage, OffsetBytes, TimeNs


class _InFlightPromotion:
    """Book-keeping for one promotion between start and completion."""

    __slots__ = ("vpn", "lpn", "ssd_tag", "frame", "plb_entry", "snapshot", "was_dirty", "started_ns")

    def __init__(
        self,
        vpn: VPN,
        lpn: LPN,
        ssd_tag: HostPage,
        frame: Frame,
        plb_entry: PLBEntry,
        snapshot: Optional[bytes],
        was_dirty: bool,
        started_ns: TimeNs,
    ) -> None:
        self.vpn = vpn
        self.lpn = lpn
        self.ssd_tag = ssd_tag
        self.frame = frame
        self.plb_entry = plb_entry
        self.snapshot = snapshot
        self.was_dirty = was_dirty
        self.started_ns = started_ns


class FlatFlash(MemorySystem):
    """The paper's system: byte-addressable SSD + DRAM, one flat space."""

    name = "FlatFlash"
    #: Capability marker: byte-granular persistence (persist-mapped pages,
    #: posted MMIO writes + write-verify fence).  Apps gate on this rather
    #: than the concrete class so fleets compose transparently.
    supports_byte_persistence = True

    def __init__(
        self,
        config: Optional[FlatFlashConfig] = None,
        cache_policy: str = "rrip",
        promotion_manager: Optional[PromotionManager] = None,
        device_id: Optional[int] = None,
    ) -> None:
        if config is None:
            config = FlatFlashConfig()
        super().__init__(config)
        geometry = config.geometry
        self.ssd = ByteAddressableSSD(
            config,
            host_merged_ftl=True,
            cache_policy=cache_policy,
            stats=self.stats,
            device_id=device_id,
        )
        self.dram = HostDRAM(
            geometry.dram_pages,
            geometry.page_size,
            track_data=config.track_data,
            stats=self.stats,
        )
        self.bridge = HostBridge(
            dram_bytes=geometry.dram_pages * geometry.page_size,
            ssd_bar=self.ssd.bar,
            page_size=geometry.page_size,
            plb_entries=geometry.plb_entries,
            stats=self.stats,
            persistence_sanitizer=self.ssd.persistence_sanitizer,
        )
        if self.ssd.faults is not None:
            # Fault injection active: install the MMIO retry/backoff policy
            # (repro.faults).  Left as None otherwise so the fault-free
            # access path is byte-identical to the baseline.
            faults = config.faults
            self.bridge.mmio_retry = MMIORetryPolicy(
                max_retries=faults.mmio_max_retries,
                backoff_base_ns=faults.mmio_backoff_base_ns,
                backoff_multiplier=faults.mmio_backoff_multiplier,
                degraded_threshold=faults.mmio_degraded_threshold,
                stats=self.stats,
            )
        self.cpu_cache = CPUCache(line_size=geometry.cacheline_size, stats=self.stats)
        if promotion_manager is None:
            promotion_manager = PromotionManager(config.promotion, stats=self.stats)
        self.promotion = promotion_manager
        if config.promotion.enabled:
            self.ssd.promotion_manager = promotion_manager

        # In-flight promotions, keyed by the page's host-visible SSD tag.
        self._in_flight: Dict[HostPage, _InFlightPromotion] = {}
        # Frames pinned as promotion destinations (not evictable).
        self._pinned_frames: set = set()
        # Reverse map for lazy GC remap propagation.
        self._ssd_page_to_vpn: Dict[HostPage, VPN] = {}

        self._pages_in = self.stats.counter("mem.pages_in")
        self._pages_out = self.stats.counter("mem.pages_out")
        self._promotions = self.stats.counter("mem.promotions")
        self._evictions = self.stats.counter("mem.evictions")
        self._plb_hits = self.stats.counter("mem.plb_mediated_accesses")
        self._prefetches = self.stats.counter("mem.prefetch_promotions")
        # Cacheable-MMIO hits the SSD-Cache could not serve (peek/poke
        # missed): the access falls back to the full PCIe path.
        self._cacheable_fallbacks = self.stats.counter("mem.cacheable_fallbacks")
        # Sequential-stream detector for the optional prefetch extension.
        self._last_vpn = -2
        self._stream_run = 0

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def _map_page(self, vpn: VPN, lpn: LPN, persist: bool) -> None:
        ssd_page, cost = self.ssd.map_page(lpn)
        self._background_ns.add(cost)  # first-touch backing, not on access path
        pte = self.page_table.entry(vpn)
        pte.point_to_ssd(ssd_page, present=True)
        pte.persist = persist
        self._ssd_page_to_vpn[ssd_page] = vpn

    def _unmap_page(self, vpn: VPN) -> None:
        self.quiesce()  # settle in-flight promotions before tearing down
        pte = self.page_table.lookup(vpn)
        if pte is None:
            return
        if pte.domain is Domain.DRAM and pte.frame_index is not None:
            self.dram.free(self.dram.frames[pte.frame_index])
        elif pte.ssd_page is not None:
            self._ssd_page_to_vpn.pop(pte.ssd_page, None)
        lpn = self._vpn_to_lpn.get(vpn)
        if lpn is not None and self.ssd.ftl.is_mapped(lpn):
            self.ssd.trim(lpn)

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def _access_page(
        self, vpn: VPN, offset: OffsetBytes, size: int, is_write: bool, data: Optional[bytes]
    ) -> AccessResult:
        self._settle_promotions()
        self._drain_remaps()
        if self.config.promotion.sequential_prefetch:
            self._detect_stream(vpn)
        pte = self.page_table.lookup(vpn)
        if pte is None:
            raise KeyError(f"vpn {vpn} is not mapped")
        if pte.domain is Domain.DRAM:
            return self._dram_access(pte, offset, size, is_write, data)
        return self._ssd_access(pte, offset, size, is_write, data)

    def _dram_access(
        self,
        pte: PageTableEntry,
        offset: OffsetBytes,
        size: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> AccessResult:
        frame = self.dram.frames[pte.frame_index]
        self.dram.touch(frame)
        latency = self.config.latency
        if is_write:
            self.dram.write_bytes(frame, offset, data if data is not None else b"\x00" * size)
            return AccessResult(latency.dram_store_ns, "dram")
        payload = self.dram.read_bytes(frame, offset, size)
        return AccessResult(latency.dram_load_ns, "dram", data=payload)

    def _ssd_access(
        self,
        pte: PageTableEntry,
        offset: OffsetBytes,
        size: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> AccessResult:
        ssd_page = pte.ssd_page
        assert ssd_page is not None
        flight = self._in_flight.get(ssd_page)
        if flight is not None:
            return self._plb_access(flight, offset, size, is_write, data)
        # Coherent (CAPI-style) interconnect, §3.1: lines backed by the SSD
        # BAR may live in the processor cache, so re-references hit at cache
        # latency instead of paying a PCIe round trip.  Writes are
        # write-through for data fidelity but are charged the cache hit when
        # the line is present; a dirty victim's write-back is posted off the
        # critical path.  Persistent pages may cache *loads* only — stores
        # must reach the device's battery domain (the clflush/fence protocol
        # of §3.5), so they always take the MMIO path.
        cacheable = self.config.cacheable_mmio and not (pte.persist and is_write)
        if cacheable:
            phys = self.bridge.ssd_addr(ssd_page, offset)
            hit, evicted = self.cpu_cache.access(phys, is_write=is_write)
            if evicted is not None:
                self._charge_victim_writeback()
            if hit:
                served = self._cacheable_hit(ssd_page, offset, size, is_write, data)
                if served is not None:
                    return served
        if self.bridge.mmio_retry is not None:
            return self._guarded_mmio(pte, ssd_page, offset, size, is_write, data)
        if is_write:
            mmio = self.ssd.mmio_write(
                ssd_page, offset, size, data=data, persist=pte.persist
            )
        else:
            mmio = self.ssd.mmio_read(ssd_page, offset, size, persist=pte.persist)
        self._background_ns.add(self.ssd.take_background_ns())
        stall_ns = self._start_pending_promotions()
        return AccessResult(mmio.latency_ns + stall_ns, "ssd", data=mmio.data)

    def _charge_victim_writeback(self) -> None:
        """Charge the posted write-back of a dirty CPU-cache victim line.

        Under fault injection the link may drop it; the line's data is not
        lost (payloads flow through the SSD-Cache), so the model just
        charges the lost time and lets a later write-back retry.
        """
        try:
            cost = self.ssd.pcie.mmio_write_cost(self.config.geometry.cacheline_size)
        except PCIeFaultError as fault:
            cost = fault.latency_ns
        self._background_ns.add(cost)

    def _guarded_mmio(
        self,
        pte: PageTableEntry,
        ssd_page: HostPage,
        offset: OffsetBytes,
        size: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> AccessResult:
        """MMIO access under fault injection (repro.faults).

        Bounded retry with exponential backoff on injected PCIe faults.
        A page that crosses the consecutive-failure threshold degrades
        permanently to the block/DMA path (promotion suppressed); an access
        that merely exhausts its retries falls back to the block path once
        but keeps MMIO enabled for the page.
        """
        retry = self.bridge.mmio_retry
        assert retry is not None
        lpn = self.ssd.resolve_lpn(ssd_page)
        if retry.is_degraded(lpn):
            return self._degraded_access(pte, lpn, offset, size, is_write, data, 0)
        extra_ns = 0
        for attempt in range(retry.max_retries + 1):
            try:
                if is_write:
                    mmio = self.ssd.mmio_write(
                        ssd_page, offset, size, data=data, persist=pte.persist
                    )
                else:
                    mmio = self.ssd.mmio_read(
                        ssd_page, offset, size, persist=pte.persist
                    )
            except PCIeFaultError as fault:
                extra_ns += fault.latency_ns
                if retry.note_failure(lpn):
                    self._emit("mmio_degraded", lpn=lpn)
                    return self._degraded_access(
                        pte, lpn, offset, size, is_write, data, extra_ns
                    )
                if attempt < retry.max_retries:
                    extra_ns += retry.backoff_ns(attempt)
                continue
            retry.note_success(lpn)
            self._background_ns.add(self.ssd.take_background_ns())
            stall_ns = self._start_pending_promotions()
            return AccessResult(
                mmio.latency_ns + extra_ns + stall_ns, "ssd", data=mmio.data
            )
        retry.note_giveup()
        return self._degraded_access(pte, lpn, offset, size, is_write, data, extra_ns)

    def _degraded_access(
        self,
        pte: PageTableEntry,
        lpn: LPN,
        offset: OffsetBytes,
        size: int,
        is_write: bool,
        data: Optional[bytes],
        extra_ns: TimeNs,
    ) -> AccessResult:
        """Serve one access over the block/DMA interface.

        Graceful degradation: the page stays reachable at block-I/O latency
        (software overhead + page DMA) instead of erroring.  Writes are a
        read-modify-write of the whole page through the FTL — durable in
        flash, so persist semantics are preserved.  PTE repointing after
        the out-of-place write rides the existing remap-drain machinery.
        """
        retry = self.bridge.mmio_retry
        assert retry is not None
        retry.note_degraded_access()
        cost = extra_ns + self.config.latency.block_io_software_ns
        if is_write:
            page, read_cost = self.ssd.read_page_block(lpn)
            cost += read_cost
            merged = None
            if page is not None:
                buffer = bytearray(page)
                buffer[offset : offset + size] = (
                    data if data is not None else b"\x00" * size
                )
                merged = bytes(buffer)
            cost += self.ssd.write_page_block(lpn, merged)
            self._background_ns.add(self.ssd.take_background_ns())
            return AccessResult(cost, "ssd_block")
        page, read_cost = self.ssd.read_page_block(lpn)
        cost += read_cost
        payload = None
        if page is not None:
            payload = bytes(page[offset : offset + size])
        self._background_ns.add(self.ssd.take_background_ns())
        return AccessResult(cost, "ssd_block", data=payload)

    def _cacheable_hit(
        self,
        ssd_page: HostPage,
        offset: OffsetBytes,
        size: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> Optional[AccessResult]:
        """Serve a CPU-cache hit on an MMIO line; None to fall back to PCIe.

        Data correctness: payloads are pushed/pulled through the SSD-Cache
        entry at zero charge.  If payload tracking is on and the SSD-Cache
        no longer holds the page, fall back to the full MMIO path so no
        update can be lost.
        """
        hit_ns = self.config.latency.cpu_cache_hit_ns
        if not self.config.track_data:
            return AccessResult(hit_ns, "cpu_cache")
        if is_write:
            if data is not None and not self.ssd.poke_bytes(ssd_page, offset, data):
                self._cacheable_fallbacks.add()
                return None
            return AccessResult(hit_ns, "cpu_cache")
        payload = self.ssd.peek_bytes(ssd_page, offset, size)
        if payload is None:
            self._cacheable_fallbacks.add()
            return None
        return AccessResult(hit_ns, "cpu_cache", data=payload)

    # ------------------------------------------------------------------ #
    # PLB-mediated accesses during an in-flight promotion (Fig. 4)
    # ------------------------------------------------------------------ #

    def _line_range(self, offset: OffsetBytes, size: int) -> range:
        line_size = self.config.geometry.cacheline_size
        first = offset // line_size
        last = (offset + size - 1) // line_size
        return range(first, last + 1)

    def _advance_inbound(self, flight: _InFlightPromotion) -> None:
        """Copy inbound lines that have arrived by the current sim time."""
        entry = flight.plb_entry
        total = len(entry.copied)
        promotion_ns = self.config.latency.page_promotion_ns
        elapsed = self.clock.now - flight.started_ns
        if promotion_ns <= 0:
            progress = total
        else:
            progress = min(total, (elapsed * total) // promotion_ns)
        line_size = self.config.geometry.cacheline_size
        while entry.inbound_pos < progress:
            line = entry.inbound_pos
            if self.bridge.plb.inbound_line(entry, line) and flight.snapshot is not None:
                start = line * line_size
                self.dram.write_bytes(
                    flight.frame, start, flight.snapshot[start : start + line_size]
                )
            entry.inbound_pos += 1

    def _plb_access(
        self,
        flight: _InFlightPromotion,
        offset: OffsetBytes,
        size: int,
        is_write: bool,
        data: Optional[bytes],
    ) -> AccessResult:
        self._plb_hits.add()
        self._advance_inbound(flight)
        entry = flight.plb_entry
        latency = self.config.latency
        lines = self._line_range(offset, size)
        if is_write:
            # Stores are redirected to the destination frame and own their
            # lines; later inbound copies of those lines are dropped.  A
            # sub-line store must merge with the line's current contents
            # first (the CPU's read-for-ownership), otherwise taking the
            # Copied bit would discard the snapshot's other bytes.
            line_size = self.config.geometry.cacheline_size
            for line in lines:
                if not entry.copied[line] and flight.snapshot is not None:
                    start = line * line_size
                    self.dram.write_bytes(
                        flight.frame,
                        start,
                        flight.snapshot[start : start + line_size],
                    )
                self.bridge.plb.cpu_store(entry, line)
            self.dram.write_bytes(
                flight.frame, offset, data if data is not None else b"\x00" * size
            )
            return AccessResult(latency.dram_store_ns, "plb")
        if all(self.bridge.plb.cpu_load_from_dram(entry, line) for line in lines):
            payload = self.dram.read_bytes(flight.frame, offset, size)
            return AccessResult(latency.dram_load_ns, "plb", data=payload)
        # At least one line is still on its way: the PLB splits the request,
        # serving copied lines from the destination frame (they may carry
        # redirected stores) and forwarding the rest to the SSD.
        cost = self._plb_forward_read_cost(size)
        payload = None
        if self.config.track_data:
            payload = self._assemble_plb_lines(flight, entry, lines, offset, size)
        return AccessResult(cost, "plb", data=payload)

    def _assemble_plb_lines(
        self,
        flight: _InFlightPromotion,
        entry: PLBEntry,
        lines: List[int],
        offset: int,
        size: int,
    ) -> bytes:
        """Gather the payload of a split PLB read, line by line.

        Copied lines come from the destination DRAM frame (they may carry
        redirected stores), the rest from the promotion snapshot.
        """
        line_size = self.config.geometry.cacheline_size
        assembled = bytearray(size)
        for line in lines:
            line_start = line * line_size
            line_end = line_start + line_size
            lo = max(offset, line_start)
            hi = min(offset + size, line_end)
            if self.bridge.plb.cpu_load_from_dram(entry, line):
                chunk = self.dram.read_bytes(flight.frame, lo, hi - lo)
            elif flight.snapshot is not None:
                chunk = flight.snapshot[lo:hi]
            else:
                chunk = b"\x00" * (hi - lo)
            if chunk is not None:
                assembled[lo - offset : hi - offset] = chunk
        return bytes(assembled)

    # ------------------------------------------------------------------ #
    # Promotion lifecycle
    # ------------------------------------------------------------------ #

    def _start_pending_promotions(self) -> TimeNs:
        """Launch queued promotions; returns stall time (PLB-disabled mode)."""
        stall_ns = 0
        for lpn in self.promotion.take_candidates():
            stall_ns += self._start_promotion(lpn)
        return stall_ns

    def _plb_forward_read_cost(self, size: int) -> TimeNs:
        """Link cost of a PLB-forwarded read, absorbing injected faults.

        Bounded retries without degradation tracking: the page is mid-
        promotion and about to leave the SSD anyway, and the payload is
        assembled from the snapshot/destination frame regardless.
        """
        retry = self.bridge.mmio_retry
        if retry is None:
            return self.ssd.pcie.mmio_read_cost(size)
        cost = 0
        for attempt in range(retry.max_retries + 1):
            try:
                return cost + self.ssd.pcie.mmio_read_cost(size)
            except PCIeFaultError as fault:
                cost += fault.latency_ns
                if attempt < retry.max_retries:
                    cost += retry.backoff_ns(attempt)
        retry.note_giveup()
        return cost

    def _start_promotion(self, lpn: LPN) -> TimeNs:
        """Kick off one promotion; returns the stall charged to the access
        (nonzero only in the PLB-disabled ablation)."""
        retry = self.bridge.mmio_retry
        if retry is not None and retry.is_degraded(lpn):
            # Degraded pages live on the block path; promoting one would
            # re-enable the MMIO path that keeps failing for it.
            return 0
        ssd_page = self.ssd.host_page_of(lpn)
        vpn = self._ssd_page_to_vpn.get(ssd_page)
        if vpn is None:
            return 0
        pte = self.page_table.lookup(vpn)
        if pte is None or pte.domain is not Domain.SSD or pte.persist:
            return 0
        if not self.config.plb_enabled:
            return self._promote_stalling(vpn, ssd_page)
        if ssd_page in self._in_flight or not self.bridge.plb.has_free_entry:
            return 0
        frame = self._obtain_frame(vpn)
        if frame is None:
            return 0
        snapshot, was_dirty, dma_cost = self.ssd.read_page_for_promotion(ssd_page)
        self._background_ns.add(dma_cost)
        num_lines = self.config.geometry.cachelines_per_page
        complete_at = self.clock.now + self.config.latency.page_promotion_ns
        plb_entry = self.bridge.plb.start(ssd_page, frame.index, num_lines, complete_at)
        assert plb_entry is not None  # has_free_entry checked above
        self._in_flight[ssd_page] = _InFlightPromotion(
            vpn, lpn, ssd_page, frame, plb_entry, snapshot, was_dirty, self.clock.now
        )
        self._pinned_frames.add(frame.index)
        self._promotions.add()
        self._emit("promotion_start", vpn=vpn, ssd_page=ssd_page, frame=frame.index)
        return 0

    def _detect_stream(self, vpn: VPN) -> None:
        """Sequential-prefetch extension: after N pages in ascending order,
        promote the page ahead of the stream before it is touched."""
        if vpn == self._last_vpn:
            return  # staying within a page keeps the run alive
        if vpn == self._last_vpn + 1:
            self._stream_run += 1
        else:
            self._stream_run = 0
        self._last_vpn = vpn
        if self._stream_run < self.config.promotion.sequential_prefetch:
            return
        next_vpn = vpn + 1
        pte = self.page_table.lookup(next_vpn)
        if (
            pte is None
            or pte.domain is not Domain.SSD
            or pte.persist
            or pte.ssd_page in self._in_flight
        ):
            return
        lpn = self._vpn_to_lpn.get(next_vpn)
        if lpn is None:
            return
        before = self._promotions.value
        stall = self._start_promotion(lpn)
        if stall:  # PLB-disabled mode: prefetch copies run in background
            self._background_ns.add(stall)
        if self._promotions.value > before:
            self._prefetches.add()

    def _promote_stalling(self, vpn: VPN, ssd_page: HostPage) -> TimeNs:
        """PLB-disabled ablation: promote synchronously.  Returns the stall
        (page copy + PTE/TLB update) charged to the triggering access."""
        frame = self._obtain_frame(vpn)
        if frame is None:
            return 0
        snapshot, was_dirty, dma_cost = self.ssd.read_page_for_promotion(ssd_page)
        if frame.data is not None and snapshot is not None:
            frame.data[:] = snapshot
        frame.dirty = was_dirty
        pte = self.page_table.entry(vpn)
        pte.point_to_dram(frame.index)
        self._ssd_page_to_vpn.pop(ssd_page, None)
        latency = self.config.latency
        stall = dma_cost + latency.page_promotion_ns + latency.pte_tlb_update_ns
        stall += self.tlb.invalidate(vpn)
        self._promotions.add()
        self._pages_in.add()
        return stall

    def _settle_promotions(self) -> None:
        """Retire in-flight promotions whose copy has completed."""
        if not self._in_flight:
            return
        now = self.clock.now
        finished = [
            flight
            for flight in self._in_flight.values()
            if flight.plb_entry.complete_at_ns <= now
        ]
        for flight in finished:
            self._complete_promotion(flight)

    def _complete_promotion(self, flight: _InFlightPromotion) -> None:
        entry = flight.plb_entry
        total = len(entry.copied)
        line_size = self.config.geometry.cacheline_size
        # Deliver any trailing inbound lines.
        while entry.inbound_pos < total:
            line = entry.inbound_pos
            if self.bridge.plb.inbound_line(entry, line) and flight.snapshot is not None:
                start = line * line_size
                self.dram.write_bytes(
                    flight.frame, start, flight.snapshot[start : start + line_size]
                )
            entry.inbound_pos += 1
        self.bridge.plb.retire(entry)
        del self._in_flight[flight.ssd_tag]
        self._pinned_frames.discard(flight.frame.index)
        # Stores during the flight marked the frame dirty; a dirty SSD-Cache
        # source also forces dirty so eviction cannot lose the newest copy.
        flight.frame.dirty = flight.frame.dirty or flight.was_dirty
        pte = self.page_table.entry(flight.vpn)
        pte.point_to_dram(flight.frame.index)
        self._ssd_page_to_vpn.pop(flight.ssd_tag, None)
        self._background_ns.add(self.config.latency.pte_tlb_update_ns)
        self._background_ns.add(self.tlb.invalidate(flight.vpn))
        self._pages_in.add()
        self._emit("promotion_complete", vpn=flight.vpn, frame=flight.frame.index)

    # ------------------------------------------------------------------ #
    # Eviction (LRU page back to the SSD)
    # ------------------------------------------------------------------ #

    def _obtain_frame(self, vpn: VPN) -> Optional[Frame]:
        frame = self.dram.allocate(vpn)
        if frame is not None:
            return frame
        victim = self._pick_victim()
        if victim is None:
            return None
        self._evict_frame(victim)
        return self.dram.allocate(vpn)

    def _pick_victim(self) -> Optional[Frame]:
        for frame in self.dram.iter_lru():
            if frame.index not in self._pinned_frames:
                return frame
        return None

    def _evict_frame(self, frame: Frame) -> None:
        """Write an LRU page back to the SSD and repoint its PTE (§3.3)."""
        vpn = frame.vpn
        assert vpn is not None
        was_dirty = frame.dirty
        lpn = self.lpn_of_vpn(vpn)
        data = bytes(frame.data) if frame.data is not None else None
        if was_dirty:
            new_ssd_page, cost = self.ssd.write_page(lpn, data)
        else:
            # Clean page: the flash copy is current; just drop the frame.
            new_ssd_page, cost = self.ssd.host_page_of(lpn), 0
        self._background_ns.add(cost)
        pte = self.page_table.entry(vpn)
        pte.point_to_ssd(new_ssd_page, present=True)
        self._ssd_page_to_vpn[new_ssd_page] = vpn
        self._background_ns.add(self.tlb.invalidate(vpn))
        self._background_ns.add(self.config.latency.pte_tlb_update_ns)
        self.dram.free(frame)
        self._evictions.add()
        self._emit("eviction", vpn=vpn, dirty=int(was_dirty), ssd_page=new_ssd_page)
        if was_dirty:
            self._pages_out.add()

    # ------------------------------------------------------------------ #
    # Lazy GC remap propagation (§4)
    # ------------------------------------------------------------------ #

    def _drain_remaps(self) -> None:
        updates, cost = self.ssd.drain_remaps()
        if not updates:
            return
        moved_vpns: List[int] = []
        for old_page, new_page in updates.items():
            vpn = self._ssd_page_to_vpn.pop(old_page, None)
            if vpn is None:
                continue  # page was promoted or unmapped meanwhile
            pte = self.page_table.entry(vpn)
            if pte.domain is Domain.SSD and pte.ssd_page == old_page:
                pte.ssd_page = new_page
                self._ssd_page_to_vpn[new_page] = vpn
                moved_vpns.append(vpn)
        self._background_ns.add(cost)
        self._background_ns.add(self.tlb.batch_invalidate(moved_vpns))
        self._emit("remap_drain", moved=len(moved_vpns))

    # ------------------------------------------------------------------ #
    # Maintenance / introspection
    # ------------------------------------------------------------------ #

    def quiesce(self) -> None:
        """Finish all in-flight promotions (end-of-experiment settling)."""
        for flight in list(self._in_flight.values()):
            self._complete_promotion(flight)
        self._drain_remaps()

    @property
    def promotions(self) -> int:
        return self._promotions.value

    @property
    def evictions(self) -> int:
        return self._evictions.value
