"""Shared machinery for the paging baselines (§2.1, Fig. 1a).

Both TraditionalStack and UnifiedMMap treat the SSD as a block device
behind ``mmap``: PTEs for SSD-resident pages are *non-present*, so touching
one raises a page fault whose handler migrates the whole 4 KB page into a
DRAM frame (evicting, and possibly writing back, an LRU page when DRAM is
full) before the access can retry.  The entire fault — software overhead,
flash read, DMA, eviction write-back, PTE/TLB update — stalls the
application, which is exactly the cost FlatFlash's direct MMIO access and
off-critical-path promotion remove.

Subclasses choose the per-fault software overhead, the FTL placement and
how much DRAM is consumed by translation metadata.
"""

from __future__ import annotations

from typing import Optional

from repro.config import FlatFlashConfig
from repro.core.memory_system import AccessResult, MemorySystem
from repro.host.dram import HostDRAM
from repro.host.page_table import Domain, PageTableEntry
from repro.ssd.device import ByteAddressableSSD


class PagingMemorySystem(MemorySystem):
    """mmap + paging over an SSD block interface."""

    name = "paging"
    #: Software cost of one page fault (storage stack traversal), ns.
    fault_software_ns_attr = "unified_fault_software_ns"
    #: FTL merged into the host page table (UnifiedMMap) or kept in device.
    host_merged_ftl = True
    #: Fraction of host DRAM consumed by translation metadata (page index,
    #: and for TraditionalStack the host-resident FTL, like ioMemory).
    metadata_overhead = 0.0

    def __init__(self, config: Optional[FlatFlashConfig] = None) -> None:
        if config is None:
            config = FlatFlashConfig()
        super().__init__(config)
        self.ssd = ByteAddressableSSD(
            config, host_merged_ftl=self.host_merged_ftl, stats=self.stats
        )
        effective_frames = max(
            1, int(config.geometry.dram_pages * (1.0 - self.metadata_overhead))
        )
        self.dram = HostDRAM(
            effective_frames,
            config.geometry.page_size,
            track_data=config.track_data,
            policy="clock",  # kernel-style scan-resistant reclaim
            stats=self.stats,
        )
        self._pages_in = self.stats.counter("mem.pages_in")
        self._pages_out = self.stats.counter("mem.pages_out")
        self._faults = self.stats.counter("mem.page_faults")
        self._evictions = self.stats.counter("mem.evictions")

    @property
    def fault_software_ns(self) -> int:
        return getattr(self.config.latency, self.fault_software_ns_attr)

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def _map_page(self, vpn: int, lpn: int, persist: bool) -> None:
        ssd_page, cost = self.ssd.map_page(lpn)
        self._background_ns.add(cost)
        pte = self.page_table.entry(vpn)
        pte.point_to_ssd(ssd_page, present=False)  # access will fault
        pte.persist = persist

    def _unmap_page(self, vpn: int) -> None:
        pte = self.page_table.lookup(vpn)
        if pte is None:
            return
        if pte.present and pte.domain is Domain.DRAM and pte.frame_index is not None:
            self.dram.free(self.dram.frames[pte.frame_index])
        lpn = self._vpn_to_lpn.get(vpn)
        if lpn is not None and self.ssd.ftl.is_mapped(lpn):
            self.ssd.trim(lpn)

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def _access_page(
        self, vpn: int, offset: int, size: int, is_write: bool, data: Optional[bytes]
    ) -> AccessResult:
        pte = self.page_table.lookup(vpn)
        if pte is None:
            raise KeyError(f"vpn {vpn} is not mapped")
        fault_cost = 0
        faulted = False
        if not (pte.present and pte.domain is Domain.DRAM):
            fault_cost = self._handle_fault(vpn, pte)
            faulted = True
        frame = self.dram.frames[pte.frame_index]
        self.dram.touch(frame)
        latency = self.config.latency
        if is_write:
            self.dram.write_bytes(frame, offset, data if data is not None else b"\x00" * size)
            return AccessResult(fault_cost + latency.dram_store_ns, "dram", fault=faulted)
        payload = self.dram.read_bytes(frame, offset, size)
        return AccessResult(
            fault_cost + latency.dram_load_ns, "dram", fault=faulted, data=payload
        )

    def _handle_fault(self, vpn: int, pte: PageTableEntry) -> int:
        """Migrate the page from SSD to a DRAM frame; returns the stall in ns."""
        self._faults.add()
        cost = self.fault_software_ns
        if self.dram.is_full:
            cost += self._evict_one()
        frame = self.dram.allocate(vpn)
        assert frame is not None
        lpn = self.lpn_of_vpn(vpn)
        page_data, read_cost = self.ssd.read_page_block(lpn)
        cost += read_cost
        if frame.data is not None and page_data is not None:
            frame.data[:] = page_data
        frame.dirty = False
        pte.point_to_dram(frame.index)
        cost += self.config.latency.pte_tlb_update_ns
        self._pages_in.add()
        self._emit("fault", vpn=vpn, frame=frame.index)
        cost += self._readahead(vpn)
        return cost

    def _readahead(self, faulted_vpn: int) -> int:
        """Kernel swap clustering: pull the next pages in with the fault.

        The cluster shares the fault's software path, so each extra page
        costs only its device read; installation stops when DRAM has no
        free frames (readahead never evicts).
        """
        cost = 0
        for step in range(1, self.config.readahead_pages + 1):
            vpn = faulted_vpn + step
            pte = self.page_table.lookup(vpn)
            if pte is None or (pte.present and pte.domain is Domain.DRAM):
                break
            frame = self.dram.allocate(vpn)
            if frame is None:
                break
            page_data, read_cost = self.ssd.read_page_block(self.lpn_of_vpn(vpn))
            cost += read_cost
            if frame.data is not None and page_data is not None:
                frame.data[:] = page_data
            frame.dirty = False
            pte.point_to_dram(frame.index)
            self._pages_in.add()
            self._emit("readahead", vpn=vpn, frame=frame.index)
        if cost:
            cost += self.config.latency.pte_tlb_update_ns  # one batched update
        return cost

    def _evict_one(self) -> int:
        """Swap out a victim page; returns the cost (on the fault path)."""
        frame = self.dram.victim()
        vpn = frame.vpn
        assert vpn is not None
        was_dirty = frame.dirty
        lpn = self.lpn_of_vpn(vpn)
        cost = 0
        if was_dirty:
            data = bytes(frame.data) if frame.data is not None else None
            cost += self.ssd.write_page_block(lpn, data)
            self._pages_out.add()
        pte = self.page_table.entry(vpn)
        pte.point_to_ssd(self.ssd.host_page_of(lpn), present=False)
        cost += self.tlb.invalidate(vpn)
        self.dram.free(frame)
        self._evictions.add()
        self._emit("eviction", vpn=vpn, dirty=int(was_dirty))
        return cost

    @property
    def page_faults(self) -> int:
        return self._faults.value
