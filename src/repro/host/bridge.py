"""Host bridge (root complex): physical-address routing and the PLB.

The host bridge connects CPU, memory controller and PCIe (Fig. 2).  In the
simulator it does three jobs:

* classify host physical addresses into the DRAM region or the SSD BAR
  window and split them into (page, offset);
* carry the Persist (P) bit: during address translation the physical
  address is prefixed with the PTE's P bit, and the bridge moves it into
  the PCIe TLP's attribute field with the address bit masked out (§3.5);
* host the :class:`~repro.host.plb.PLB` for in-flight promotions.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.host.plb import PLB
from repro.interconnect.pcie import BarWindow
from repro.sim.sanitizers import PersistenceSanitizer
from repro.sim.stats import StatRegistry
from repro.units import LPN, PFN, HostPage, OffsetBytes, TimeNs

#: Bit position used to prefix physical addresses with the Persist flag.
PERSIST_BIT_SHIFT = 62


class MMIORetryPolicy:
    """Bounded retry with exponential backoff for faulted MMIO accesses.

    The bridge retries a failed MMIO transaction up to ``max_retries``
    times, waiting ``backoff_base_ns * backoff_multiplier**attempt`` before
    each retry.  Failures are tracked per *logical* page (lpn — stable
    across GC relocation): after ``degraded_threshold`` consecutive
    failures on one page, that page is degraded permanently to the
    block/DMA path and its promotion is suppressed, so the system keeps
    serving accesses at block-I/O latency instead of erroring.

    The ladder is key-agnostic: the bridge tracks consecutive failures
    per logical page, and a :class:`~repro.fleet.FlatFlashFleet` reuses
    the same escalation keyed by *device index* to turn consecutive
    ``DeviceLostError`` observations into a failover declaration.
    """

    def __init__(
        self,
        max_retries: int,
        backoff_base_ns: int,
        backoff_multiplier: int,
        degraded_threshold: int,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base_ns < 0:
            raise ValueError(f"backoff_base_ns must be >= 0, got {backoff_base_ns}")
        if backoff_multiplier < 1:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {backoff_multiplier}"
            )
        if degraded_threshold < 1:
            raise ValueError(
                f"degraded_threshold must be >= 1, got {degraded_threshold}"
            )
        self.max_retries = max_retries
        self.backoff_base_ns = backoff_base_ns
        self.backoff_multiplier = backoff_multiplier
        self.degraded_threshold = degraded_threshold
        self.stats = stats if stats is not None else StatRegistry()
        self._consecutive: Dict[LPN, int] = {}
        self._degraded: Set[LPN] = set()
        self._retries = self.stats.counter("bridge.mmio_retries")
        self._failures = self.stats.counter("bridge.mmio_failures")
        self._giveups = self.stats.counter("bridge.mmio_giveups")
        self._backoff_ns = self.stats.counter("bridge.mmio_backoff_ns")
        self._degraded_pages = self.stats.counter("bridge.degraded_pages")
        self._degraded_accesses = self.stats.counter("bridge.degraded_accesses")

    def backoff_ns(self, attempt: int) -> TimeNs:
        """Wait before retry number ``attempt`` (zero-based)."""
        wait = self.backoff_base_ns * self.backoff_multiplier**attempt
        self._backoff_ns.add(wait)
        self._retries.add()
        return wait

    def note_failure(self, lpn: LPN) -> bool:
        """Record one failed MMIO transaction on a page; True if the page
        just crossed the degradation threshold."""
        self._failures.add()
        count = self._consecutive.get(lpn, 0) + 1
        self._consecutive[lpn] = count
        if count >= self.degraded_threshold and lpn not in self._degraded:
            self._degraded.add(lpn)
            self._degraded_pages.add()
            return True
        return False

    def note_success(self, lpn: LPN) -> None:
        """An MMIO transaction completed: the consecutive-failure run ends."""
        self._consecutive.pop(lpn, None)

    def note_giveup(self) -> None:
        """Retries exhausted without the page degrading: the access falls
        back to the block path once, but MMIO stays enabled for the page."""
        self._giveups.add()

    def note_degraded_access(self) -> None:
        self._degraded_accesses.add()

    def is_degraded(self, lpn: LPN) -> bool:
        return lpn in self._degraded

    @property
    def degraded_pages(self) -> int:
        return len(self._degraded)


class HostBridge:
    """Routes physical addresses and tracks in-flight promotions."""

    def __init__(
        self,
        dram_bytes: int,
        ssd_bar: BarWindow,
        page_size: int,
        plb_entries: int,
        stats: Optional[StatRegistry] = None,
        persistence_sanitizer: Optional[PersistenceSanitizer] = None,
    ) -> None:
        if dram_bytes <= 0:
            raise ValueError(f"dram_bytes must be > 0, got {dram_bytes}")
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        if ssd_bar.base < dram_bytes:
            raise ValueError(
                f"SSD BAR base {ssd_bar.base:#x} overlaps DRAM of {dram_bytes} bytes"
            )
        self.dram_bytes = dram_bytes
        self.ssd_bar = ssd_bar
        self.page_size = page_size
        self.stats = stats if stats is not None else StatRegistry()
        self.persistence_sanitizer = persistence_sanitizer
        self.plb = PLB(plb_entries, stats=self.stats)
        # Installed by FlatFlash when fault injection is active; None keeps
        # the fault-free fast path byte-identical to the baseline.
        self.mmio_retry: Optional[MMIORetryPolicy] = None
        self._to_dram = self.stats.counter("bridge.requests_to_dram")
        self._to_ssd = self.stats.counter("bridge.requests_to_ssd")

    def register_shared(self, recorder) -> None:
        """Name the bridge's shared objects for the dynamic access
        recorder (:class:`repro.sim.race.AccessRecorder`): DES processes
        of one memory system all route through this bridge and its PLB."""
        recorder.register(self, "bridge")
        recorder.register(self.plb, "bridge.plb")
        recorder.register(self._to_dram, "bridge.requests_to_dram")
        recorder.register(self._to_ssd, "bridge.requests_to_ssd")

    # ------------------------------------------------------------------ #
    # Persist-bit handling (§3.5)
    # ------------------------------------------------------------------ #

    @staticmethod
    def tag_persist(phys_addr: int, persist: bool) -> int:
        """Prefix a physical address with the P bit (done at translation)."""
        if persist:
            return phys_addr | (1 << PERSIST_BIT_SHIFT)
        return phys_addr

    @staticmethod
    def split_persist(tagged_addr: int) -> Tuple[int, bool]:
        """Mask the P bit out of a tagged address: (address, persist)."""
        persist = bool(tagged_addr & (1 << PERSIST_BIT_SHIFT))
        return tagged_addr & ~(1 << PERSIST_BIT_SHIFT), persist

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def route(self, tagged_addr: int) -> Tuple[str, int, int, bool]:
        """Classify a (possibly P-tagged) physical address.

        Returns ``(target, page, offset, persist)`` where target is
        ``"dram"`` (page = frame index) or ``"ssd"`` (page = device page
        number inside the BAR).
        """
        phys_addr, persist = self.split_persist(tagged_addr)
        if phys_addr < self.dram_bytes:
            frame = phys_addr // self.page_size
            if persist and self.persistence_sanitizer is not None:
                # Persist pages are pinned to the SSD (§3.5); a P-tagged
                # request landing in volatile DRAM breaks durability.
                self.persistence_sanitizer.on_persist_routed("dram", frame)
            self._to_dram.add()
            return "dram", frame, phys_addr % self.page_size, persist
        if self.ssd_bar.contains(phys_addr):
            self._to_ssd.add()
            offset = self.ssd_bar.offset_of(phys_addr)
            return "ssd", offset // self.page_size, offset % self.page_size, persist
        raise ValueError(f"physical address {phys_addr:#x} maps to no device")

    def dram_addr(self, frame_index: PFN, offset: OffsetBytes = 0) -> int:
        """Host physical address of a DRAM frame byte."""
        addr = frame_index * self.page_size + offset
        if addr >= self.dram_bytes:
            raise ValueError(f"frame {frame_index} outside DRAM")
        return addr

    def ssd_addr(self, device_page: HostPage, offset: OffsetBytes = 0) -> int:
        """Host physical address of a byte in the SSD BAR window."""
        addr = self.ssd_bar.base + device_page * self.page_size + offset
        if not self.ssd_bar.contains(addr):
            raise ValueError(f"device page {device_page} outside the BAR window")
        return addr
