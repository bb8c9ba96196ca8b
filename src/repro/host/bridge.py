"""Host bridge (root complex): the SSD BAR window, the PLB and MMIO retry.

The host bridge connects CPU, memory controller and PCIe (Fig. 2).  In the
simulator it places the SSD BAR above host DRAM, forms host physical
addresses inside that window, hosts the :class:`~repro.host.plb.PLB` for
in-flight promotions and, under fault injection, the MMIO retry policy.
The Persist (P) bit needs no address tagging here: the access path reads
it from the PTE and hands it to the device with each MMIO request (§3.5).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.host.plb import PLB
from repro.interconnect.pcie import BarWindow
from repro.sim.stats import StatRegistry
from repro.units import LPN, HostPage, OffsetBytes, TimeNs


class MMIORetryPolicy:
    """Bounded retry with exponential backoff for faulted MMIO accesses.

    The bridge retries a failed MMIO transaction up to ``max_retries``
    times, waiting ``backoff_base_ns * backoff_multiplier**attempt`` before
    each retry.  Failures are tracked per *logical* page (lpn — stable
    across GC relocation): after ``degraded_threshold`` consecutive
    failures on one page, that page is degraded permanently to the
    block/DMA path and its promotion is suppressed, so the system keeps
    serving accesses at block-I/O latency instead of erroring.
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
    """The SSD BAR window plus the PLB of in-flight promotions."""

    def __init__(
        self,
        dram_bytes: int,
        ssd_bar: BarWindow,
        page_size: int,
        plb_entries: int,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if dram_bytes <= 0:
            raise ValueError(f"dram_bytes must be > 0, got {dram_bytes}")
        if page_size <= 0:
            raise ValueError(f"page_size must be > 0, got {page_size}")
        if ssd_bar.base < dram_bytes:
            raise ValueError(
                f"SSD BAR base {ssd_bar.base:#x} overlaps DRAM of {dram_bytes} bytes"
            )
        self.ssd_bar = ssd_bar
        self.page_size = page_size
        self.stats = stats if stats is not None else StatRegistry()
        self.plb = PLB(plb_entries, stats=self.stats)
        # Installed by FlatFlash when fault injection is active; None keeps
        # the fault-free fast path byte-identical to the baseline.
        self.mmio_retry: Optional[MMIORetryPolicy] = None
        # Never incremented, but perf/expected.json hashes every registered
        # counter of a FlatFlash run, so the registrations stay until the
        # pins are regenerated.
        self.stats.counter("bridge.requests_to_dram")
        self.stats.counter("bridge.requests_to_ssd")

    def register_shared(self, recorder) -> None:
        """Name the bridge's shared objects for the dynamic access
        recorder (:class:`repro.sim.race.AccessRecorder`): DES processes
        of one memory system all route through this bridge and its PLB."""
        recorder.register(self, "bridge")
        recorder.register(self.plb, "bridge.plb")

    def ssd_addr(self, device_page: HostPage, offset: OffsetBytes = 0) -> int:
        """Host physical address of a byte in the SSD BAR window."""
        addr = self.ssd_bar.base + device_page * self.page_size + offset
        if not self.ssd_bar.contains(addr):
            raise ValueError(f"device page {device_page} outside the BAR window")
        return addr
