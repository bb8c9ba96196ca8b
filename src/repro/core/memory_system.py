"""The common memory-system interface shared by FlatFlash and the baselines.

Every system under evaluation — FlatFlash, UnifiedMMap, TraditionalStack,
DRAM-only — exposes the same programming model: ``mmap`` a region, then
``load``/``store`` arbitrary byte ranges of virtual addresses.  Each access
returns an :class:`AccessResult` carrying its simulated cost, and the
system's clock advances by that cost, so workloads are written once and run
unchanged against every system.

Subclasses implement one method, ``_access_page``: a load/store confined to
a single page.  The base class handles region bookkeeping, the page split
for ranges that cross page boundaries, TLB accounting, and value-typed
helpers used by the example applications.
"""

from __future__ import annotations

import abc
import struct
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import FlatFlashConfig
from repro.host.page_table import PageTable
from repro.host.tlb import TLB
from repro.sim.clock import SimClock
from repro.sim.sanitizers import ClockSanitizer
from repro.sim.stats import LatencyStats, StatRegistry
from repro.units import LPN, VPN, OffsetBytes, TimeNs


class AccessResult:
    """Outcome of one load/store."""

    __slots__ = ("latency_ns", "source", "fault", "data")

    def __init__(
        self,
        latency_ns: int,
        source: str,
        fault: bool = False,
        data: Optional[bytes] = None,
    ) -> None:
        self.latency_ns = latency_ns
        self.source = source  # "dram", "ssd", "plb", "cpu_cache"
        self.fault = fault
        self.data = data

    def __repr__(self) -> str:
        return (
            f"AccessResult({self.latency_ns}ns from {self.source}"
            f"{', fault' if self.fault else ''})"
        )


class MappedRegion:
    """A contiguous virtual mapping backed by the SSD (an mmap-ed file)."""

    __slots__ = ("base_vpn", "num_pages", "page_size", "persist", "name")

    def __init__(
        self, base_vpn: VPN, num_pages: int, page_size: int, persist: bool, name: str
    ) -> None:
        self.base_vpn = base_vpn
        self.num_pages = num_pages
        self.page_size = page_size
        self.persist = persist
        self.name = name

    @property
    def base_addr(self) -> int:
        return self.base_vpn * self.page_size

    @property
    def size(self) -> int:
        return self.num_pages * self.page_size

    def addr(self, offset: int) -> int:
        """Virtual address ``offset`` bytes into the region."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside region of {self.size} bytes")
        return self.base_addr + offset

    def page_addr(self, page: int, offset: int = 0) -> int:
        """Virtual address of byte ``offset`` within the region's ``page``-th page."""
        if not 0 <= page < self.num_pages:
            raise ValueError(f"page {page} outside region of {self.num_pages} pages")
        return self.addr(page * self.page_size + offset)

    def __repr__(self) -> str:
        return f"MappedRegion({self.name!r}, pages={self.num_pages}, persist={self.persist})"


class MemorySystem(abc.ABC):
    """Base class: virtual address space, TLB accounting, access splitting."""

    #: Human-readable system name, used in experiment tables.
    name = "abstract"

    def __init__(self, config: FlatFlashConfig) -> None:
        config.validate()
        self.config = config
        self.clock = SimClock(
            sanitizer=ClockSanitizer() if config.sanitizers.clock else None
        )
        self.stats = StatRegistry()
        self.page_size = config.geometry.page_size
        self.page_table = PageTable(config.latency.page_table_walk_ns, stats=self.stats)
        self.tlb = TLB(
            config.geometry.tlb_entries,
            config.latency.tlb_shootdown_ns,
            stats=self.stats,
        )
        self.regions: List[MappedRegion] = []
        self._next_vpn = 0
        self._vpn_to_lpn: Dict[VPN, LPN] = {}
        self._loads = self.stats.counter("mem.loads")
        self._stores = self.stats.counter("mem.stores")
        self._access_latency = self.stats.latency("mem.access", keep_samples=False)
        # Per-source latency stats, cached by source name: the f-string
        # format + registry lookup is measurable on the per-access path.
        self._by_source_latency: Dict[str, LatencyStats] = {}
        # Time spent off the critical path (background promotion, eviction,
        # GC write-back); experiments report it separately.
        self._background_ns = self.stats.counter("mem.background_ns")
        # Optional debug event ring (promotions, evictions, faults, ...).
        self._events: Optional[Deque[Tuple[int, str, Dict[str, int]]]] = None

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def mmap(
        self, num_pages: int, persist: bool = False, name: str = "region"
    ) -> MappedRegion:
        """Map ``num_pages`` of SSD-backed memory into the address space."""
        if num_pages <= 0:
            raise ValueError(f"num_pages must be > 0, got {num_pages}")
        region = MappedRegion(self._next_vpn, num_pages, self.page_size, persist, name)
        for page in range(num_pages):
            vpn = region.base_vpn + page
            # Regions tile the SSD's logical space linearly: the lpn is
            # numerically the vpn, but it lives in the SSD's address domain
            # — the cast is the sanctioned host→ssd translation.
            lpn = LPN(vpn)
            self._vpn_to_lpn[vpn] = lpn
            self._map_page(vpn, lpn, persist)
        self._next_vpn += num_pages
        self.regions.append(region)
        return region

    @abc.abstractmethod
    def _map_page(self, vpn: VPN, lpn: LPN, persist: bool) -> None:
        """Create the initial PTE for one page of a new region."""

    def munmap(self, region: MappedRegion) -> None:
        """Unmap a region: release frames, TRIM the SSD backing, drop PTEs.

        Virtual addresses are not recycled (each mmap gets fresh vpns), so
        a dangling pointer into an unmapped region faults loudly instead of
        aliasing new data.
        """
        if region not in self.regions:
            raise ValueError(f"{region!r} is not mapped on this system")
        vpns = [region.base_vpn + page for page in range(region.num_pages)]
        for vpn in vpns:
            self._unmap_page(vpn)
            self._vpn_to_lpn.pop(vpn, None)
            self.page_table.remove(vpn)
        self._background_ns.add(self.tlb.batch_invalidate(vpns))
        self.regions.remove(region)

    def _unmap_page(self, vpn: VPN) -> None:
        """Release one page's backing resources (subclass hook)."""

    def lpn_of_vpn(self, vpn: VPN) -> LPN:
        try:
            return self._vpn_to_lpn[vpn]
        except KeyError:
            raise KeyError(f"vpn {vpn} is not mapped") from None

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #

    def load(self, vaddr: int, size: int) -> AccessResult:
        """Read ``size`` bytes at ``vaddr``; advances the clock by the cost."""
        return self._access(vaddr, size, is_write=False, data=None)

    def store(self, vaddr: int, size: int, data: Optional[bytes] = None) -> AccessResult:
        """Write ``size`` bytes at ``vaddr``; ``data`` optional (accounting-only)."""
        if data is not None and len(data) != size:
            raise ValueError(f"data length {len(data)} != size {size}")
        return self._access(vaddr, size, is_write=True, data=data)

    def _access(
        self, vaddr: int, size: int, is_write: bool, data: Optional[bytes]
    ) -> AccessResult:
        if size <= 0:
            raise ValueError(f"access size must be > 0, got {size}")
        if vaddr < 0:
            raise ValueError(f"negative virtual address {vaddr:#x}")
        if is_write:
            self._stores.add()
        else:
            self._loads.add()
        total_latency = 0
        fault = False
        source = "dram"
        chunks: List[bytes] = []
        offset_in_access = 0
        remaining = size
        addr = vaddr
        while remaining > 0:
            vpn, page_offset = divmod(addr, self.page_size)
            chunk = min(remaining, self.page_size - page_offset)
            payload = None
            if data is not None:
                payload = data[offset_in_access : offset_in_access + chunk]
            tlb_hit = self.tlb.lookup(vpn)
            walk_cost = 0
            if not tlb_hit:
                _pte, walk_cost = self.page_table.walk(vpn)
                self.tlb.fill(vpn)
            result = self._access_page(vpn, page_offset, chunk, is_write, payload)
            total_latency += walk_cost + result.latency_ns
            fault = fault or result.fault
            source = result.source
            if result.data is not None:
                chunks.append(result.data)
            addr += chunk
            offset_in_access += chunk
            remaining -= chunk
        self.clock.advance(total_latency)
        self._access_latency.record(total_latency)
        by_source = self._by_source_latency.get(source)
        if by_source is None:
            by_source = self.stats.latency(f"mem.by_source.{source}", keep_samples=False)
            self._by_source_latency[source] = by_source
        by_source.record(total_latency)
        merged = b"".join(chunks) if chunks else None
        return AccessResult(total_latency, source, fault, merged)

    @abc.abstractmethod
    def _access_page(
        self, vpn: VPN, offset: OffsetBytes, size: int, is_write: bool, data: Optional[bytes]
    ) -> AccessResult:
        """One load/store confined to page ``vpn``."""

    # ------------------------------------------------------------------ #
    # Value helpers for example applications
    # ------------------------------------------------------------------ #

    def store_u64(self, vaddr: int, value: int) -> AccessResult:
        return self.store(vaddr, 8, struct.pack("<Q", value & (2**64 - 1)))

    def load_u64(self, vaddr: int) -> Tuple[int, AccessResult]:
        result = self.load(vaddr, 8)
        value = struct.unpack("<Q", result.data)[0] if result.data else 0
        return value, result

    def store_f64(self, vaddr: int, value: float) -> AccessResult:
        return self.store(vaddr, 8, struct.pack("<d", value))

    def load_f64(self, vaddr: int) -> Tuple[float, AccessResult]:
        result = self.load(vaddr, 8)
        value = struct.unpack("<d", result.data)[0] if result.data else 0.0
        return value, result

    # ------------------------------------------------------------------ #
    # Debug event tracing
    # ------------------------------------------------------------------ #

    def enable_event_log(self, capacity: int = 1_024) -> None:
        """Keep the last ``capacity`` hierarchy events for debugging.

        Events are (timestamp_ns, kind, fields) tuples — promotions,
        evictions, faults, remap drains — readable via :meth:`events`.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self._events = deque(maxlen=capacity)

    def disable_event_log(self) -> None:
        self._events = None

    def _emit(self, kind: str, **fields: int) -> None:
        if self._events is not None:
            self._events.append((self.clock.now, kind, fields))

    def events(self, kind: Optional[str] = None) -> List[Tuple[int, str, Dict[str, int]]]:
        """Recorded events, optionally filtered by kind."""
        if self._events is None:
            return []
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event[1] == kind]

    # ------------------------------------------------------------------ #
    # Explicit time charging (used by apps for non-memory work)
    # ------------------------------------------------------------------ #

    def charge_foreground(self, ns: TimeNs) -> None:
        """Advance the clock for work on the critical path (I/O, compute)."""
        self.clock.advance(ns)

    def charge_background(self, ns: TimeNs) -> None:
        """Account work that does not stall the application."""
        self._background_ns.add(ns)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def elapsed_ns(self) -> int:
        return self.clock.now

    @property
    def background_ns(self) -> int:
        return self._background_ns.value

    @property
    def page_movements(self) -> int:
        """Pages moved between SSD and host DRAM, both directions."""
        counters = self.stats.counters()
        return counters.get("mem.pages_in", 0) + counters.get("mem.pages_out", 0)

    def snapshot(self) -> Dict[str, float]:
        return self.stats.as_dict()
