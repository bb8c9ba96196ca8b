"""Unified page table: virtual pages mapped to DRAM frames *or* SSD pages.

The defining property of FlatFlash's (and FlashMap's) unified address
translation is that a PTE can point at either domain (Fig. 3b): DRAM frames
for promoted pages, flash physical pages for everything else — and both are
*present*, so touching an SSD-resident page does not fault.  The paging
baselines use the same structure but keep SSD-resident PTEs non-present,
so every access to them raises a page fault.

The Persist (P) bit of §3.5 lives here too: it flags pages that belong to a
persistent memory region, travels with the physical address to the host
bridge, and excludes the page from promotion.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.sim.stats import StatRegistry
from repro.units import PFN, VPN, HostPage, TimeNs


class Domain(enum.Enum):
    """Where a virtual page's backing memory currently lives."""

    DRAM = "dram"
    SSD = "ssd"


class PageTableEntry:
    """One PTE of the unified page table."""

    __slots__ = ("vpn", "present", "domain", "frame_index", "ssd_page", "persist")

    def __init__(self, vpn: VPN) -> None:
        self.vpn = vpn
        self.present = False
        self.domain = Domain.SSD
        self.frame_index: Optional[PFN] = None
        self.ssd_page: Optional[HostPage] = None
        self.persist = False

    def point_to_dram(self, frame_index: PFN) -> None:
        self.domain = Domain.DRAM
        self.frame_index = frame_index
        self.present = True

    def point_to_ssd(self, ssd_page: HostPage, present: bool) -> None:
        """Point at an SSD page.  ``present`` is True for byte-addressable
        systems (direct access) and False for paging baselines (faults)."""
        self.domain = Domain.SSD
        self.ssd_page = ssd_page
        self.frame_index = None
        self.present = present

    def __repr__(self) -> str:
        target = (
            f"frame={self.frame_index}"
            if self.domain is Domain.DRAM
            else f"ssd_page={self.ssd_page}"
        )
        return (
            f"PTE(vpn={self.vpn}, present={self.present}, {target}, "
            f"persist={self.persist})"
        )


class PageTable:
    """vpn -> PTE mapping with walk-cost accounting."""

    def __init__(self, walk_cost_ns: TimeNs, stats: Optional[StatRegistry] = None) -> None:
        if walk_cost_ns < 0:
            raise ValueError(f"walk_cost_ns must be >= 0, got {walk_cost_ns}")
        self.walk_cost_ns = walk_cost_ns
        self._entries: Dict[VPN, PageTableEntry] = {}
        self.stats = stats if stats is not None else StatRegistry()
        self._walks = self.stats.counter("page_table.walks")

    def entry(self, vpn: VPN) -> PageTableEntry:
        """The PTE for ``vpn``, created on first reference."""
        pte = self._entries.get(vpn)
        if pte is None:
            pte = PageTableEntry(vpn)
            self._entries[vpn] = pte
        return pte

    def lookup(self, vpn: VPN) -> Optional[PageTableEntry]:
        """The PTE if it exists, without creating one."""
        return self._entries.get(vpn)

    def walk(self, vpn: VPN) -> Tuple[PageTableEntry, TimeNs]:
        """A hardware page-table walk: returns (PTE, cost in ns)."""
        self._walks.add()
        pte = self._entries.get(vpn)
        if pte is None:
            raise KeyError(f"vpn {vpn} has no mapping (unmapped address)")
        return pte, self.walk_cost_ns

    def remove(self, vpn: VPN) -> Optional[PageTableEntry]:
        """Drop a mapping (munmap); returns the removed PTE if it existed."""
        return self._entries.pop(vpn, None)

    def mapped_vpns(self) -> Dict[VPN, PageTableEntry]:
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
