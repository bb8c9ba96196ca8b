"""Promotion Look-aside Buffer (PLB): consistency for in-flight promotions.

Promoting a page from SSD to host DRAM takes ~12 µs (Table 2); stalling the
application for that long would erase the benefit, and letting it run risks
losing stores that race the copy.  FlatFlash adds a small table to the host
bridge (§3.3, Fig. 4): one entry per in-flight promotion holding the source
SSD address, the destination DRAM frame, and a *Copied-CL* bit per cache
line.

Protocol (Fig. 4):

* each inbound line DMA-ed from the SSD sets its Copied bit — unless a CPU
  store already set it, in which case the inbound (stale) copy is dropped;
* a CPU store during promotion writes the DRAM frame directly and sets the
  line's Copied bit;
* a CPU load is served from DRAM when the bit is set, else forwarded to the
  SSD;
* when every line is copied the entry retires and the PTE/TLB are updated.

Lookups are CAM-indexed (one cycle, §3.3) so the model charges no latency
for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.stats import StatRegistry
from repro.units import PFN, HostPage, TimeNs


class PLBEntry:
    """One in-flight page promotion."""

    __slots__ = ("ssd_tag", "mem_tag", "copied", "inbound_pos", "complete_at_ns", "snapshot")

    def __init__(
        self,
        ssd_tag: HostPage,
        mem_tag: PFN,
        num_lines: int,
        complete_at_ns: TimeNs,
        snapshot: Optional[bytes] = None,
    ) -> None:
        self.ssd_tag = ssd_tag  # source: host-visible SSD page number
        self.mem_tag = mem_tag  # destination: DRAM frame index
        self.copied: List[bool] = [False] * num_lines
        self.inbound_pos = 0  # next line the SSD-side copy will deliver
        self.complete_at_ns = complete_at_ns
        # The page as read from the SSD when the promotion started: the
        # source of inbound lines and of reads forwarded to the SSD (None
        # when payloads are not tracked).
        self.snapshot = snapshot

    def __repr__(self) -> str:
        done = sum(self.copied)
        return (
            f"PLBEntry(ssd={self.ssd_tag}, frame={self.mem_tag}, "
            f"copied={done}/{len(self.copied)})"
        )


class PLB:
    """The PLB table: fixed entry count, keyed by SSD page tag."""

    def __init__(self, entries: int, stats: Optional[StatRegistry] = None) -> None:
        if entries <= 0:
            raise ValueError(f"PLB must have > 0 entries, got {entries}")
        self.capacity = entries
        self._by_ssd_tag: Dict[HostPage, PLBEntry] = {}
        self.stats = stats if stats is not None else StatRegistry()
        self._started = self.stats.counter("plb.promotions_started")
        self._dropped = self.stats.counter("plb.inbound_lines_dropped")
        self._redirects = self.stats.counter("plb.store_redirects")
        self._hits = self.stats.ratio("plb.hits")

    @property
    def in_flight(self) -> int:
        return len(self._by_ssd_tag)

    @property
    def has_free_entry(self) -> bool:
        return len(self._by_ssd_tag) < self.capacity

    def start(
        self,
        ssd_tag: HostPage,
        mem_tag: PFN,
        num_lines: int,
        complete_at_ns: TimeNs,
        snapshot: Optional[bytes] = None,
    ) -> Optional[PLBEntry]:
        """Begin tracking a promotion; None when the table is full."""
        if ssd_tag in self._by_ssd_tag:
            raise ValueError(f"promotion of SSD page {ssd_tag} already in flight")
        if not self.has_free_entry:
            return None
        entry = PLBEntry(ssd_tag, mem_tag, num_lines, complete_at_ns, snapshot)
        self._by_ssd_tag[ssd_tag] = entry
        self._started.add()
        return entry

    def lookup(self, ssd_tag: HostPage) -> Optional[PLBEntry]:
        """CAM lookup by SSD page (one cycle: no cost charged)."""
        entry = self._by_ssd_tag.get(ssd_tag)
        self._hits.record(entry is not None)
        return entry

    def peek(self, ssd_tag: HostPage) -> Optional[PLBEntry]:
        """The entry for an SSD page, without counting ``plb.hits``."""
        return self._by_ssd_tag.get(ssd_tag)

    def inbound_line(self, entry: PLBEntry, line: int) -> bool:
        """An inbound line arrived from the SSD.

        Returns True when the copy should land in DRAM; False when a CPU
        store already owns the line and the inbound copy must be dropped
        (Fig. 4c, step 7).
        """
        if entry.copied[line]:
            self._dropped.add()
            return False
        entry.copied[line] = True
        return True

    def cpu_store(self, entry: PLBEntry, line: int) -> None:
        """A CPU store hit the in-flight page: redirect to DRAM, own the line
        (Fig. 4b, steps 5-6)."""
        entry.copied[line] = True
        self._redirects.add()

    def cpu_load_from_dram(self, entry: PLBEntry, line: int) -> bool:
        """Where should a CPU load be served from?  True → DRAM (line already
        copied), False → forward to the SSD."""
        return entry.copied[line]

    def retire(self, entry: PLBEntry) -> None:
        """Promotion finished: free the entry for reuse (§3.3)."""
        removed = self._by_ssd_tag.pop(entry.ssd_tag, None)
        if removed is not entry:
            raise ValueError(f"entry for SSD page {entry.ssd_tag} not active")

    def entries(self) -> List[PLBEntry]:
        return list(self._by_ssd_tag.values())
