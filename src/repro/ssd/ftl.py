"""Page-level flash translation layer (FTL).

The FTL maps *logical* page numbers (lpn — stable handles the host addresses
data by) to *physical* flash pages (ppn).  NAND pages cannot be overwritten
in place, so every write programs a fresh page from a write frontier and
invalidates the old one; a garbage collector later reclaims blocks that are
mostly invalid.

Two deployment modes matter to the paper:

* **Device FTL** (TraditionalStack): the mapping is private to the SSD and
  every host access pays an FTL lookup.
* **Host-merged FTL** (UnifiedMMap / FlatFlash, §3.2 and §4): the mapping is
  folded into the host page table, PTEs point straight at flash physical
  pages, and when GC relocates a page the device records an old→new entry in
  a *remap table* that is lazily propagated to PTEs/TLBs in batches.

This class implements the mapping and allocation machinery; the mode choice
lives in :class:`repro.ssd.device.ByteAddressableSSD`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.stats import Counter, StatRegistry
from repro.ssd.flash import PAGE_PROGRAMMED, FlashArray
from repro.units import LPN, PPN, BlockIndex, TimeNs

RelocateHook = Callable[[int, int, int], None]  # (lpn, old_ppn, new_ppn)


class OutOfSpaceError(RuntimeError):
    """Raised when the flash array has no reclaimable space left."""


class PageFTL:
    """Out-of-place page mapping with greedy victim selection for GC."""

    def __init__(
        self,
        flash: FlashArray,
        overprovision: float = 0.07,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        if not 0.0 <= overprovision < 1.0:
            raise ValueError(f"overprovision must be in [0, 1), got {overprovision}")
        self.flash = flash
        self.stats = stats if stats is not None else StatRegistry()
        # Exported (host-visible) capacity excludes the over-provisioned area
        # that gives GC room to operate, and is block-aligned.
        usable_blocks = max(1, int(flash.num_blocks * (1.0 - overprovision)))
        # Keep at least two spare blocks: one write frontier plus one reserve
        # so GC always has room to relocate a full victim block.
        if usable_blocks > flash.num_blocks - 2:
            usable_blocks = flash.num_blocks - 2
        if usable_blocks < 1:
            raise ValueError("flash array too small to over-provision")
        self.exported_pages = usable_blocks * flash.pages_per_block
        self.mapping: Dict[LPN, PPN] = {}
        self.reverse: Dict[PPN, LPN] = {}
        self._free_blocks: List[BlockIndex] = list(range(flash.num_blocks - 1, -1, -1))
        self._frontier_block: Optional[BlockIndex] = None
        self._frontier_offset = 0
        self._relocate_hooks: List[RelocateHook] = []
        # Optional freshness source consulted during GC relocation: the
        # read-modify-write GC folds dirty SSD-Cache pages into the block it
        # rewrites (§4).  Returns newer page data for an lpn, or None.
        self.page_source: Optional[Callable[[int], Optional[bytes]]] = None
        self._host_writes = self.stats.counter("ftl.host_writes")
        self._gc_writes = self.stats.counter("ftl.gc_writes")
        self._gc_runs = self.stats.counter("ftl.gc_runs")
        # Never incremented; registered because perf/expected.json hashes
        # every registered counter.
        self.stats.counter("ftl.wear_levelings")
        self.stats.counter("ftl.trims")
        # Fault-handling work (repro.faults): ECC read retries, reads that
        # exhausted retries and needed soft-decode rescue, and programs
        # re-issued after a program failure burned a frontier page.
        self._ecc_retries = self.stats.counter("ftl.ecc_retries")
        self._ecc_hard_errors = self.stats.counter("ftl.ecc_hard_errors")
        self._program_retries = self.stats.counter("ftl.program_retries")

    # ------------------------------------------------------------------ #
    # Mapping queries
    # ------------------------------------------------------------------ #

    def _check_lpn(self, lpn: LPN) -> None:
        if not 0 <= lpn < self.exported_pages:
            raise ValueError(f"lpn {lpn} out of range [0, {self.exported_pages})")

    def is_mapped(self, lpn: LPN) -> bool:
        self._check_lpn(lpn)
        return lpn in self.mapping

    def lookup(self, lpn: LPN) -> PPN:
        """Current ppn for a mapped lpn."""
        self._check_lpn(lpn)
        try:
            return PPN(self.mapping[lpn])
        except KeyError:
            raise KeyError(f"lpn {lpn} is not mapped") from None

    def lpn_of(self, ppn: PPN) -> Optional[LPN]:
        """Reverse lookup: which lpn currently lives at this ppn."""
        lpn = self.reverse.get(ppn)
        return None if lpn is None else LPN(lpn)

    def add_relocate_hook(self, hook: RelocateHook) -> None:
        """Register a callback fired whenever a live page changes ppn.

        That covers GC relocation *and* out-of-place rewrites (dirty-page
        destaging): in the host-merged mode both invalidate a physical
        address the host may still hold, so both feed the remap table.
        """
        self._relocate_hooks.append(hook)

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    @property
    def free_blocks(self) -> int:
        return len(self._free_blocks) + (1 if self._frontier_block is not None else 0)

    def gc_needed(self) -> bool:
        """GC should run when only the reserve block remains on the free list."""
        return len(self._free_blocks) < 2

    # ------------------------------------------------------------------ #
    # Host operations
    # ------------------------------------------------------------------ #

    def map_page(self, lpn: LPN) -> Tuple[PPN, TimeNs]:
        """Ensure ``lpn`` is backed by a flash page; returns (ppn, cost_ns).

        First touch programs a zero page so the mapping always points at a
        real programmed page (reads need stable physical addresses in the
        host-merged mode).
        """
        self._check_lpn(lpn)
        existing = self.mapping.get(lpn)
        if existing is not None:
            return existing, 0
        return self._program_new(lpn, None)

    def read(self, lpn: LPN) -> Tuple[PPN, Optional[bytes], TimeNs]:
        """Read a logical page: returns (ppn, data, cost_ns)."""
        ppn = self.lookup(lpn)
        data, cost, failed = self.flash.read(ppn)
        if failed:
            data, cost = self._retry_ecc(ppn, data, cost)
        return ppn, data, cost

    def _retry_ecc(
        self, ppn: PPN, data: Optional[bytes], latency: TimeNs
    ) -> Tuple[Optional[bytes], TimeNs]:
        """Recover a read whose first try (``data``, ``latency`` ns) failed
        ECC; returns the recovered (data, total latency_ns).

        A failed read is re-issued up to ``ecc_max_retries`` times (each
        charged a full page read).  If every retry fails, the FTL escalates
        to soft-decode recovery — modeled as always correcting at the cost
        of two extra page-read latencies — so data is never lost, only
        delayed; ``ftl.ecc_hard_errors`` counts the escalations.
        """
        faults = self.flash.faults
        max_retries = faults.config.ecc_max_retries if faults is not None else 0
        for _ in range(max_retries):
            self._ecc_retries.add()
            data, cost, failed = self.flash.read(ppn)
            latency += cost
            if not failed:
                return data, latency
        self._ecc_hard_errors.add()
        latency += self.flash.latency.flash_read_page_ns * 2
        return data, latency

    def write(self, lpn: LPN, data: Optional[bytes] = None) -> Tuple[PPN, TimeNs]:
        """Out-of-place write of a logical page: returns (new_ppn, cost_ns)."""
        self._check_lpn(lpn)
        return self._program_new(lpn, data)

    def _program_new(self, lpn: LPN, data: Optional[bytes]) -> Tuple[PPN, TimeNs]:
        """A host write: GC first if space is short, then program and book it."""
        cost = 0
        if self.gc_needed():
            cost += self.collect_garbage()
        new_ppn, program_cost = self._program_retrying(data)
        cost += program_cost
        self._book(lpn, self.mapping.get(lpn), new_ppn, self._host_writes)
        return new_ppn, cost

    def _book(
        self, lpn: LPN, old_ppn: Optional[PPN], new_ppn: PPN, writes: Counter
    ) -> None:
        """Point ``lpn`` at its freshly programmed ``new_ppn``: invalidate
        the old copy, update both maps, count the write on ``writes`` and
        fire the relocate hooks when a live page moved."""
        if old_ppn is not None:
            self.flash.invalidate(old_ppn)
            del self.reverse[old_ppn]
        self.mapping[lpn] = new_ppn
        self.reverse[new_ppn] = lpn
        writes.add()
        if old_ppn is not None:
            for hook in self._relocate_hooks:
                hook(lpn, old_ppn, new_ppn)

    def _program_retrying(self, data: Optional[bytes]) -> Tuple[PPN, TimeNs]:
        """Program ``data`` on the write frontier, opening a free block when
        the frontier is closed and skipping pages whose program operation
        fails (the array burns them to INVALID); returns the first
        successfully programmed (ppn, cost_ns)."""
        cost = 0
        pages_per_block = self.flash.pages_per_block
        while True:
            if self._frontier_block is None:
                if not self._free_blocks:
                    raise OutOfSpaceError("no free flash blocks; GC must run first")
                self._frontier_block = self._free_blocks.pop()
                self._frontier_offset = 0
            ppn = PPN(self._frontier_block * pages_per_block + self._frontier_offset)
            self._frontier_offset += 1
            if self._frontier_offset == pages_per_block:
                self._frontier_block = None
            program_cost, failed = self.flash.program(ppn, data)
            cost += program_cost
            if not failed:
                return ppn, cost
            self._program_retries.add()

    # ------------------------------------------------------------------ #
    # Garbage collection (relocation part; the read-modify-write policy
    # that folds SSD-Cache dirty pages lives in repro.ssd.gc and reaches
    # it through ``page_source``)
    # ------------------------------------------------------------------ #

    def _closed_blocks(self) -> List[BlockIndex]:
        """Blocks GC may reclaim: not retired, not on the free list and not
        the open write frontier; in index order."""
        bad = self.flash.bad
        free = set(self._free_blocks)
        return [
            block
            for block in range(self.flash.num_blocks)
            if not bad[block] and block != self._frontier_block and block not in free
        ]

    def select_victim(self) -> Optional[BlockIndex]:
        """Greedy policy: the fully-written block with the most invalid
        pages; ties go to the least-worn block (wear-aware tie-break), then
        to the lowest index."""
        flash = self.flash
        best_block: Optional[BlockIndex] = None
        best_key: Optional[Tuple[int, int]] = None
        for block in self._closed_blocks():
            invalid = flash.invalid_pages[block]
            if flash.valid_pages[block] + invalid < flash.pages_per_block:
                continue  # not fully written yet
            key = (invalid, -flash.erase_counts[block])
            if best_key is None or key > best_key:
                best_key = key
                best_block = block
        return best_block

    def collect_garbage(self) -> TimeNs:
        """Reclaim one victim block; returns the time spent in ns."""
        victim = self.select_victim()
        if victim is None:
            raise OutOfSpaceError("GC found no victim block to reclaim")
        if self.flash.invalid_pages[victim] == 0:
            raise OutOfSpaceError(
                "GC cannot make progress: best victim has no invalid pages "
                "(logical capacity exhausted)"
            )
        self._gc_runs.add()
        return self._relocate_block(victim)

    def _relocate_block(self, block: BlockIndex) -> TimeNs:
        """Move ``block``'s programmed pages to the frontier in ppn order,
        then erase it and return it to the free pool; returns ns spent.

        Each page is read (with ECC retry) and replaced by ``page_source``'s
        newer copy when there is one, which folds dirty SSD-Cache pages
        into the move.  Every move fires the relocate hooks, so the device
        can maintain its remap table.  A failed erase (or wear retirement
        during it) leaves the block bad: it never rejoins the free pool,
        shrinking spare capacity.  With a flash sanitizer attached, the
        page accounting is checked afterwards.
        """
        flash = self.flash
        first = block * flash.pages_per_block
        cost = 0
        for old_ppn in range(first, first + flash.pages_per_block):
            if flash.page_state[old_ppn] != PAGE_PROGRAMMED:
                continue
            lpn = self.reverse.get(old_ppn)
            if lpn is None:
                raise RuntimeError(f"valid page ppn={old_ppn} has no reverse mapping")
            data, read_cost, failed = flash.read(old_ppn)
            if failed:
                data, read_cost = self._retry_ecc(old_ppn, data, read_cost)
            cost += read_cost
            if self.page_source is not None:
                fresher = self.page_source(lpn)
                if fresher is not None:
                    data = fresher
            new_ppn, program_cost = self._program_retrying(data)
            cost += program_cost
            self._book(lpn, old_ppn, new_ppn, self._gc_writes)
        erase_cost, failed = flash.erase(block)
        cost += erase_cost
        if not failed and not flash.bad[block]:
            self._free_blocks.insert(0, block)
        if flash.sanitizer is not None:
            # Relocation must neither leak valid pages (moved but not
            # invalidated) nor leave dangling mappings.
            flash.sanitizer.check_accounting(
                len(self.mapping), context="GC relocation"
            )
        return cost

    # ------------------------------------------------------------------ #
    # Image snapshot/restore (repro.faults.power)
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Mapping/allocator snapshot.  A real device journals its mapping
        into flash OOB areas; the model snapshots it directly alongside the
        NAND image so a post-power-loss restart can rebuild the FTL."""
        return {
            "mapping": dict(self.mapping),
            "reverse": dict(self.reverse),
            "free_blocks": list(self._free_blocks),
            "frontier_block": self._frontier_block,
            "frontier_offset": self._frontier_offset,
        }

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`snapshot_state` image (flash must match)."""
        self.mapping = dict(state["mapping"])
        self.reverse = dict(state["reverse"])
        self._free_blocks = list(state["free_blocks"])
        self._frontier_block = state["frontier_block"]
        self._frontier_offset = state["frontier_offset"]
