"""NAND flash array model.

NAND flash is organized as blocks of pages.  Pages are read and programmed
individually, but can only be programmed after their whole block has been
erased — the asymmetry that forces out-of-place writes, an FTL, and garbage
collection.  The model enforces those rules and tracks wear (program/erase
counts), which the lifetime analysis (Table 1) consumes.

Addresses here are *physical page numbers* (ppn), laid out block-major:
``ppn = block_index * pages_per_block + page_offset``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import LatencyConfig
from repro.sim.sanitizers import (
    PAGE_ERASED,
    PAGE_INVALID,
    PAGE_PROGRAMMED,
    PAGE_STATE_NAMES,
    FlashSanitizer,
)
from repro.sim.stats import StatRegistry
from repro.units import PPN, BlockIndex, TimeNs

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultInjector

class FlashArray:
    """A NAND array with program/read/erase semantics and wear tracking.

    Operations return plain tuples: :meth:`read` gives ``(data,
    latency_ns, failed)``, :meth:`program` and :meth:`erase` give
    ``(latency_ns, failed)``.  ``failed`` is True only when an injected
    fault made the operation fail.

    Page state is one flat table, ``page_state``: a byte per ppn holding
    ``PAGE_ERASED``, ``PAGE_PROGRAMMED`` or ``PAGE_INVALID``.  Per-block
    facts are flat lists indexed by block: ``valid_pages`` and
    ``invalid_pages`` (kept in step with the table, since GC victim
    selection reads them for every block on every run), ``erase_counts``
    and ``bad`` (retired: an erase failed there, or the wear limit was
    reached; bad blocks never rejoin the free rotation and GC skips them).
    """

    def __init__(
        self,
        num_blocks: int,
        pages_per_block: int,
        page_size: int,
        latency: LatencyConfig,
        track_data: bool = True,
        num_channels: int = 8,
        stats: Optional[StatRegistry] = None,
        sanitizer: Optional[FlashSanitizer] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if num_blocks <= 0 or pages_per_block <= 0 or page_size <= 0:
            raise ValueError(
                f"invalid flash geometry: blocks={num_blocks} "
                f"pages/block={pages_per_block} page_size={page_size}"
            )
        if num_channels <= 0:
            raise ValueError(f"num_channels must be > 0, got {num_channels}")
        self.num_channels = num_channels
        self.num_blocks = num_blocks
        self.pages_per_block = pages_per_block
        self.page_size = page_size
        self.latency = latency
        self.track_data = track_data
        self.total_pages = num_blocks * pages_per_block
        self.page_state = bytearray(self.total_pages)  # all PAGE_ERASED
        self.valid_pages: List[int] = [0] * num_blocks
        self.invalid_pages: List[int] = [0] * num_blocks
        self.erase_counts: List[int] = [0] * num_blocks
        self.bad: List[bool] = [False] * num_blocks
        self.sanitizer = sanitizer
        if sanitizer is not None:
            sanitizer.attach(num_blocks, pages_per_block)
        self._data: Dict[PPN, bytes] = {}
        self.faults = faults
        self.wear_limit = (
            faults.config.nand_wear_limit if faults is not None else 0
        )
        self.stats = stats if stats is not None else StatRegistry()
        self._reads = self.stats.counter("flash.page_reads")
        self._programs = self.stats.counter("flash.page_programs")
        self._erases = self.stats.counter("flash.block_erases")
        self._read_faults = self.stats.counter("flash.read_faults")
        self._program_fails = self.stats.counter("flash.program_fails")
        self._erase_fails = self.stats.counter("flash.erase_fails")
        self._wear_retired = self.stats.counter("flash.wear_retired_blocks")

    def _check_ppn(self, ppn: PPN) -> None:
        if not 0 <= ppn < self.total_pages:
            raise ValueError(f"ppn {ppn} out of range [0, {self.total_pages})")

    def channel_of(self, ppn: PPN) -> int:
        """The channel a page's operations occupy (blocks stripe across
        channels, the common SSD layout)."""
        self._check_ppn(ppn)
        return (ppn // self.pages_per_block) % self.num_channels

    def read(self, ppn: PPN) -> Tuple[Optional[bytes], TimeNs, bool]:
        """Read one page: returns (data, latency_ns, failed).  Reading
        erased/invalid pages is allowed (the FTL never does it, but raw
        tools may) and returns zeros.

        Under fault injection a read may come back ``failed`` — an
        uncorrectable-first-try ECC error.  The data is still carried (the
        FTL's retry path decides whether to charge another read or escalate
        to soft-decode recovery); callers that ignore ``failed`` see the
        correct bytes, modelling ECC that eventually always corrects.
        """
        self._check_ppn(ppn)
        self._reads.add()
        data = None
        if self.track_data:
            data = self._data.get(ppn, b"\x00" * self.page_size)
        failed = self.faults is not None and self.faults.fires("nand.read")
        if failed:
            self._read_faults.add()
        return data, self.latency.flash_read_page_ns, failed

    def program(self, ppn: PPN, data: Optional[bytes] = None) -> Tuple[TimeNs, bool]:
        """Program one erased page: returns (latency_ns, failed).
        Programming a non-erased page is a bug in the FTL and raises."""
        self._check_ppn(ppn)
        if self.sanitizer is not None:
            self.sanitizer.on_program(ppn)
        state = self.page_state[ppn]
        if state != PAGE_ERASED:
            raise RuntimeError(
                f"program to non-erased page ppn={ppn} ({PAGE_STATE_NAMES[state]})"
            )
        if data is not None and len(data) != self.page_size:
            raise ValueError(
                f"program data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        block = ppn // self.pages_per_block
        if self.faults is not None and self.faults.fires("nand.program"):
            # Program failure burns the page: it goes straight to INVALID
            # (unusable until its block is erased) and holds no data.  The
            # FTL retries on the next frontier page.
            self.page_state[ppn] = PAGE_INVALID
            self.invalid_pages[block] += 1
            self._program_fails.add()
            if self.sanitizer is not None:
                self.sanitizer.on_program_fail(ppn)
            return self.latency.flash_program_page_ns, True
        self.page_state[ppn] = PAGE_PROGRAMMED
        self.valid_pages[block] += 1
        self._programs.add()
        if self.track_data:
            self._data[ppn] = bytes(data) if data is not None else b"\x00" * self.page_size
        return self.latency.flash_program_page_ns, False

    def invalidate(self, ppn: PPN) -> None:
        """Mark a programmed page invalid (out-of-place overwrite)."""
        self._check_ppn(ppn)
        if self.sanitizer is not None:
            self.sanitizer.on_invalidate(ppn)
        if self.page_state[ppn] != PAGE_PROGRAMMED:
            raise RuntimeError(f"invalidate of non-programmed page ppn={ppn}")
        self.page_state[ppn] = PAGE_INVALID
        block = ppn // self.pages_per_block
        self.valid_pages[block] -= 1
        self.invalid_pages[block] += 1
        if self.track_data:
            self._data.pop(ppn, None)

    def erase(self, block_index: BlockIndex) -> Tuple[TimeNs, bool]:
        """Erase a whole block: returns (latency_ns, failed).  Erasing a
        block with valid pages raises — the GC must relocate them first."""
        if not 0 <= block_index < self.num_blocks:
            raise ValueError(f"block {block_index} out of range [0, {self.num_blocks})")
        if self.bad[block_index]:
            raise RuntimeError(f"erase of retired bad block {block_index}")
        if self.sanitizer is not None:
            self.sanitizer.on_erase(block_index)
        if self.valid_pages[block_index]:
            raise RuntimeError(
                f"erase of block {block_index} with "
                f"{self.valid_pages[block_index]} valid pages"
            )
        if self.faults is not None and self.faults.fires("nand.erase"):
            # Erase failure retires the whole block; its pages keep their
            # (invalid/erased) states and never rejoin the rotation.
            self.bad[block_index] = True
            self._erase_fails.add()
            if self.sanitizer is not None:
                self.sanitizer.on_erase_fail(block_index)
            return self.latency.flash_erase_block_ns, True
        first = block_index * self.pages_per_block
        end = first + self.pages_per_block
        self.page_state[first:end] = bytes(self.pages_per_block)
        if self.track_data:
            for ppn in range(first, end):
                self._data.pop(ppn, None)
        self.invalid_pages[block_index] = 0
        self.erase_counts[block_index] += 1
        self._erases.add()
        if self.wear_limit > 0 and self.erase_counts[block_index] >= self.wear_limit:
            # Wear-triggered retirement: the erase itself succeeded (the
            # block is clean), but its cells are end-of-life.
            self.bad[block_index] = True
            self._wear_retired.add()
        return self.latency.flash_erase_block_ns, False

    @property
    def total_programs(self) -> int:
        return self._programs.value

    @property
    def total_erases(self) -> int:
        return self._erases.value

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_counts)

    # ------------------------------------------------------------------ #
    # Image snapshot/restore (repro.faults.power)
    # ------------------------------------------------------------------ #

    def snapshot_state(self) -> dict:
        """Deep snapshot of the NAND image: page states, wear, bad-block
        flags and page payloads.  Flash is non-volatile, so this is exactly
        what survives a power cut."""
        return {
            "num_blocks": self.num_blocks,
            "pages_per_block": self.pages_per_block,
            "page_state": bytes(self.page_state),
            "erase_counts": list(self.erase_counts),
            "bad": list(self.bad),
            "data": dict(self._data),
        }

    def restore_state(self, image: dict) -> None:
        """Load a :meth:`snapshot_state` image into this (same-geometry)
        array and resync the flash sanitizer's shadow to match."""
        if (
            image["num_blocks"] != self.num_blocks
            or image["pages_per_block"] != self.pages_per_block
        ):
            raise ValueError(
                f"flash image geometry {image['num_blocks']}x"
                f"{image['pages_per_block']} does not match array "
                f"{self.num_blocks}x{self.pages_per_block}"
            )
        self.page_state = bytearray(image["page_state"])
        per_block = self.pages_per_block
        for block in range(self.num_blocks):
            states = self.page_state[block * per_block : (block + 1) * per_block]
            self.valid_pages[block] = states.count(PAGE_PROGRAMMED)
            self.invalid_pages[block] = states.count(PAGE_INVALID)
        self.erase_counts = list(image["erase_counts"])
        self.bad = list(image["bad"])
        self._data = dict(image["data"])
        if self.sanitizer is not None:
            self.sanitizer.resync(self.page_state)

