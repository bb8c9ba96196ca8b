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

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config import LatencyConfig
from repro.sim.sanitizers import FlashSanitizer
from repro.sim.stats import StatRegistry
from repro.units import PPN, BlockIndex

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.plan import FaultInjector


class FlashPageState(enum.Enum):
    ERASED = "erased"
    PROGRAMMED = "programmed"
    INVALID = "invalid"


#: Page-state encoding shared with the FlashSanitizer shadow (resync after
#: a power-loss image restore).
_SHADOW_CODE = {
    FlashPageState.ERASED: 0,
    FlashPageState.PROGRAMMED: 1,
    FlashPageState.INVALID: 2,
}


class FlashBlock:
    """One erase block: page states, an erase counter and a bad-block flag.

    Per-state page counts are cached and maintained incrementally — GC
    victim selection scans every block's counts per run, so recomputing
    them from ``states`` would be quadratic in device size.  Page states
    change only through the three transitions and the whole-block resets
    below, which keep the counts in sync.
    """

    __slots__ = (
        "index",
        "pages_per_block",
        "states",
        "erase_count",
        "bad",
        "_erased",
        "_invalid",
        "_valid",
    )

    def __init__(self, index: int, pages_per_block: int) -> None:
        self.index = index
        self.pages_per_block = pages_per_block
        self.states: List[FlashPageState] = [FlashPageState.ERASED] * pages_per_block
        self.erase_count = 0
        # Retired: an erase failed here, or the wear limit was reached.  Bad
        # blocks never rejoin the free rotation and are skipped by GC.
        self.bad = False
        self._erased = pages_per_block
        self._invalid = 0
        self._valid = 0

    def mark_programmed(self, offset: int) -> None:
        """ERASED -> PROGRAMMED: a successful program."""
        self.states[offset] = FlashPageState.PROGRAMMED
        self._erased -= 1
        self._valid += 1

    def mark_burned(self, offset: int) -> None:
        """ERASED -> INVALID: a failed program burns the page."""
        self.states[offset] = FlashPageState.INVALID
        self._erased -= 1
        self._invalid += 1

    def mark_invalid(self, offset: int) -> None:
        """PROGRAMMED -> INVALID: an out-of-place overwrite."""
        self.states[offset] = FlashPageState.INVALID
        self._valid -= 1
        self._invalid += 1

    def reset_erased(self) -> None:
        """Whole-block erase: every page is ERASED again."""
        self._erased = self.pages_per_block
        self._invalid = 0
        self._valid = 0

    def recount(self) -> None:
        """Rebuild the cached counts from ``states`` (image restore)."""
        self._erased = sum(1 for s in self.states if s is FlashPageState.ERASED)
        self._invalid = sum(1 for s in self.states if s is FlashPageState.INVALID)
        self._valid = len(self.states) - self._erased - self._invalid

    @property
    def erased_pages(self) -> int:
        return self._erased

    @property
    def invalid_pages(self) -> int:
        return self._invalid

    @property
    def valid_pages(self) -> int:
        return self._valid


class FlashArray:
    """A NAND array with program/read/erase semantics and wear tracking."""

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
        self.blocks = [FlashBlock(i, pages_per_block) for i in range(num_blocks)]
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

    def block_of(self, ppn: PPN) -> FlashBlock:
        self._check_ppn(ppn)
        return self.blocks[ppn // self.pages_per_block]

    def channel_of(self, ppn: PPN) -> int:
        """The channel a page's operations occupy (blocks stripe across
        channels, the common SSD layout)."""
        self._check_ppn(ppn)
        return (ppn // self.pages_per_block) % self.num_channels

    def state_of(self, ppn: PPN) -> FlashPageState:
        block = self.block_of(ppn)
        return block.states[ppn % self.pages_per_block]

    def read(self, ppn: PPN) -> "FlashOp":
        """Read one page.  Reading erased/invalid pages is allowed (the FTL
        never does it, but raw tools may) and returns zeros.

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
        return FlashOp(self.latency.flash_read_page_ns, data, failed=failed)

    def program(self, ppn: PPN, data: Optional[bytes] = None) -> "FlashOp":
        """Program one erased page.  Programming a non-erased page is a bug
        in the FTL and raises."""
        self._check_ppn(ppn)
        block = self.blocks[ppn // self.pages_per_block]
        offset = ppn % self.pages_per_block
        if self.sanitizer is not None:
            self.sanitizer.on_program(ppn)
        state = block.states[offset]
        if state is not FlashPageState.ERASED:
            raise RuntimeError(f"program to non-erased page ppn={ppn} ({state.value})")
        if data is not None and len(data) != self.page_size:
            raise ValueError(
                f"program data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if self.faults is not None and self.faults.fires("nand.program"):
            # Program failure burns the page: it goes straight to INVALID
            # (unusable until its block is erased) and holds no data.  The
            # FTL retries on the next frontier page.
            block.mark_burned(offset)
            self._program_fails.add()
            if self.sanitizer is not None:
                self.sanitizer.on_program_fail(ppn)
            return FlashOp(self.latency.flash_program_page_ns, None, failed=True)
        block.mark_programmed(offset)
        self._programs.add()
        if self.track_data:
            self._data[ppn] = bytes(data) if data is not None else b"\x00" * self.page_size
        return FlashOp(self.latency.flash_program_page_ns, None)

    def invalidate(self, ppn: PPN) -> None:
        """Mark a programmed page invalid (out-of-place overwrite)."""
        self._check_ppn(ppn)
        block = self.blocks[ppn // self.pages_per_block]
        offset = ppn % self.pages_per_block
        if self.sanitizer is not None:
            self.sanitizer.on_invalidate(ppn)
        if block.states[offset] is not FlashPageState.PROGRAMMED:
            raise RuntimeError(f"invalidate of non-programmed page ppn={ppn}")
        block.mark_invalid(offset)
        if self.track_data:
            self._data.pop(ppn, None)

    def erase(self, block_index: BlockIndex) -> "FlashOp":
        """Erase a whole block.  Erasing a block with valid pages raises —
        the GC must relocate them first."""
        if not 0 <= block_index < self.num_blocks:
            raise ValueError(f"block {block_index} out of range [0, {self.num_blocks})")
        block = self.blocks[block_index]
        if block.bad:
            raise RuntimeError(f"erase of retired bad block {block_index}")
        if self.sanitizer is not None:
            self.sanitizer.on_erase(block_index)
        if block.valid_pages:
            raise RuntimeError(
                f"erase of block {block_index} with {block.valid_pages} valid pages"
            )
        if self.faults is not None and self.faults.fires("nand.erase"):
            # Erase failure retires the whole block; its pages keep their
            # (invalid/erased) states and never rejoin the rotation.
            block.bad = True
            self._erase_fails.add()
            if self.sanitizer is not None:
                self.sanitizer.on_erase_fail(block_index)
            return FlashOp(self.latency.flash_erase_block_ns, None, failed=True)
        first = block_index * self.pages_per_block
        for offset in range(self.pages_per_block):
            block.states[offset] = FlashPageState.ERASED
            if self.track_data:
                self._data.pop(first + offset, None)
        block.reset_erased()
        block.erase_count += 1
        self._erases.add()
        if self.wear_limit > 0 and block.erase_count >= self.wear_limit:
            # Wear-triggered retirement: the erase itself succeeded (the
            # block is clean), but its cells are end-of-life.
            block.bad = True
            self._wear_retired.add()
        return FlashOp(self.latency.flash_erase_block_ns, None)

    @property
    def total_programs(self) -> int:
        return self._programs.value

    @property
    def total_erases(self) -> int:
        return self._erases.value

    @property
    def max_erase_count(self) -> int:
        return max(block.erase_count for block in self.blocks)

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
            "states": [list(block.states) for block in self.blocks],
            "erase_counts": [block.erase_count for block in self.blocks],
            "bad": [block.bad for block in self.blocks],
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
        for block, states, erases, bad in zip(
            self.blocks, image["states"], image["erase_counts"], image["bad"]
        ):
            block.states = list(states)
            block.recount()
            block.erase_count = int(erases)
            block.bad = bool(bad)
        self._data = dict(image["data"])
        if self.sanitizer is not None:
            codes: List[int] = []
            for block in self.blocks:
                codes.extend(_SHADOW_CODE[s] for s in block.states)
            self.sanitizer.resync(codes)


class FlashOp:
    """Result of a flash operation: its cost, (for reads) the data, and
    whether an injected fault made the operation fail."""

    __slots__ = ("latency_ns", "data", "failed")

    def __init__(
        self, latency_ns: int, data: Optional[bytes], failed: bool = False
    ) -> None:
        self.latency_ns = latency_ns
        self.data = data
        self.failed = failed

    def __repr__(self) -> str:
        return (
            f"FlashOp(latency={self.latency_ns}ns, "
            f"data={'yes' if self.data else 'no'}"
            f"{', FAILED' if self.failed else ''})"
        )
