"""Configuration for the FlatFlash simulator.

All timing defaults come from the paper:

* Table 2 — measured component latencies of the authors' emulator
  (MMIO cache-line read 4.8 us, posted MMIO write 0.6 us, page promotion
  12.1 us, PTE+TLB update 1.4 us, page-table walk 0.7 us).
* Section 3.3 — ultra-low-latency flash (Z-SSD) page write of 16 us.
* Figure 14d — device read latency sweep anchored at 20 us.

Capacities default to scaled-down values that preserve the paper's ratios
(SSD:DRAM = 512, SSD-Cache = 0.125 % of SSD capacity) so experiments run in
seconds.  Experiments override the geometry per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.plan import FaultConfig
from repro.sim.sanitizers import SanitizerConfig


@dataclass
class LatencyConfig:
    """Component latencies in nanoseconds."""

    # Host memory.
    dram_load_ns: int = 100
    dram_store_ns: int = 100

    # PCIe MMIO, per cache line (Table 2).  Reads are non-posted (a full
    # round trip); writes are posted and complete at the host write buffer.
    mmio_read_cacheline_ns: int = 4_800
    mmio_write_cacheline_ns: int = 600
    # Write-verify read used by the persistence path to order posted writes.
    mmio_verify_read_ns: int = 4_800
    # Completion-timeout charged when an injected PCIe fault drops an MMIO
    # transaction (repro.faults); the host bridge then retries with backoff.
    mmio_timeout_ns: int = 50_000

    # NAND flash array timings.  ``flash_read_page_ns`` is the device read
    # latency Fig. 14d sweeps; the default models the paper's low-latency
    # flash.  Program latency follows the Z-SSD figure quoted in Section 3.3.
    flash_read_page_ns: int = 20_000
    flash_program_page_ns: int = 16_000
    flash_erase_block_ns: int = 2_000_000

    # SSD-internal DRAM (SSD-Cache) page copy.  The per-line cache access
    # time is folded into the PCIe MMIO cacheline cost (an MMIO hit is
    # dominated by the link round trip, and the tests pin hit latency to
    # exactly mmio_read_cacheline_ns), so there is no separate
    # ssd_cache_access_ns knob.
    ssd_cache_page_copy_ns: int = 1_000

    # Promotion machinery (Table 2).
    page_promotion_ns: int = 12_100
    pte_tlb_update_ns: int = 1_400
    page_table_walk_ns: int = 700
    tlb_shootdown_ns: int = 2_700

    # PCIe DMA of one 4 KB page (used by paging baselines and promotion).
    dma_page_transfer_ns: int = 3_000

    # Software overheads of the paging path.  TraditionalStack pays the full
    # storage software stack (block layer, file system, separate FTL) on
    # every fault; UnifiedMMap's unified translation removes most of it.
    traditional_fault_software_ns: int = 15_000
    unified_fault_software_ns: int = 4_000
    ftl_lookup_ns: int = 500
    # Per-request software cost of a synchronous block I/O submitted through
    # the storage stack (bio assembly, queueing, completion) — paid by the
    # journaling/COW persistence paths of block-based file systems.
    block_io_software_ns: int = 5_000

    # CPU cache interactions for the persistence path.
    cpu_cache_hit_ns: int = 10
    clflush_ns: int = 250

    def validate(self) -> None:
        for name, value in vars(self).items():
            # Simulated time is integral: a float latency would make the
            # fused replay path (which sums raw latencies) disagree with
            # SimClock.advance (which truncates each step).
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"latency {name} must be an integer ns count, got {value!r}"
                )
            if value < 0:
                raise ValueError(f"latency {name} must be >= 0, got {value}")


@dataclass
class GeometryConfig:
    """Capacities and shapes of the memory/storage devices (in pages)."""

    page_size: int = 4_096
    cacheline_size: int = 64

    dram_pages: int = 512
    ssd_pages: int = 262_144  # SSD:DRAM = 512, the paper's default ratio

    # SSD-Cache defaults to 0.125 % of SSD capacity (Section 5), rounded to
    # a set-aligned size at construction.  ``None`` means "derive from ratio".
    ssd_cache_pages: Optional[int] = None
    ssd_cache_ratio: float = 0.00125
    ssd_cache_ways: int = 8

    flash_pages_per_block: int = 64
    flash_overprovision: float = 0.07
    # Independent flash channels: program/read operations to different
    # channels pipeline (consumed by the DES-driven workloads).
    flash_channels: int = 8

    plb_entries: int = 64
    tlb_entries: int = 256

    def resolved_ssd_cache_pages(self) -> int:
        """SSD-Cache size in pages, derived from the ratio when unset."""
        if self.ssd_cache_pages is not None:
            pages = self.ssd_cache_pages
        else:
            pages = int(self.ssd_pages * self.ssd_cache_ratio)
        return max(self.ssd_cache_ways, pages)

    @property
    def cachelines_per_page(self) -> int:
        return self.page_size // self.cacheline_size

    def validate(self) -> None:
        if self.page_size <= 0 or self.page_size % self.cacheline_size != 0:
            raise ValueError(
                f"page_size {self.page_size} must be a positive multiple of "
                f"cacheline_size {self.cacheline_size}"
            )
        if self.dram_pages <= 0:
            raise ValueError(f"dram_pages must be > 0, got {self.dram_pages}")
        if self.ssd_pages <= 0:
            raise ValueError(f"ssd_pages must be > 0, got {self.ssd_pages}")
        if self.ssd_cache_ways <= 0:
            raise ValueError(f"ssd_cache_ways must be > 0, got {self.ssd_cache_ways}")
        if not 0.0 < self.ssd_cache_ratio <= 1.0:
            raise ValueError(
                f"ssd_cache_ratio must be in (0, 1], got {self.ssd_cache_ratio}"
            )
        if self.flash_pages_per_block <= 0:
            raise ValueError(
                f"flash_pages_per_block must be > 0, got {self.flash_pages_per_block}"
            )
        if self.flash_channels <= 0:
            raise ValueError(f"flash_channels must be > 0, got {self.flash_channels}")
        if not 0.0 <= self.flash_overprovision < 1.0:
            raise ValueError(
                f"flash_overprovision must be in [0, 1), got {self.flash_overprovision}"
            )
        if self.plb_entries <= 0:
            raise ValueError(f"plb_entries must be > 0, got {self.plb_entries}")
        if self.tlb_entries <= 0:
            raise ValueError(f"tlb_entries must be > 0, got {self.tlb_entries}")


@dataclass
class PromotionConfig:
    """Parameters of the adaptive promotion scheme (Algorithm 1)."""

    lw_ratio: float = 0.25
    hi_ratio: float = 0.75
    max_threshold: int = 7
    reset_epoch: int = 10_000
    enabled: bool = True
    # Extension (not in the paper): after ``sequential_prefetch`` SSD pages
    # are touched in ascending order, promote the next page ahead of the
    # stream.  0 disables prefetching (the paper's behaviour).
    sequential_prefetch: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.lw_ratio < self.hi_ratio:
            raise ValueError(
                f"need 0 <= lw_ratio < hi_ratio, got {self.lw_ratio}/{self.hi_ratio}"
            )
        if self.max_threshold < 1:
            raise ValueError(f"max_threshold must be >= 1, got {self.max_threshold}")
        if self.reset_epoch < 1:
            raise ValueError(f"reset_epoch must be >= 1, got {self.reset_epoch}")
        if self.sequential_prefetch < 0:
            raise ValueError(
                f"sequential_prefetch must be >= 0, got {self.sequential_prefetch}"
            )


@dataclass
class FlatFlashConfig:
    """Top-level simulator configuration."""

    latency: LatencyConfig = field(default_factory=LatencyConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    promotion: PromotionConfig = field(default_factory=PromotionConfig)

    # Runtime invariant sanitizers (repro.sim.sanitizers).  Defaults follow
    # the process-wide switch so the test suite can enable them globally.
    sanitizers: SanitizerConfig = field(default_factory=SanitizerConfig.from_default)

    # Deterministic fault injection (repro.faults).  Inert by default: with
    # all rates at zero no injector is constructed and every metric is
    # bit-identical to a fault-free build.
    faults: FaultConfig = field(default_factory=FaultConfig)

    # Carry real page payloads through the hierarchy (tests/examples) or
    # run accounting-only (large performance sweeps).
    track_data: bool = True

    # Cache MMIO lines in the processor cache.  The paper enables this via
    # the CAPI coherence protocol (§3.1); disable it for the uncacheable-
    # MMIO ablation.
    cacheable_mmio: bool = True

    # Battery-backed SSD DRAM: MMIO writes reaching the SSD-Cache are durable.
    battery_backed: bool = True

    # Promotion Look-aside Buffer (§3.3).  Disabling it is the ablation the
    # paper argues against: promotions then stall the triggering access for
    # the full page copy instead of proceeding off the critical path.
    plb_enabled: bool = True

    # Swap readahead for the *paging baselines*: on a fault, also fault in
    # up to this many following pages (kernel swap clustering).  0 disables.
    readahead_pages: int = 0

    def validate(self) -> "FlatFlashConfig":
        self.latency.validate()
        self.geometry.validate()
        self.promotion.validate()
        self.sanitizers.validate()
        self.faults.validate()
        if self.readahead_pages < 0:
            raise ValueError(
                f"readahead_pages must be >= 0, got {self.readahead_pages}"
            )
        return self


def small_config(**overrides: object) -> FlatFlashConfig:
    """A tiny configuration for unit tests: 16 DRAM pages over a 1K-page SSD."""
    geometry = GeometryConfig(
        dram_pages=16,
        ssd_pages=1_024,
        ssd_cache_pages=64,
        ssd_cache_ways=4,
        flash_pages_per_block=16,
        plb_entries=8,
        tlb_entries=32,
    )
    config = FlatFlashConfig(geometry=geometry)
    for name, value in overrides.items():
        if not hasattr(config, name):
            raise TypeError(f"unknown FlatFlashConfig field {name!r}")
        setattr(config, name, value)
    return config.validate()
