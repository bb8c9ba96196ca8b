"""Ablation studies for FlatFlash's design choices (DESIGN.md §6).

Each ablation isolates one mechanism §3 argues for:

* **promotion policy** — Algorithm 1's adaptive threshold vs fixed
  thresholds vs no promotion at all (§3.4's motivation);
* **PLB** — off-critical-path promotion vs stalling for the page copy
  (§3.3's motivation);
* **SSD-Cache replacement** — RRIP vs LRU under a scan-heavy mix (§3.4
  cites RRIP's scan resistance);
* **cacheable MMIO** — CAPI-style coherent caching vs uncacheable MMIO
  (§3.1);
* **logging scheme** — centralized vs per-transaction durable logs
  (§3.5 / Fig. 7).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.apps.database import LoggingScheme, run_oltp
from repro.apps.kvstore import KVStore, run_ycsb
from repro.core.hierarchy import FlatFlash
from repro.core.promotion import FixedPromotionPolicy, PromotionManager
from repro.experiments.common import ExperimentResult, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.workloads.oltp import TPCB
from repro.workloads.synthetic import random_access, sequential_access
from repro.workloads.ycsb import RECORD_SIZE, YCSB_B
from repro.workloads.zipfian import ZipfianGenerator


def _ycsb_system(system: FlatFlash, num_ops: int, dram_pages: int):
    records = 8 * dram_pages * 4_096 // RECORD_SIZE
    store = KVStore(system, capacity_records=records + 512)
    return run_ycsb(store, YCSB_B, num_ops=num_ops, num_records=records)


# --------------------------------------------------------------------- #
# 1. Promotion policy
# --------------------------------------------------------------------- #

def run_promotion_policy(
    num_ops: int = 6_000, dram_pages: int = 32
) -> ExperimentResult:
    """Adaptive vs fixed promotion thresholds on a Zipfian KV workload."""
    result = ExperimentResult(
        "Ablation: promotion policy", "Algorithm 1 vs fixed thresholds"
    )
    variants = [("adaptive (Alg. 1)", None)] + [
        (f"fixed({threshold})", threshold) for threshold in (1, 4, 7)
    ] + [("no promotion", 0)]
    for name, threshold in variants:
        config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
        # Uncacheable MMIO so the promotion manager sees the full access
        # stream (a CPU cache in front hides re-references from the SSD).
        config.cacheable_mmio = False
        if threshold == 0:
            config.promotion.enabled = False
            system = FlatFlash(config)
        elif threshold is None:
            system = FlatFlash(config)
        else:
            manager = PromotionManager(policy=FixedPromotionPolicy(threshold))
            system = FlatFlash(config, promotion_manager=manager)
        stats = _ycsb_system(system, num_ops, dram_pages)
        result.add(
            policy=name,
            mean_ns=round(stats.mean, 1),
            p99_ns=stats.p99,
            page_movements=system.page_movements,
        )
    return result


def render_promotion_policy(result: ExperimentResult) -> Table:
    table = Table(
        "Promotion policy ablation (YCSB-B, working set 8x DRAM)",
        ["Policy", "Mean (ns)", "p99 (ns)", "Page movements"],
    )
    for row in result.rows:
        table.add_row(row["policy"], row["mean_ns"], row["p99_ns"], row["page_movements"])
    return table


# --------------------------------------------------------------------- #
# 2. PLB (off-critical-path promotion)
# --------------------------------------------------------------------- #

def run_plb(num_ops: int = 6_000, dram_pages: int = 32) -> ExperimentResult:
    """PLB vs stall-on-promotion, on a promotion-heavy sequential sweep.

    Sequential sweeps promote every page (64 touches each), so the stall
    variant pays the 12.1 us copy on the critical path over and over while
    the PLB variant hides it.
    """
    result = ExperimentResult("Ablation: PLB", "off-critical-path vs stalling")
    for name, enabled in (("PLB (off critical path)", True), ("stall on promotion", False)):
        config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
        config.cacheable_mmio = False  # let re-references reach the device
        config.plb_enabled = enabled
        system = FlatFlash(config)
        region = system.mmap(dram_pages * 2, name="sweep")
        stats = sequential_access(
            system, region, num_ops, rng=np.random.default_rng(6)
        )
        result.add(
            mode=name,
            mean_ns=round(stats.mean, 1),
            p99_ns=stats.p99,
            promotions=system.promotions,
        )
    return result


def render_plb(result: ExperimentResult) -> Table:
    table = Table(
        "PLB ablation (sequential sweep, 2x DRAM)",
        ["Mode", "Mean (ns)", "p99 (ns)", "Promotions"],
    )
    for row in result.rows:
        table.add_row(row["mode"], row["mean_ns"], row["p99_ns"], row["promotions"])
    return table


# --------------------------------------------------------------------- #
# 3. SSD-Cache replacement policy
# --------------------------------------------------------------------- #

def run_cache_policy(
    num_ops: int = 4_000, dram_pages: int = 16
) -> ExperimentResult:
    """RRIP vs LRU in the SSD-Cache under a scan + point-lookup mix."""
    result = ExperimentResult(
        "Ablation: SSD-Cache replacement", "RRIP vs LRU under scans"
    )
    for policy in ("rrip", "lru"):
        config = scaled_config(
            dram_pages=dram_pages, ssd_to_dram=256, ssd_cache_pages=32
        )
        config.promotion.enabled = False  # isolate the SSD-Cache
        config.cacheable_mmio = False
        system = FlatFlash(config, cache_policy=policy)
        region = system.mmap(512, name="mix")
        zipf = ZipfianGenerator(64, theta=0.9, seed=3)
        rng = np.random.default_rng(4)
        hot_pages = rng.permutation(512)[:64]
        for index in range(num_ops):
            if index % 8 == 0:
                # Periodic scan burst: 16 sequential cold pages.
                base = int(rng.integers(0, 512 - 16))
                for page in range(base, base + 16):
                    system.load(region.page_addr(page, 0), 64)
            hot = int(hot_pages[int(zipf.sample(1)[0])])
            system.load(region.page_addr(hot, 0), 64)
        result.add(
            policy=policy.upper(),
            cache_hit_ratio=round(system.ssd.cache.hit_ratio, 3),
            mean_access_ns=round(
                system.stats.latency("mem.access", keep_samples=False).mean, 1
            ),
        )
    return result


def render_cache_policy(result: ExperimentResult) -> Table:
    table = Table(
        "SSD-Cache replacement ablation (scan + Zipfian point lookups)",
        ["Policy", "SSD-Cache hit ratio", "Mean access (ns)"],
    )
    for row in result.rows:
        table.add_row(row["policy"], row["cache_hit_ratio"], row["mean_access_ns"])
    return table


# --------------------------------------------------------------------- #
# 4. Cacheable MMIO
# --------------------------------------------------------------------- #

def run_cacheable_mmio(num_ops: int = 3_000) -> ExperimentResult:
    """Coherent (CAPI) caching of MMIO lines vs uncacheable MMIO."""
    result = ExperimentResult("Ablation: cacheable MMIO", "CAPI vs plain PCIe")
    for name, cacheable in (("cacheable (CAPI)", True), ("uncacheable", False)):
        config = scaled_config(dram_pages=16, ssd_to_dram=256)
        config.cacheable_mmio = cacheable
        config.promotion.enabled = False  # isolate the interconnect effect
        system = FlatFlash(config)
        region = system.mmap(64, name="hot-lines")
        seq = sequential_access(system, region, num_ops // 2, rng=np.random.default_rng(1))
        hot = np.random.default_rng(2).integers(0, 32, size=num_ops // 2)
        from repro.sim.stats import LatencyStats

        repeat = LatencyStats("repeat")
        for line in hot:  # re-referenced hot lines
            repeat.record(system.load(region.addr(int(line) * 64), 64).latency_ns)
        result.add(
            mode=name,
            sequential_ns=round(seq.mean, 1),
            hot_line_ns=round(repeat.mean, 1),
        )
    return result


def render_cacheable_mmio(result: ExperimentResult) -> Table:
    table = Table(
        "Cacheable-MMIO ablation",
        ["Mode", "Sequential mean (ns)", "Hot-line mean (ns)"],
    )
    for row in result.rows:
        table.add_row(row["mode"], row["sequential_ns"], row["hot_line_ns"])
    return table


# --------------------------------------------------------------------- #
# 5. Sequential prefetch (extension)
# --------------------------------------------------------------------- #

def run_prefetch(num_ops: int = 4_000, dram_pages: int = 24) -> ExperimentResult:
    """Sequential-prefetch extension: promote ahead of detected streams."""
    result = ExperimentResult(
        "Ablation: sequential prefetch", "stream-ahead promotion"
    )
    for name, depth in (("off (paper)", 0), ("prefetch after 2", 2), ("prefetch after 4", 4)):
        config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
        config.cacheable_mmio = False
        config.promotion.sequential_prefetch = depth
        system = FlatFlash(config)
        region = system.mmap(dram_pages * 2, name="sweep")
        seq = sequential_access(system, region, num_ops, rng=np.random.default_rng(8))
        rand_system = FlatFlash(config)
        rand_region = rand_system.mmap(dram_pages * 8, name="rand")
        rand = random_access(
            rand_system, rand_region, num_ops // 2, rng=np.random.default_rng(9)
        )
        result.add(
            mode=name,
            sequential_ns=round(seq.mean, 1),
            random_ns=round(rand.mean, 1),
            prefetches=system.stats.counters()["mem.prefetch_promotions"],
        )
    return result


def render_prefetch(result: ExperimentResult) -> Table:
    table = Table(
        "Sequential-prefetch extension",
        ["Mode", "Sequential mean (ns)", "Random mean (ns)", "Prefetches"],
    )
    for row in result.rows:
        table.add_row(
            row["mode"], row["sequential_ns"], row["random_ns"], row["prefetches"]
        )
    return table


# --------------------------------------------------------------------- #
# 6. Sequential fairness: kernel readahead vs FlatFlash prefetch
# --------------------------------------------------------------------- #

def run_sequential_fairness(
    num_ops: int = 4_000, dram_pages: int = 24
) -> ExperimentResult:
    """Sequential sweeps with each side's streaming optimization enabled.

    The paging baselines get kernel swap readahead; FlatFlash gets the
    sequential-prefetch extension — a fair fight on the baselines' best
    access pattern.
    """
    from repro.experiments.common import build_system

    result = ExperimentResult(
        "Ablation: sequential fairness", "readahead vs prefetch"
    )
    variants = [
        ("UnifiedMMap", 0, 0, "no readahead"),
        ("UnifiedMMap", 8, 0, "readahead 8"),
        ("FlatFlash", 0, 0, "no prefetch"),
        ("FlatFlash", 0, 2, "prefetch after 2"),
    ]
    for system_name, readahead, prefetch, label in variants:
        config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
        config.readahead_pages = readahead
        config.promotion.sequential_prefetch = prefetch
        config.cacheable_mmio = False
        system = build_system(system_name, config.validate())
        region = system.mmap(dram_pages * 2, name="sweep")
        stats = sequential_access(system, region, num_ops, rng=np.random.default_rng(10))
        result.add(
            system=system_name,
            mode=label,
            sequential_ns=round(stats.mean, 1),
            page_movements=system.page_movements,
        )
    return result


def render_sequential_fairness(result: ExperimentResult) -> Table:
    table = Table(
        "Sequential fairness: kernel readahead vs FlatFlash prefetch",
        ["System", "Mode", "Sequential mean (ns)", "Page movements"],
    )
    for row in result.rows:
        table.add_row(
            row["system"], row["mode"], row["sequential_ns"], row["page_movements"]
        )
    return table


# --------------------------------------------------------------------- #
# 7. Logging scheme
# --------------------------------------------------------------------- #

def run_logging_scheme(
    thread_counts: Optional[List[int]] = None, tx_per_thread: int = 50
) -> ExperimentResult:
    """Centralized vs per-transaction logging on FlatFlash (Fig. 7)."""
    if thread_counts is None:
        thread_counts = [2, 4, 8, 16]
    result = ExperimentResult("Ablation: logging scheme", "central vs per-tx")
    for threads in thread_counts:
        row = {"threads": threads}
        for scheme in LoggingScheme:
            config = scaled_config(dram_pages=48, ssd_to_dram=64, ssd_cache_pages=64)
            system = FlatFlash(config)
            outcome = run_oltp(
                system,
                TPCB,
                num_transactions=tx_per_thread * threads,
                num_threads=threads,
                scheme=scheme,
                table_pages=128,
            )
            key = "central_tps" if scheme is LoggingScheme.CENTRALIZED else "per_tx_tps"
            row[key] = round(outcome.throughput_tps)
            if scheme is LoggingScheme.CENTRALIZED:
                row["lock_contention"] = round(outcome.log_lock_contention, 2)
        result.add(**row)
    return result


def render_logging_scheme(result: ExperimentResult) -> Table:
    table = Table(
        "Logging ablation (TPCB on FlatFlash)",
        ["Threads", "Centralized (tps)", "Per-transaction (tps)", "Lock contention"],
    )
    for row in result.rows:
        table.add_row(
            row["threads"], row["central_tps"], row["per_tx_tps"], row["lock_contention"]
        )
    return table


# --------------------------------------------------------------- sweep cells
#
# Each toggles one mechanism; the shared section header and prose live in
# ``repro.sweep.document`` since they introduce the family, not one cell.


def _ablation_cell(runner, renderer) -> CellResult:
    result = runner()
    return CellResult(
        sections=[markdown_block(renderer(result).render())], rows=result.rows
    )


def cell_promotion_policy() -> CellResult:
    return _ablation_cell(run_promotion_policy, render_promotion_policy)


def cell_plb() -> CellResult:
    return _ablation_cell(run_plb, render_plb)


def cell_cache_policy() -> CellResult:
    return _ablation_cell(run_cache_policy, render_cache_policy)


def cell_cacheable_mmio() -> CellResult:
    return _ablation_cell(run_cacheable_mmio, render_cacheable_mmio)


def cell_prefetch() -> CellResult:
    return _ablation_cell(run_prefetch, render_prefetch)


def cell_sequential_fairness() -> CellResult:
    return _ablation_cell(run_sequential_fairness, render_sequential_fairness)


def cell_logging_scheme() -> CellResult:
    return _ablation_cell(run_logging_scheme, render_logging_scheme)


if __name__ == "__main__":
    render_promotion_policy(run_promotion_policy()).print()
    render_plb(run_plb()).print()
    render_cache_policy(run_cache_policy()).print()
    render_cacheable_mmio(run_cacheable_mmio()).print()
    render_prefetch(run_prefetch()).print()
    render_sequential_fairness(run_sequential_fairness()).print()
    render_logging_scheme(run_logging_scheme()).print()
