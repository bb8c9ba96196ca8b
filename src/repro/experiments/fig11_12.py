"""Figures 11 and 12: Redis/YCSB latency (§5.4).

Workloads B (95r/5u, Zipfian) and D (95r/5i, latest) against the KV store,
sweeping the working-set : DRAM ratio at a fixed SSD:DRAM ratio of 256.

* Fig. 11 reports the 99th-percentile latency — the paper sees FlatFlash
  2.0-2.8x under UnifiedMMap and 1.8-2.7x under TraditionalStack, because
  the adaptive promotion avoids polluting DRAM with low-reuse pages.
* Fig. 12 reports the mean latency plus the (DRAM + SSD-Cache) hit ratio —
  FlatFlash 1.1-1.4x / 1.2-3.2x better.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.kvstore import KVStore, run_ycsb
from repro.experiments.common import ExperimentResult, build_system, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.workloads.ycsb import RECORD_SIZE, WORKLOADS

EVALUATED = ("TraditionalStack", "UnifiedMMap", "FlatFlash")


def run(
    workload_names: Optional[List[str]] = None,
    ws_ratios: Optional[List[int]] = None,
    dram_pages: int = 32,
    ssd_to_dram: int = 256,
    num_ops: int = 8_000,
    theta: float = 0.99,
) -> ExperimentResult:
    """``ws_ratios``: working-set size as a multiple of DRAM size."""
    if workload_names is None:
        workload_names = ["YCSB-B", "YCSB-D"]
    if ws_ratios is None:
        ws_ratios = [4, 8, 16]
    result = ExperimentResult(
        "Figures 11-12", "YCSB tail/mean latency and cache hit ratio"
    )
    for workload_name in workload_names:
        workload = WORKLOADS[workload_name]
        for ratio in ws_ratios:
            records = ratio * dram_pages * 4_096 // RECORD_SIZE
            for name in EVALUATED:
                config = scaled_config(dram_pages=dram_pages, ssd_to_dram=ssd_to_dram)
                system = build_system(name, config)
                capacity = records + max(64, num_ops // 10)  # headroom for inserts
                store = KVStore(system, capacity_records=capacity)
                stats = run_ycsb(
                    store, workload, num_ops=num_ops, num_records=records, theta=theta
                )
                hit_ratio = _memory_hit_ratio(system)
                result.add(
                    workload=workload_name,
                    ws_ratio=ratio,
                    system=name,
                    mean_ns=round(stats.mean, 1),
                    p99_ns=stats.p99,
                    hit_ratio=round(hit_ratio, 3),
                    page_movements=system.page_movements,
                    flash_programs=system.ssd.flash.total_programs,
                )
    return result


def _memory_hit_ratio(system) -> float:
    """Fraction of accesses served without touching raw flash."""
    counters = system.stats.counters()
    fills = counters.get("ssd.cache_fills", 0)
    faults = counters.get("mem.page_faults", 0)
    loads = counters.get("mem.loads", 0) + counters.get("mem.stores", 0)
    if loads == 0:
        return 0.0
    flash_touches = fills + faults
    return max(0.0, 1.0 - flash_touches / loads)


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Figures 11-12: YCSB latency (ns) and hit ratio",
        ["Workload", "WS:DRAM", "System", "Mean (ns)", "p99 (ns)", "Hit ratio", "Movements"],
    )
    for row in result.rows:
        table.add_row(
            row["workload"],
            f"{row['ws_ratio']}x",
            row["system"],
            row["mean_ns"],
            row["p99_ns"],
            row["hit_ratio"],
            row["page_movements"],
        )
    return table


def run_cdf(
    workload_name: str = "YCSB-B",
    ws_ratio: int = 8,
    dram_pages: int = 32,
    num_ops: int = 6_000,
) -> Table:
    """Latency CDF table (Fig. 11 is a tail plot; this is its raw shape).

    One row per log2 latency bucket, one column per system, cells are the
    cumulative fraction of requests completing within the bucket bound.
    """
    from repro.sim.stats import Histogram

    workload = WORKLOADS[workload_name]
    records = ws_ratio * dram_pages * 4_096 // RECORD_SIZE
    histograms = {}
    for name in EVALUATED:
        config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
        system = build_system(name, config)
        store = KVStore(system, capacity_records=records + 512)
        stats = run_ycsb(store, workload, num_ops=num_ops, num_records=records)
        histogram = Histogram(name, base_ns=1_000, num_buckets=9)
        histogram.extend(stats.samples)
        histograms[name] = histogram
    table = Table(
        f"Latency CDF, {workload_name} (cumulative fraction <= bound)",
        ["Latency <=", *EVALUATED],
    )
    for bucket in range(9):
        bound_us = histograms[EVALUATED[0]].bucket_bound_ns(bucket) / 1_000
        table.add_row(
            f"{bound_us:g} us",
            *(f"{histograms[name].cdf()[bucket]:.3f}" for name in EVALUATED),
        )
    return table


def tail_latency_reduction(result: ExperimentResult, baseline: str) -> float:
    """Max p99 reduction of FlatFlash vs a baseline across the sweep."""
    best = 0.0
    keys = {(row["workload"], row["ws_ratio"]) for row in result.rows}
    for workload, ratio in keys:
        flat = result.filtered(workload=workload, ws_ratio=ratio, system="FlatFlash")[0]
        base = result.filtered(workload=workload, ws_ratio=ratio, system=baseline)[0]
        if flat["p99_ns"]:
            best = max(best, base["p99_ns"] / flat["p99_ns"])
    return round(best, 2)


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Figures 11 & 12 — YCSB on the KV store\n",
    "Paper: p99 reduced 2.0-2.8x vs UnifiedMMap and 1.8-2.7x vs\n"
    "TraditionalStack (Fig. 11); mean improved 1.1-1.4x / 1.2-3.2x with\n"
    "hit-ratio lines (Fig. 12); page movements sharply lower.\n",
)


def cell() -> CellResult:
    result = run()
    vs_unified = tail_latency_reduction(result, "UnifiedMMap")
    vs_traditional = tail_latency_reduction(result, "TraditionalStack")
    return CellResult(
        sections=[
            *SECTION,
            markdown_block(render(result).render()),
            "Measured max p99 reductions: "
            f"vs UnifiedMMap {vs_unified}x, "
            f"vs TraditionalStack {vs_traditional}x\n",
            markdown_block(run_cdf().render()),
        ],
        rows=result.rows,
        metrics={
            "p99_reduction_vs_unifiedmmap": float(vs_unified),
            "p99_reduction_vs_traditional": float(vs_traditional),
        },
    )
