"""Figure 8: average 64-byte access latency, sequential vs random (§5.1).

The paper maps 2 M pages uniformly over the whole SSD (32 GB - 1 TB, host
DRAM fixed at 2 GB), warms up with random touches, then measures the mean
latency of sequential and random cache-line accesses for the three
systems.  We keep the SSD:DRAM ratios (16x - 512x) at reduced scale.

Expected shape (paper): sequential — FlatFlash ~ UnifiedMMap, both well
ahead of TraditionalStack; random — FlatFlash beats UnifiedMMap by
1.2-1.4x and TraditionalStack by 1.8-2.1x, because byte-granular MMIO
beats migrating whole low-reuse pages.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.experiments.common import ExperimentResult, build_system, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.workloads.synthetic import random_access, sequential_access, warm_up

EVALUATED = ("TraditionalStack", "UnifiedMMap", "FlatFlash")


def run(
    ratios: Optional[List[int]] = None,
    dram_pages: int = 64,
    num_ops: int = 3_000,
    warmup_ops: int = 1_500,
) -> ExperimentResult:
    if ratios is None:
        ratios = [16, 128, 512]  # the paper's 32GB..1TB against 2GB DRAM
    result = ExperimentResult(
        "Figure 8", "Average latency of 64B accesses, sequential and random"
    )
    for ratio in ratios:
        for name in EVALUATED:
            config = scaled_config(dram_pages=dram_pages, ssd_to_dram=ratio)
            system = build_system(name, config)
            # The accessed file spans the SSD (pages uniformly distributed).
            span_pages = min(config.geometry.ssd_pages, dram_pages * ratio) // 2
            region = system.mmap(span_pages, name="span")
            warm_up(system, region, warmup_ops, rng=np.random.default_rng(42))
            seq = sequential_access(system, region, num_ops, rng=np.random.default_rng(7))
            rand = random_access(system, region, num_ops, rng=np.random.default_rng(11))
            result.add(
                ratio=ratio,
                system=name,
                sequential_ns=round(seq.mean, 1),
                random_ns=round(rand.mean, 1),
            )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Figure 8: mean 64B access latency (ns) by SSD:DRAM ratio",
        ["SSD:DRAM", "System", "Sequential (ns)", "Random (ns)"],
    )
    for row in result.rows:
        table.add_row(
            f"{row['ratio']}x", row["system"], row["sequential_ns"], row["random_ns"]
        )
    return table


def summarize_speedups(result: ExperimentResult) -> Dict[str, float]:
    """FlatFlash's random-access speedup over each baseline (max over ratios)."""
    speedups: Dict[str, float] = {}
    ratios = sorted({row["ratio"] for row in result.rows})
    for baseline in ("UnifiedMMap", "TraditionalStack"):
        best = 0.0
        for ratio in ratios:
            flat = result.filtered(ratio=ratio, system="FlatFlash")[0]["random_ns"]
            base = result.filtered(ratio=ratio, system=baseline)[0]["random_ns"]
            if flat:
                best = max(best, base / flat)
        speedups[baseline] = best
    return speedups


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Figure 8 — sequential vs random 64 B access latency\n",
    "Paper: random — FlatFlash 1.2-1.4x under UnifiedMMap's latency and\n"
    "1.8-2.1x under TraditionalStack's; sequential — FlatFlash close to\n"
    "UnifiedMMap with a slight off-critical-path promotion overhead.\n",
)


def cell() -> CellResult:
    result = run()
    speedups = summarize_speedups(result)
    return CellResult(
        sections=[
            *SECTION,
            markdown_block(render(result).render()),
            f"Measured random-access speedups: {speedups}\n",
        ],
        rows=result.rows,
        metrics={"random_speedups": {k: float(v) for k, v in speedups.items()}},
    )
