"""Figure 13: file-system metadata persistence speedups (§5.5).

Five FileBench-style workloads against EXT4/XFS/BtrFS persistence models,
block-backed (on UnifiedMMap) vs byte-granular (on FlatFlash).  The paper
reports 2.6-18.9x improvements, the spread coming from each file system's
own write-amplification discipline (journal vs COW), plus SSD-lifetime
wins from the removed journal/COW page writes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.filesystem import FileSystemKind, make_filesystem
from repro.experiments.common import ExperimentResult, build_system, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.workloads.filebench import workload_by_name

WORKLOADS = ["CreateFile", "RenameFile", "CreateDirectory", "VarMail", "WebServer"]
BASELINE_SYSTEM = "UnifiedMMap"


def run(
    workloads: Optional[List[str]] = None,
    kinds: Optional[List[FileSystemKind]] = None,
    ops_per_workload: int = 120,
    dram_pages: int = 48,
    baseline_system: str = BASELINE_SYSTEM,
) -> ExperimentResult:
    if workloads is None:
        workloads = list(WORKLOADS)
    if kinds is None:
        kinds = [FileSystemKind.EXT4, FileSystemKind.XFS, FileSystemKind.BTRFS]
    result = ExperimentResult(
        "Figure 13", "File-system metadata op performance: block vs byte persistence"
    )
    for kind in kinds:
        for workload in workloads:
            timings: Dict[str, float] = {}
            writes: Dict[str, int] = {}
            for system_name in (baseline_system, "FlatFlash"):
                # The paper's SSD-Cache is 2 GB (0.125 % of 1.6 TB) — far
                # larger than the FS metadata footprint, so the persistence
                # working set is cache-resident.  Keep that property at scale.
                config = scaled_config(
                    dram_pages=dram_pages, ssd_to_dram=64, ssd_cache_pages=64
                )
                system = build_system(system_name, config)
                filesystem = make_filesystem(kind, system)
                stream = workload_by_name(workload, ops_per_workload)
                outcome = filesystem.run(stream)
                timings[system_name] = outcome.mean_op_ns
                writes[system_name] = outcome.flash_page_writes
            flat, base = timings["FlatFlash"], timings[baseline_system]
            flat_writes = max(1, writes["FlatFlash"])
            result.add(
                filesystem=kind.value,
                workload=workload,
                block_op_us=round(base / 1_000, 1),
                flatflash_op_us=round(flat / 1_000, 1),
                speedup=round(base / flat, 1) if flat else 0.0,
                lifetime_gain=round(writes[baseline_system] / flat_writes, 1),
            )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Figure 13: metadata persistence, block (UnifiedMMap) vs byte (FlatFlash)",
        ["FS", "Workload", "Block us/op", "FlatFlash us/op", "Speedup", "Lifetime gain"],
    )
    for row in result.rows:
        table.add_row(
            row["filesystem"],
            row["workload"],
            row["block_op_us"],
            row["flatflash_op_us"],
            f"{row['speedup']}x",
            f"{row['lifetime_gain']}x",
        )
    return table


def speedup_range(result: ExperimentResult) -> Dict[str, tuple]:
    """(min, max) speedup per file system, the way §5.5 quotes them.

    Iterates file systems in first-appearance order (not set order) so the
    rendered summary is byte-stable across processes and hash seeds.
    """
    ranges: Dict[str, tuple] = {}
    for kind in dict.fromkeys(row["filesystem"] for row in result.rows):
        speedups = [row["speedup"] for row in result.filtered(filesystem=kind)]
        ranges[kind] = (min(speedups), max(speedups))
    return ranges


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Figure 13 — file-system metadata persistence\n",
    "Paper: 2.6-18.9x across EXT4/XFS/BtrFS and five workloads, plus\n"
    "large SSD-lifetime gains from removing journal/COW amplification.\n"
    "Measured speedups land lower (≈2-6x) because our block engines model\n"
    "only the journal/COW I/O itself, not the full kernel-path costs of\n"
    "real file systems — but the ordering (BtrFS > EXT4 > XFS) and the\n"
    "lifetime direction match.\n",
)


def cell() -> CellResult:
    result = run()
    ranges = speedup_range(result)
    return CellResult(
        sections=[
            *SECTION,
            markdown_block(render(result).render()),
            f"Speedup ranges per FS: {ranges}\n",
        ],
        rows=result.rows,
        metrics={
            "speedup_ranges": {
                kind: [float(low), float(high)] for kind, (low, high) in ranges.items()
            },
        },
    )
