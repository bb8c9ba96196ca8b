"""Device-technology study: FlatFlash from flash to NVM-class latencies.

Extends Fig. 14d's device-latency sweep beyond the database: the paper's
related-work section argues the FlatFlash techniques "shed light on the
unified DRAM-NVM hierarchy" as devices get faster (Z-NAND, 3D-XPoint,
PCM).  This experiment runs GUPS and YCSB-B across device profiles and
reports how FlatFlash's advantage over paging evolves: the faster the
device, the more the *paging software path* (not the medium) dominates the
baselines, so FlatFlash's direct access wins by more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.apps.kvstore import KVStore, run_ycsb
from repro.experiments.common import ExperimentResult, build_system, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.workloads.gups import run_gups
from repro.workloads.ycsb import RECORD_SIZE, YCSB_B


@dataclass(frozen=True)
class DeviceProfile:
    """A storage-medium generation."""

    name: str
    read_page_ns: int
    program_page_ns: int


#: Generations the paper cites: commodity flash, ultra-low-latency flash
#: (Z-SSD / Z-NAND), and 3D-XPoint/PCM-class NVM.
PROFILES = [
    DeviceProfile("NAND flash", 60_000, 600_000),
    DeviceProfile("Low-latency flash", 20_000, 16_000),
    DeviceProfile("Z-NAND", 3_000, 10_000),
    DeviceProfile("3D-XPoint class", 350, 1_000),
]


def run(
    profiles: Optional[List[DeviceProfile]] = None,
    dram_pages: int = 32,
    num_ops: int = 5_000,
) -> ExperimentResult:
    if profiles is None:
        profiles = list(PROFILES)
    result = ExperimentResult(
        "Device technology", "FlatFlash vs UnifiedMMap across device generations"
    )
    for profile in profiles:
        for workload in ("GUPS", "YCSB-B"):
            elapsed: Dict[str, int] = {}
            for name in ("UnifiedMMap", "FlatFlash"):
                config = scaled_config(
                    dram_pages=dram_pages,
                    ssd_to_dram=256,
                    flash_read_page_ns=profile.read_page_ns,
                    flash_program_page_ns=profile.program_page_ns,
                )
                system = build_system(name, config)
                start = system.clock.now
                if workload == "GUPS":
                    region = system.mmap(dram_pages * 16, name="gups")
                    run_gups(system, region, num_ops, rng=np.random.default_rng(3))
                else:
                    records = 8 * dram_pages * 4_096 // RECORD_SIZE
                    store = KVStore(system, capacity_records=records + 512)
                    run_ycsb(store, YCSB_B, num_ops=num_ops, num_records=records)
                elapsed[name] = system.clock.now - start
            result.add(
                device=profile.name,
                read_us=profile.read_page_ns / 1_000,
                workload=workload,
                unified_ms=round(elapsed["UnifiedMMap"] / 1e6, 2),
                flatflash_ms=round(elapsed["FlatFlash"] / 1e6, 2),
                speedup=round(elapsed["UnifiedMMap"] / elapsed["FlatFlash"], 2),
            )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Device-technology study: FlatFlash speedup over UnifiedMMap",
        ["Device", "Read (us)", "Workload", "UnifiedMMap (ms)", "FlatFlash (ms)", "Speedup"],
    )
    for row in result.rows:
        table.add_row(
            row["device"],
            row["read_us"],
            row["workload"],
            row["unified_ms"],
            row["flatflash_ms"],
            f"{row['speedup']}x",
        )
    return table


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Extension — device-technology study (§6 outlook)\n",
    "Flash -> Z-NAND -> 3D-XPoint-class profiles: the faster the medium,\n"
    "the more the paging software path dominates the baselines, so\n"
    "FlatFlash's direct byte access wins by more — the paper's argument\n"
    "that these techniques carry over to DRAM-NVM hierarchies.\n",
)


def cell() -> CellResult:
    result = run()
    return CellResult(
        sections=[*SECTION, markdown_block(render(result).render())],
        rows=result.rows,
        metrics={
            "max_speedup": max(float(row["speedup"]) for row in result.rows),
        },
    )
