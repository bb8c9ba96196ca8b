"""Access-source breakdown: where do memory accesses get served? (Fig. 1)

The paper's motivating figure contrasts the paging world (everything must
reach DRAM first) with FlatFlash's flat space (accesses served wherever
the data lives).  This experiment runs one mixed workload and breaks every
access down by serving location — DRAM, SSD via MMIO, processor cache,
PLB window — with each location's mean latency, per system.
"""

from __future__ import annotations

from repro.apps.kvstore import KVStore, run_ycsb
from repro.experiments.common import ExperimentResult, build_system, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.workloads.ycsb import RECORD_SIZE, YCSB_B

EVALUATED = ("TraditionalStack", "UnifiedMMap", "FlatFlash")
SOURCES = ("dram", "ssd", "cpu_cache", "plb")


def run(
    dram_pages: int = 32, num_ops: int = 5_000, ws_ratio: int = 8
) -> ExperimentResult:
    result = ExperimentResult(
        "Access breakdown", "Accesses by serving location and mean latency"
    )
    records = ws_ratio * dram_pages * 4_096 // RECORD_SIZE
    for name in EVALUATED:
        config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
        system = build_system(name, config)
        store = KVStore(system, capacity_records=records + 256)
        run_ycsb(store, YCSB_B, num_ops=num_ops, num_records=records)
        total = sum(
            system.stats.latency(f"mem.by_source.{source}", keep_samples=False).count
            for source in SOURCES
        )
        for source in SOURCES:
            stats = system.stats.latency(
                f"mem.by_source.{source}", keep_samples=False
            )
            if stats.count == 0:
                continue
            result.add(
                system=name,
                source=source,
                share=round(stats.count / total, 3),
                mean_ns=round(stats.mean, 1),
            )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Access breakdown (YCSB-B, working set 8x DRAM)",
        ["System", "Served from", "Share of accesses", "Mean latency (ns)"],
    )
    for row in result.rows:
        table.add_row(
            row["system"], row["source"], f"{row['share']:.1%}", row["mean_ns"]
        )
    return table


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Extension — access-source breakdown (Fig. 1's story)\n",
    "Where accesses are served under YCSB-B with the working set 8x\n"
    "DRAM: the paging systems funnel everything through DRAM behind the\n"
    "fault path, while FlatFlash serves accesses wherever the data lives\n"
    "— coherent processor cache, DRAM, or the SSD over byte-granular\n"
    "MMIO.\n",
)


def cell() -> CellResult:
    result = run()
    return CellResult(
        sections=[*SECTION, markdown_block(render(result).render())],
        rows=result.rows,
    )


if __name__ == "__main__":
    render(run()).print()
