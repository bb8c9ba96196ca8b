"""Workload-interference study (§5.4's tail-latency discussion).

The paper attributes FlatFlash's tail-latency win partly to avoided DRAM
pollution: "Such a policy can avoid pollution in the host DRAM and reduce
the I/O traffic to the SSD, therefore, the performance interference is
reduced."  This experiment makes the interference explicit: a
latency-critical KV workload shares one machine with a GUPS-style
antagonist sweeping random pages.  Under paging, the antagonist's
low-reuse pages keep displacing the KV store's hot set; FlatFlash's
adaptive promotion refuses to promote them, so the victim's tail barely
moves.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.kvstore import KVStore
from repro.experiments.common import ExperimentResult, build_system, scaled_config
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block
from repro.sim.stats import LatencyStats
from repro.workloads.ycsb import OpType, RECORD_SIZE, YCSB_B, generate_ops

EVALUATED = ("TraditionalStack", "UnifiedMMap", "FlatFlash")


def _run_victim(
    system,
    store: KVStore,
    antagonist_region,
    num_ops: int,
    records: int,
    antagonist_ratio: int,
    rng: np.random.Generator,
) -> LatencyStats:
    """Interleave victim KV ops with antagonist random-page sweeps."""
    stats = LatencyStats("victim")
    antagonist_pages = antagonist_region.num_pages if antagonist_region else 0
    ops = generate_ops(YCSB_B, num_ops, records, seed=31)
    for index, (op, key) in enumerate(ops):
        if antagonist_region is not None and antagonist_ratio:
            for _ in range(antagonist_ratio):
                # Each visit touches a few lines of one page: enough reuse
                # to look referenced to the kernel's reclaim scan, far below
                # Algorithm 1's promotion threshold.
                page = int(rng.integers(0, antagonist_pages))
                for line in range(3):
                    system.load(antagonist_region.page_addr(page, line * 64), 64)
        key = key % store.capacity_records
        if op is OpType.READ:
            _value, latency = store.get(key)
        else:
            latency = store.put(key)
        stats.record(latency)
    return stats


def run(
    dram_pages: int = 32,
    num_ops: int = 4_000,
    antagonist_ratio: int = 2,
) -> ExperimentResult:
    """``antagonist_ratio``: antagonist accesses interleaved per victim op."""
    result = ExperimentResult(
        "Interference", "KV tail latency with a thrashing co-runner"
    )
    records = 4 * dram_pages * 4_096 // RECORD_SIZE
    for name in EVALUATED:
        latencies: Dict[str, LatencyStats] = {}
        for scenario in ("alone", "with antagonist"):
            config = scaled_config(dram_pages=dram_pages, ssd_to_dram=256)
            system = build_system(name, config)
            store = KVStore(system, capacity_records=records + 256)
            antagonist = None
            if scenario == "with antagonist":
                antagonist = system.mmap(dram_pages * 24, name="antagonist")
            latencies[scenario] = _run_victim(
                system,
                store,
                antagonist,
                num_ops,
                records,
                antagonist_ratio,
                np.random.default_rng(5),
            )
        alone = latencies["alone"]
        loaded = latencies["with antagonist"]
        result.add(
            system=name,
            alone_p99_ns=alone.p99,
            loaded_p99_ns=loaded.p99,
            p99_blowup=round(loaded.p99 / alone.p99, 2) if alone.p99 else 0.0,
            alone_mean_ns=round(alone.mean, 1),
            loaded_mean_ns=round(loaded.mean, 1),
        )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Interference: YCSB-B victim p99 with a random-sweep antagonist",
        ["System", "p99 alone (ns)", "p99 loaded (ns)", "p99 blow-up", "Mean loaded (ns)"],
    )
    for row in result.rows:
        table.add_row(
            row["system"],
            row["alone_p99_ns"],
            row["loaded_p99_ns"],
            f"{row['p99_blowup']}x",
            row["loaded_mean_ns"],
        )
    return table


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Extension — workload interference (§5.4's pollution claim)\n",
    "A YCSB-B victim shares the machine with a random-sweep antagonist.\n"
    "FlatFlash keeps both the best absolute victim latency and the\n"
    "smallest degradation: adaptive promotion refuses to admit the\n"
    "antagonist's low-reuse pages into DRAM.\n",
)


def cell() -> CellResult:
    result = run()
    return CellResult(
        sections=[*SECTION, markdown_block(render(result).render())],
        rows=result.rows,
        metrics={
            "p99_blowup": {
                row["system"]: float(row["p99_blowup"]) for row in result.rows
            },
        },
    )
