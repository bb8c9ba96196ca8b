"""Table 1: summary of FlatFlash improvements vs UnifiedMMap.

The paper's Table 1 summarises §5, so every measured row here is read
from the figure row that measures that benchmark (:data:`SOURCES`): the
average performance improvement plus the SSD lifetime improvement (flash
pages programmed), the two columns of the paper's Table 1.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block

PAPER_ROWS = [
    ("HPC Challenge", "GUPS", 1.6, 1.3),
    ("Graph Analytics", "PageRank", 1.3, 1.5),
    ("Graph Analytics", "ConnectedComponent", 1.5, 1.9),
    ("Key-Value Store", "YCSB-B", 2.1, 1.3),
    ("Key-Value Store", "YCSB-D", 2.2, 1.3),
    ("File Systems", "CreateFile", 7.4, 5.3),  # midpoints of the quoted ranges
    ("File Systems", "VarMail", 4.7, 5.0),
    ("Transactional DB", "TPCC", 1.9, 1.0),
    ("Transactional DB", "TPCB", 2.8, 1.0),
    ("Transactional DB", "TATP", 1.3, 1.0),
]

#: Where each benchmark is measured: the figure cell, the fields that pick
#: its row, and the field compared.  A time is compared UnifiedMMap over
#: FlatFlash and ``throughput_tps`` FlatFlash over UnifiedMMap; lifetime
#: is the ratio of the two systems' ``flash_programs``.  Fig 13's rows
#: already pair the systems, as ``speedup`` and ``lifetime_gain``.
SOURCES: Dict[str, Tuple[str, Dict[str, object], str]] = {
    "GUPS": ("fig9a", {"ratio": 512}, "mean_update_ns"),
    "PageRank": (
        "fig10",
        {"graph": "twitter-like", "algorithm": "pagerank", "dram_ratio": 3},
        "elapsed_ms",
    ),
    "ConnectedComponent": (
        "fig10",
        {"graph": "twitter-like", "algorithm": "connected-components", "dram_ratio": 3},
        "elapsed_ms",
    ),
    "YCSB-B": ("fig11_12", {"workload": "YCSB-B", "ws_ratio": 8}, "mean_ns"),
    "YCSB-D": ("fig11_12", {"workload": "YCSB-D", "ws_ratio": 8}, "mean_ns"),
    "CreateFile": ("fig13", {"filesystem": "ext4", "workload": "CreateFile"}, "speedup"),
    "VarMail": ("fig13", {"filesystem": "ext4", "workload": "VarMail"}, "speedup"),
    "TPCC": ("fig14", {"workload": "TPCC", "threads": 16}, "throughput_tps"),
    "TPCB": ("fig14", {"workload": "TPCB", "threads": 16}, "throughput_tps"),
    "TATP": ("fig14", {"workload": "TATP", "threads": 16}, "throughput_tps"),
}


def improvement(rows: Sequence[dict], benchmark: str) -> Tuple[float, float]:
    """FlatFlash's (performance, lifetime) factor over UnifiedMMap on one
    benchmark, from the rows of the figure cell that measures it."""
    _, where, field = SOURCES[benchmark]
    matched = [row for row in rows if where.items() <= row.items()]
    if field == "speedup":
        (row,) = matched
        return row["speedup"], row["lifetime_gain"]
    by_system = {row["system"]: row for row in matched}
    unified, flat = by_system["UnifiedMMap"], by_system["FlatFlash"]
    if field == "throughput_tps":
        perf = flat[field] / unified[field]
    else:
        perf = unified[field] / flat[field]
    return perf, unified["flash_programs"] / flat["flash_programs"]


def run(figure_rows: Mapping[str, Sequence[dict]]) -> ExperimentResult:
    """Build the summary table from the figure cells' rows, by cell name."""
    result = ExperimentResult("Table 1", "FlatFlash improvements vs UnifiedMMap")
    for app, benchmark, paper_perf, paper_life in PAPER_ROWS:
        perf, life = improvement(figure_rows[SOURCES[benchmark][0]], benchmark)
        result.add(
            application=app,
            benchmark=benchmark,
            paper_perf=paper_perf,
            measured_perf=round(perf, 2),
            paper_lifetime=paper_life,
            measured_lifetime=round(life, 2),
        )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Table 1: FlatFlash average improvement over UnifiedMMap",
        ["Application", "Benchmark", "Perf (paper)", "Perf (measured)", "Lifetime (paper)", "Lifetime (measured)"],
    )
    for row in result.rows:
        table.add_row(
            row["application"],
            row["benchmark"],
            f"{row['paper_perf']}x",
            f"{row['measured_perf']}x",
            f"{row['paper_lifetime']}x",
            f"{row['measured_lifetime']}x",
        )
    return table


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Table 1 — summary vs UnifiedMMap\n",
    "Paper columns reproduced side by side.  Each measured row is a row\n"
    "of a figure above: GUPS is Fig 9a at SSD:DRAM 512x; PageRank and\n"
    "ConnectedComponent are Fig 10's twitter-like graph at graph:DRAM 3x;\n"
    "YCSB-B and YCSB-D are Figs 11-12 at WS:DRAM 8x (mean latency);\n"
    "CreateFile and VarMail are Fig 13's EXT4 rows; TPCC, TPCB and TATP\n"
    "are Fig 14 at 16 threads.  Lifetime is the ratio of flash page\n"
    "programs.  In the Fig 9a, 10, 11-12 and 14 rows that counts every\n"
    "program of the run, the pages mmap maps included; Fig 13 counts the\n"
    "workload's own page writes.  GUPS: UnifiedMMap programs 12,210\n"
    "pages (1,024 at mmap plus 11,186 dirty evictions), FlatFlash 1,024,\n"
    "all at mmap.  FlatFlash's counts miss every store that hits a\n"
    "coherently cached line: such a store never dirties its SSD-Cache\n"
    "page, so it never reaches flash.  With cacheable MMIO off, FlatFlash\n"
    "programs 12,534 pages on GUPS and 583, not 445, on YCSB-B.\n",
)


def cell(deps: Mapping[str, CellResult]) -> CellResult:
    """Assemble the paper's Table 1 from the figure cells' rows."""
    result = run({name: dep.rows for name, dep in deps.items()})
    return CellResult(
        sections=[*SECTION, markdown_block(render(result).render())],
        rows=result.rows,
        metrics={
            "perf": {row["benchmark"]: float(row["measured_perf"]) for row in result.rows},
            "lifetime": {
                row["benchmark"]: float(row["measured_lifetime"]) for row in result.rows
            },
        },
    )
