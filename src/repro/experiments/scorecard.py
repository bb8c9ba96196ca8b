"""Reproduction scorecard: every headline claim, checked programmatically.

The abstract of the paper makes five quantitative claims.  This module
re-measures each one and renders a verdict table — the one-page answer to
"did the reproduction work?".

A claim REPRODUCES when the measured factor moves in the paper's direction
and reaches at least the stated fraction of the paper's magnitude
(default: half, since our substrate is a simulator at reduced scale —
shapes must hold, absolute factors only roughly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from repro.experiments import fig9, fig11_12, fig13, fig14, table3
from repro.experiments.common import ExperimentResult
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block


@dataclass
class Claim:
    """One abstract claim and how to measure it.

    ``key`` is the short stable identifier sweep cells are named by;
    ``paper_low`` is the weakest instance the paper reports for this claim
    (its evaluation quotes ranges, the abstract quotes the best case);
    ``paper_high`` is the headline "up to" factor.
    """

    key: str
    text: str
    paper_low: float
    paper_high: float
    measure: Callable[[], float]


def _memory_intensive() -> float:
    """'improves ... memory-intensive applications by up to 2.3x'."""
    result = fig9.run_fig9a(ratios=[512], dram_pages=32, num_updates=6_000)
    unified = result.filtered(system="UnifiedMMap")[0]["mean_update_ns"]
    flat = result.filtered(system="FlatFlash")[0]["mean_update_ns"]
    return unified / flat


def _tail_latency() -> float:
    """'reduces the tail latency ... by up to 2.8x'."""
    result = fig11_12.run(
        workload_names=["YCSB-B"], ws_ratios=[8, 16], dram_pages=24, num_ops=5_000
    )
    return fig11_12.tail_latency_reduction(result, "UnifiedMMap")


def _database_throughput() -> float:
    """'scales the throughput for transactional database by up to 3.0x'."""
    result = fig14.run_threads(
        workload_names=["TPCB"], thread_counts=[16], transactions_per_thread=50
    )
    flat = result.filtered(system="FlatFlash")[0]["throughput_tps"]
    unified = result.filtered(system="UnifiedMMap")[0]["throughput_tps"]
    return flat / unified


def _metadata_persistence() -> float:
    """'decreases the meta-data persistence overhead ... by up to 18.9x'."""
    result = fig13.run(ops_per_workload=80)
    return max(row["speedup"] for row in result.rows)


def _cost_effectiveness() -> float:
    """'improves the cost-effectiveness by up to 3.8x vs DRAM-only'."""
    result = table3.run()
    return max(row["cost_effectiveness"] for row in result.rows)


CLAIMS: List[Claim] = [
    Claim("gups", "memory-intensive apps up to 2.3x (GUPS)", 1.1, 2.3, _memory_intensive),
    Claim("tail", "tail latency down up to 2.8x (YCSB p99)", 2.0, 2.8, _tail_latency),
    Claim("oltp", "database throughput up to 3.0x (TPCB, 16 threads)", 1.1, 3.0, _database_throughput),
    Claim("metadata", "metadata persistence up to 18.9x (file systems)", 2.6, 18.9, _metadata_persistence),
    Claim("cost", "cost-effectiveness up to 3.8x (vs DRAM-only)", 1.3, 3.8, _cost_effectiveness),
]


def claim_by_key(key: str) -> Claim:
    for claim in CLAIMS:
        if claim.key == key:
            return claim
    raise KeyError(f"unknown claim {key!r}; choose from {[c.key for c in CLAIMS]}")


def run(measured: Optional[Mapping[str, float]] = None) -> ExperimentResult:
    """Measure every claim.  Verdicts:

    * ``STRONG``     — measured reaches half the paper's best case,
    * ``REPRODUCES`` — measured lands inside the paper's reported range,
    * ``PARTIAL``    — the direction holds (>1x) but under the range,
    * ``FAILS``      — no improvement measured.

    ``measured`` optionally supplies pre-computed factors by claim key
    (the sweep engine measures the claims in parallel cells and feeds
    them here); missing claims are measured inline.
    """
    result = ExperimentResult("Scorecard", "headline claims, measured")
    for claim in CLAIMS:
        factor = None if measured is None else measured.get(claim.key)
        if factor is None:
            factor = claim.measure()
        if factor >= claim.paper_high / 2 and factor >= claim.paper_low:
            verdict = "STRONG"
        elif factor >= claim.paper_low:
            verdict = "REPRODUCES"
        elif factor > 1.0:
            verdict = "PARTIAL"
        else:
            verdict = "FAILS"
        result.add(
            claim=claim.text,
            paper_range=f"{claim.paper_low}-{claim.paper_high}x",
            measured=round(factor, 2),
            verdict=verdict,
        )
    return result


def render(result: ExperimentResult) -> Table:
    table = Table(
        "Reproduction scorecard (abstract claims vs the paper's reported ranges)",
        ["Claim", "Paper range", "Measured", "Verdict"],
    )
    for row in result.rows:
        table.add_row(
            row["claim"], row["paper_range"], f"{row['measured']}x", row["verdict"]
        )
    return table


# --------------------------------------------------------------- sweep cells

SECTION = (
    "## Scorecard — the abstract's claims at a glance\n",
    "Verdicts against the paper's *reported ranges* (its evaluation\n"
    "quotes ranges; the abstract quotes the best case): STRONG = at\n"
    "least half the best case, REPRODUCES = inside the range.\n",
)


def claim_cell(claim: str) -> CellResult:
    """Measure one abstract claim (a data-only cell feeding ``cell``)."""
    spec = claim_by_key(claim)
    factor = spec.measure()
    return CellResult(
        rows=[{"claim": claim, "measured": factor}],
        metrics={"claim": claim, "measured": float(factor)},
    )


def cell(deps) -> CellResult:
    """Assign verdicts from the five claim cells and render the table."""
    measured = {}
    for dep in deps.values():
        row = dep.rows[0]
        measured[row["claim"]] = row["measured"]
    result = run(measured)
    return CellResult(
        sections=[*SECTION, markdown_block(render(result).render())],
        rows=result.rows,
        metrics={
            "verdicts": {row["claim"]: row["verdict"] for row in result.rows},
            "measured": {row["claim"]: float(row["measured"]) for row in result.rows},
        },
    )


if __name__ == "__main__":
    render(run()).print()
