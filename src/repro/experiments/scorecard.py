"""Reproduction scorecard: every headline claim, checked programmatically.

The abstract of the paper makes five quantitative claims.  Each one is
read from the figure cell that already measures it, so the scorecard
prints the same number as that figure, and renders a verdict table — the
one-page answer to "did the reproduction work?".

A claim REPRODUCES when the measured factor moves in the paper's direction
and reaches at least the stated fraction of the paper's magnitude
(default: half, since our substrate is a simulator at reduced scale —
shapes must hold, absolute factors only roughly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping

from repro.experiments import fig11_12, table1
from repro.experiments.common import ExperimentResult
from repro.experiments.report import Table
from repro.sweep.model import CellResult, markdown_block


@dataclass
class Claim:
    """One abstract claim and the figure cell that measures it.

    ``key`` is the short stable identifier of the claim;
    ``paper_low`` is the weakest instance the paper reports for this claim
    (its evaluation quotes ranges, the abstract quotes the best case);
    ``paper_high`` is the headline "up to" factor.  ``factor`` computes
    the measured factor from the rows of ``cell``.
    """

    key: str
    text: str
    paper_low: float
    paper_high: float
    cell: str
    factor: Callable[[ExperimentResult], float]


def _gups_at_512(result: ExperimentResult) -> float:
    """'improves ... memory-intensive applications by up to 2.3x':
    Table 1's GUPS row, Fig 9a at SSD:DRAM 512."""
    return table1.improvement(result.rows, "GUPS")[0]


def _best_tail_reduction(result: ExperimentResult) -> float:
    """'reduces the tail latency ... by up to 2.8x': Fig 11's best p99
    reduction against UnifiedMMap."""
    return fig11_12.tail_latency_reduction(result, "UnifiedMMap")


def _tpcb_at_16_threads(result: ExperimentResult) -> float:
    """'scales the throughput for transactional database by up to 3.0x':
    Table 1's TPCB row, Fig 14 at 16 threads."""
    return table1.improvement(result.rows, "TPCB")[0]


def _best_metadata_speedup(result: ExperimentResult) -> float:
    """'decreases the meta-data persistence overhead ... by up to 18.9x':
    Fig 13's best speedup."""
    return max(result.column("speedup"))


def _best_cost_effectiveness(result: ExperimentResult) -> float:
    """'improves the cost-effectiveness by up to 3.8x vs DRAM-only':
    Table 3's best cost-effectiveness."""
    return max(result.column("cost_effectiveness"))


CLAIMS: List[Claim] = [
    Claim("gups", "memory-intensive apps up to 2.3x (GUPS)", 1.1, 2.3, "fig9a", _gups_at_512),
    Claim("tail", "tail latency down up to 2.8x (YCSB p99)", 2.0, 2.8, "fig11_12", _best_tail_reduction),
    Claim("oltp", "database throughput up to 3.0x (TPCB, 16 threads)", 1.1, 3.0, "fig14", _tpcb_at_16_threads),
    Claim("metadata", "metadata persistence up to 18.9x (file systems)", 2.6, 18.9, "fig13", _best_metadata_speedup),
    Claim("cost", "cost-effectiveness up to 3.8x (vs DRAM-only)", 1.3, 3.8, "table3", _best_cost_effectiveness),
]


def run(measured: Mapping[str, float]) -> ExperimentResult:
    """Grade the measured factor of every claim, by claim key.  Verdicts:

    * ``STRONG``     — measured reaches half the paper's best case,
    * ``REPRODUCES`` — measured lands inside the paper's reported range,
    * ``PARTIAL``    — the direction holds (>1x) but under the range,
    * ``FAILS``      — no improvement measured.
    """
    result = ExperimentResult("Scorecard", "headline claims, measured")
    for claim in CLAIMS:
        factor = measured[claim.key]
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


# --------------------------------------------------------------- sweep cell

SECTION = (
    "## Scorecard — the abstract's claims at a glance\n",
    "Verdicts against the paper's *reported ranges* (its evaluation\n"
    "quotes ranges; the abstract quotes the best case): STRONG = at\n"
    "least half the best case, REPRODUCES = inside the range.\n",
)


def cell(deps: Mapping[str, CellResult]) -> CellResult:
    """Read each claim from its figure cell's rows and grade it."""
    measured = {
        claim.key: claim.factor(
            ExperimentResult(claim.cell, "committed sweep cell", deps[claim.cell].rows)
        )
        for claim in CLAIMS
    }
    result = run(measured)
    return CellResult(
        sections=[*SECTION, markdown_block(render(result).render())],
        rows=result.rows,
        metrics={
            "verdicts": {row["claim"]: row["verdict"] for row in result.rows},
            "measured": {row["claim"]: float(row["measured"]) for row in result.rows},
        },
    )
