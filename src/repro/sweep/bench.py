"""BENCH_sweep.json: the machine-readable perf trajectory of the sweep.

One JSON artifact per sweep run, in a stable schema:

* ``cells`` — per-cell wall-clock seconds, cache status, dependency
  list, and the cell's own headline metrics,
* ``headline`` — the numbers the paper's abstract leads with (GUPS
  speedup, YCSB p99 reduction, scorecard verdicts), pulled from the
  producing cells when they ran (``null`` under a filter that skipped
  them).

CI uploads the artifact on every push, seeding a commit-over-commit
record of both simulator results and harness runtime.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Dict, Optional

from repro.sweep.engine import SweepReport
from repro.sweep.model import json_ready

SCHEMA = "flatflash-sweep-bench/1"


def bench_payload(report: SweepReport, registry=None) -> Dict[str, object]:
    """The artifact as a plain dict (stable key order, JSON-ready values)."""
    if registry is None:
        from repro.sweep.registry import default_registry

        registry = default_registry()
    results = report.results

    def metric(cell: str, key: str) -> Optional[object]:
        if cell not in results:
            return None
        return json_ready(results[cell].metrics.get(key))

    cells = [
        {
            "name": run.name,
            "wall_s": round(run.seconds, 4),
            "cached": run.cached,
            "deps": list(registry[run.name].deps) if run.name in registry else [],
            "rows": len(run.result.rows),
            "metrics": json_ready(run.result.metrics),
        }
        for run in report.runs
    ]
    return {
        "schema": SCHEMA,
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "jobs": report.jobs,
        "total_wall_s": round(report.total_seconds, 4),
        "cells": cells,
        "headline": {
            "gups_speedup_vs_unifiedmmap": metric("fig9a", "speedup_vs_unifiedmmap"),
            "gups_speedup_vs_traditional": metric("fig9a", "speedup_vs_traditional"),
            "ycsb_p99_reduction_vs_unifiedmmap": metric(
                "fig11_12", "p99_reduction_vs_unifiedmmap"
            ),
            "ycsb_p99_reduction_vs_traditional": metric(
                "fig11_12", "p99_reduction_vs_traditional"
            ),
            "scorecard_verdicts": metric("scorecard", "verdicts"),
        },
    }


def write_bench(report: SweepReport, path: "os.PathLike[str]", registry=None) -> None:
    """Write the artifact (atomically, like the document)."""
    from repro.sweep.document import write_document

    payload = bench_payload(report, registry=registry)
    write_document(path, json.dumps(payload, indent=2, sort_keys=False) + "\n")
