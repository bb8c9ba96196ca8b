"""Wall clock and row digests of the replay-engine cells (ROADMAP item 1).

Every plain load/store stream reaches the hierarchy through the
trace-compiled replay engine (:mod:`repro.engine`).  This benchmark times
three sweep cells and checks two things:

* each cell's rows digest equals the ``rows_sha256`` committed in
  ``benchmarks/BENCH_engine_baseline.json`` (recorded when the per-row
  scalar loop and the fused engine agreed on every cell), so the engine
  still produces the same experiment;
* no cell has slowed past 2x its committed ``engine_seconds``
  (``--check benchmarks/BENCH_engine_baseline.json`` in CI, mirroring
  ``bench_analyze.py``).

Cells and what they exercise:

* ``fig9a`` — GUPS random access: mostly SSD-resident pages, so the
  thin-delegation path (inlined translation kernels + direct
  ``_access_page``) dominates.
* ``fig10`` — graph analytics: mixed DRAM/SSD with promotions, so the
  fused DRAM path and the order-dependent settle hooks both run hot.
* ``fig14`` — OLTP on MiniDB: *not* engine-accelerated — the DES
  workers feed each access latency back into the scheduler, making
  global order loop-carried — timed here so the cost
  of leaving it scalar stays visible.

Usage::

    pytest benchmarks/bench_engine.py --benchmark-only
    python benchmarks/bench_engine.py --output BENCH_engine.json \
        --check benchmarks/BENCH_engine_baseline.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Committed per-cell times and rows digests.
BASELINE = Path(__file__).resolve().parent / "BENCH_engine_baseline.json"

#: Sweep cells timed and digest-checked.
CELLS = ("fig9a", "fig10", "fig14")

#: Engine run slower than 2x its baseline time fails ``--check``.
SLOWDOWN_LIMIT = 2.0

#: Baseline times are clamped up to this before comparing (scheduler
#: jitter on sub-second cells must not fail CI).
NOISE_FLOOR_SECONDS = 0.5


def _run_cell(name: str) -> Dict[str, object]:
    """One cold cell run; returns wall seconds + a digest of the rows."""
    from repro.sweep.registry import call_cell, default_registry

    cell = default_registry()[name]
    start = time.perf_counter()
    result = call_cell(cell)
    elapsed = time.perf_counter() - start
    blob = json.dumps(result.rows, sort_keys=True, default=str)
    return {
        "engine_seconds": round(elapsed, 4),
        "rows_sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    }


def time_cells() -> Dict[str, Dict[str, object]]:
    """Run every cell once; returns the timing/digest table."""
    return {name: _run_cell(name) for name in CELLS}


# --------------------------------------------------------------------------
# pytest-benchmark cases: cell runs, committed digests asserted
# --------------------------------------------------------------------------


def _bench_cell(once, name: str) -> None:
    row = once(_run_cell, name)
    with open(BASELINE, "r", encoding="utf-8") as handle:
        committed = json.load(handle)["cells"][name]["rows_sha256"]
    assert row["rows_sha256"] == committed, f"{name}: rows diverged from the committed digest"


def test_bench_engine_fig9a(once):
    _bench_cell(once, "fig9a")


def test_bench_engine_fig10(once):
    _bench_cell(once, "fig10")


def test_bench_engine_fig14(once):
    _bench_cell(once, "fig14")


# --------------------------------------------------------------------------
# Script mode: write BENCH_engine.json for the CI artifact
# --------------------------------------------------------------------------


def check_regressions(
    table: Dict[str, Dict[str, object]], baseline: Dict[str, object]
) -> List[str]:
    """Cells that diverged or slowed past ``SLOWDOWN_LIMIT`` vs baseline.

    Cells absent from the baseline (newly adopted) are skipped — the
    baseline must be regenerated to start guarding them.
    """
    failures: List[str] = []
    old_cells = baseline.get("cells", {})
    for name, row in table.items():
        old = old_cells.get(name)
        if not isinstance(old, dict) or "engine_seconds" not in old:
            continue
        if row["rows_sha256"] != old.get("rows_sha256"):
            failures.append(f"{name}: rows differ from the baseline digest")
        budget = (
            max(float(old["engine_seconds"]), NOISE_FLOOR_SECONDS) * SLOWDOWN_LIMIT
        )
        if float(row["engine_seconds"]) > budget:
            failures.append(
                f"{name}: engine {row['engine_seconds']:.3f}s > {budget:.3f}s "
                f"(baseline {float(old['engine_seconds']):.3f}s x {SLOWDOWN_LIMIT:g})"
            )
    return failures


def main(argv: List[str]) -> int:
    output = "BENCH_engine.json"
    if "--output" in argv:
        output = argv[argv.index("--output") + 1]
    check_path = None
    if "--check" in argv:
        check_path = argv[argv.index("--check") + 1]
    table = time_cells()
    document = {
        "schema_version": 1,
        "cells": table,
        "total_engine_seconds": round(
            sum(float(row["engine_seconds"]) for row in table.values()), 4
        ),
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, row in table.items():
        print(f"{name:>8}: engine {row['engine_seconds']:7.3f}s  rows {row['rows_sha256'][:16]}")
    print(f"wrote {output}")
    if check_path is not None:
        with open(check_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_regressions(table, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"rows match the baseline digests; no cell slower than {SLOWDOWN_LIMIT:g}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
