"""Per-analyzer wall-clock timing for the static-analysis family.

``python benchmarks/bench_analyze.py --output BENCH_analyze.json`` times
every analyzer once and writes a small JSON document — the artifact CI
uploads so analyzer-cost regressions are visible per commit.  ``--check
BASELINE`` additionally compares the fresh timings against a committed
baseline document and fails (exit 1) when any analyzer has slowed by more
than 2x, with a small absolute noise floor so sub-50 ms analyzers can't
trip the guard on scheduler jitter.

Each entry of :data:`repro.analysis.analyze.TOOLS` (simlint, simflow) is
timed on its own over ``src/repro``, reading each file as the front end
does.  Whether ``src/`` is clean is not this script's question: CI's
``python -m repro.analysis.analyze --check-suppressions src/`` step exits
1 on any finding.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.analyze import TOOLS  # noqa: E402
from repro.analysis.findings import iter_python_files  # noqa: E402

ANALYZE_PATHS = [str(SRC / "repro")]


def _run_tool(analyze: Callable[..., list]) -> int:
    """Read and analyze every file under ``ANALYZE_PATHS``; #findings."""
    return sum(
        len(analyze(path.read_text(encoding="utf-8"), path=str(path)))
        for path in iter_python_files(ANALYZE_PATHS)
    )


#: Per-analyzer slowdown budget for ``--check`` (new > 2x old fails).
SLOWDOWN_LIMIT = 2.0

#: Baseline times are clamped up to this before comparing, so an
#: analyzer that took 10 ms on the baseline machine can't fail CI by
#: taking 30 ms on a noisier one.
NOISE_FLOOR_SECONDS = 0.05


def time_analyzers() -> Dict[str, Dict[str, float]]:
    """Run every analyzer once; returns {name: {seconds, result}}."""
    timings: Dict[str, Dict[str, float]] = {}
    for name, analyze in TOOLS:
        start = time.perf_counter()
        result = _run_tool(analyze)
        elapsed = time.perf_counter() - start
        timings[name] = {"seconds": round(elapsed, 4), "result": result}
    return timings


def check_regressions(
    timings: Dict[str, Dict[str, float]], baseline: Dict[str, object]
) -> List[str]:
    """Analyzers that slowed past ``SLOWDOWN_LIMIT`` vs ``baseline``.

    Analyzers absent from the baseline (newly added) are skipped — the
    baseline must be regenerated to start guarding them.
    """
    failures: List[str] = []
    old_timings = baseline.get("analyzers", {})
    for name, timing in timings.items():
        old = old_timings.get(name)
        if not isinstance(old, dict) or "seconds" not in old:
            continue
        budget = max(float(old["seconds"]), NOISE_FLOOR_SECONDS) * SLOWDOWN_LIMIT
        if timing["seconds"] > budget:
            failures.append(
                f"{name}: {timing['seconds']:.3f}s > {budget:.3f}s "
                f"(baseline {float(old['seconds']):.3f}s x {SLOWDOWN_LIMIT:g})"
            )
    return failures


def main(argv: List[str]) -> int:
    output = "BENCH_analyze.json"
    if "--output" in argv:
        output = argv[argv.index("--output") + 1]
    check_path = None
    if "--check" in argv:
        check_path = argv[argv.index("--check") + 1]
    timings = time_analyzers()
    document = {
        "schema_version": 1,
        "paths": ["src/repro"],
        "analyzers": timings,
        "total_seconds": round(sum(t["seconds"] for t in timings.values()), 4),
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, timing in timings.items():
        print(f"{name:>18}: {timing['seconds']:8.3f}s (result={timing['result']})")
    print(f"wrote {output}")
    if check_path is not None:
        with open(check_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_regressions(timings, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no analyzer slower than {SLOWDOWN_LIMIT:g}x the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
