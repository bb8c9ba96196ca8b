"""``python -m repro sweep`` — the parallel, cached experiment runner.

Flags:

* ``--jobs N`` — worker processes (default: the machine's CPU count),
* ``--filter GLOB`` — run only matching cells (repeatable; transitive
  dependencies are pulled in automatically),
* ``--no-cache`` — bypass the content-addressed cache entirely,
* ``--cache-dir DIR`` — cache location (default ``.sweep-cache``),
* ``--json PATH`` — also emit the BENCH artifact (per-cell runtimes and
  headline metrics).

A full (unfiltered) sweep rewrites EXPERIMENTS.md atomically, with the
same bytes at any ``--jobs``; a filtered sweep skips the document and just
reports the cells it ran.  A filter that matches no cell is a usage error
(exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.sweep.cache import DEFAULT_CACHE_DIR, SweepCache


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "output",
        nargs="?",
        default="EXPERIMENTS.md",
        help="document path for a full sweep (default EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--filter",
        action="append",
        dest="filters",
        metavar="GLOB",
        help="run only cells matching this glob (repeatable); deps are included",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell, neither reading nor writing the cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"content-addressed result cache location (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="also write the BENCH artifact (per-cell runtimes + headline metrics)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )


def run(args: argparse.Namespace) -> int:
    from repro.sweep.bench import write_bench
    from repro.sweep.document import assemble, document_cells, write_document
    from repro.sweep.engine import run_sweep
    from repro.sweep.registry import default_registry

    registry = default_registry()
    try:
        registry.select(args.filters)
    except ValueError as error:
        print(f"python -m repro sweep: error: {error}", file=sys.stderr)
        return 2
    jobs: int = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    cache: Optional[SweepCache] = None if args.no_cache else SweepCache(args.cache_dir)

    def progress(cell_run) -> None:
        if not args.quiet:
            suffix = "  (cached)" if cell_run.cached else ""
            print(f"  {cell_run.name:<30} {cell_run.seconds:8.2f}s{suffix}", flush=True)

    report = run_sweep(
        registry=registry,
        jobs=jobs,
        cache=cache,
        only=args.filters,
        progress=progress,
    )

    hits = sum(1 for cell_run in report.runs if cell_run.cached)
    print(
        f"sweep: {len(report.runs)} cells in {report.total_seconds:.2f}s "
        f"({jobs} job(s), {hits} cache hit(s))"
    )

    produced = {cell_run.name for cell_run in report.runs}
    if set(document_cells()) <= produced:
        content = assemble(report.results)
        write_document(args.output, content)
        print(f"wrote {args.output} ({len(content)} bytes)")
    else:
        print("filtered sweep: document cells incomplete, EXPERIMENTS.md not written")

    if args.json_path:
        write_bench(report, args.json_path, registry=registry)
        print(f"wrote {args.json_path}")
    return 0
