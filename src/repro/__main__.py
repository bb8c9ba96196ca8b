"""Command-line entry point: run paper experiments from the shell.

Usage::

    python -m repro list                # the sweep's cells
    python -m repro run 'fig9*'         # matching cells' sections (deps run too)
    python -m repro run 'ablations:*'
    python -m repro sweep [output.md]   # everything -> EXPERIMENTS.md, parallel + cached
    python -m repro sweep --jobs 1 --no-cache   # the same, serial and uncached
    python -m repro race [--seeds N]    # schedule-perturbation check
    python -m repro analyze [paths]     # simlint + simflow
    python -m repro faults [--smoke]    # deterministic fault-injection campaign
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FlatFlash reproduction: run the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the sweep's cells")
    run_parser = subparsers.add_parser(
        "run", help="run the cells matching a glob and print their sections"
    )
    run_parser.add_argument("cells", nargs="+", metavar="GLOB")
    from repro.sweep import cli as sweep_cli

    sweep_parser = subparsers.add_parser(
        "sweep", help="run all cells in parallel with the content-addressed cache"
    )
    sweep_cli.configure_parser(sweep_parser)
    race_parser = subparsers.add_parser(
        "race", help="perturb DES schedules and diff stats (dynamic race check)"
    )
    race_parser.add_argument(
        "--seeds",
        type=sweep_cli.positive_int,
        default=5,
        help="perturbed schedules per system/scheme (default 5)",
    )
    from repro.analysis import analyze

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run simlint + simflow and merge the findings",
    )
    analyze.configure_parser(analyze_parser)

    from repro.faults import campaign

    faults_parser = subparsers.add_parser(
        "faults",
        help="run the deterministic fault-injection campaign (simfault)",
    )
    campaign.configure_parser(faults_parser)

    args = parser.parse_args(argv)
    if args.command == "list":
        from repro.sweep.registry import default_registry

        print("\n".join(default_registry().names()))
        return 0
    if args.command == "run":
        from repro.sweep.engine import run_sweep
        from repro.sweep.registry import default_registry

        try:
            matched = default_registry().matching(args.cells)
        except ValueError as error:
            run_parser.error(str(error))
        results = run_sweep(jobs=1, only=matched).results
        sections = [section for name in matched for section in results[name].sections]
        print("\n".join(sections), end="")
        return 0
    if args.command == "race":
        from repro.experiments.race_check import run_race_check

        return run_race_check(seeds=args.seeds)
    if args.command == "analyze":
        return analyze.run(args)
    if args.command == "faults":
        return campaign.run(args)
    if args.command == "sweep":
        return sweep_cli.run(args)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
