"""Command-line entry point: run paper experiments from the shell.

Usage::

    python -m repro list                # available experiments
    python -m repro run fig9            # one table/figure
    python -m repro run ablations
    python -m repro all [output.md]     # everything -> EXPERIMENTS.md (serial)
    python -m repro sweep [output.md]   # everything, parallel + cached
    python -m repro race [--seeds N]    # schedule-perturbation check
    python -m repro analyze [paths]     # simlint + simflow
    python -m repro faults [--smoke]    # deterministic fault-injection campaign
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.experiments import ablations, breakdown, device_tech, fig8, fig9, fig10
from repro.experiments import fig11_12, fig13, fig14, interference, scorecard
from repro.experiments import table1, table2, table3


def _run_fig9() -> None:
    fig9.render_fig9a(fig9.run_fig9a()).print()
    fig9.render_fig9b(fig9.run_fig9b()).print()


def _run_fig11_12() -> None:
    result = fig11_12.run()
    fig11_12.render(result).print()
    for baseline in ("UnifiedMMap", "TraditionalStack"):
        print(
            f"max p99 reduction vs {baseline}: "
            f"{fig11_12.tail_latency_reduction(result, baseline)}x"
        )
    fig11_12.run_cdf().print()


def _run_fig14() -> None:
    fig14.render_threads(fig14.run_threads()).print()
    fig14.render_sweep(fig14.run_device_latency_sweep()).print()


def _run_ablations() -> None:
    ablations.render_promotion_policy(ablations.run_promotion_policy()).print()
    ablations.render_plb(ablations.run_plb()).print()
    ablations.render_cache_policy(ablations.run_cache_policy()).print()
    ablations.render_cacheable_mmio(ablations.run_cacheable_mmio()).print()
    ablations.render_logging_scheme(ablations.run_logging_scheme()).print()


EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "table1": lambda: table1.render(table1.run()).print(),
    "table2": lambda: table2.render(table2.run()).print(),
    "table3": lambda: table3.render(table3.run()).print(),
    "fig8": lambda: fig8.render(fig8.run()).print(),
    "fig9": _run_fig9,
    "fig10": lambda: fig10.render(fig10.run()).print(),
    "fig11": _run_fig11_12,
    "fig12": _run_fig11_12,
    "fig13": lambda: fig13.render(fig13.run()).print(),
    "fig14": _run_fig14,
    "ablations": _run_ablations,
    "device-tech": lambda: device_tech.render(device_tech.run()).print(),
    "interference": lambda: interference.render(interference.run()).print(),
    "breakdown": lambda: breakdown.render(breakdown.run()).print(),
    "scorecard": lambda: scorecard.render(scorecard.run()).print(),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FlatFlash reproduction: run the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    all_parser = subparsers.add_parser(
        "all", help="run everything and write EXPERIMENTS.md"
    )
    all_parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    from repro.sweep import cli as sweep_cli

    sweep_parser = subparsers.add_parser(
        "sweep", help="run all cells in parallel with the content-addressed cache"
    )
    sweep_cli.configure_parser(sweep_parser)
    from repro.experiments.race_check import positive_int

    race_parser = subparsers.add_parser(
        "race", help="perturb DES schedules and diff stats (dynamic race check)"
    )
    race_parser.add_argument(
        "--seeds",
        type=positive_int,
        default=5,
        help="perturbed schedules per system/scheme (default 5)",
    )
    from repro.analysis import analyze

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run simlint + simflow and merge the findings",
    )
    analyze.configure_parser(analyze_parser)

    faults_parser = subparsers.add_parser(
        "faults",
        help="run the deterministic fault-injection campaign (simfault)",
    )
    faults_parser.add_argument("--seed", type=int, default=0)
    faults_parser.add_argument("--smoke", action="store_true")
    faults_parser.add_argument("--json", metavar="PATH", default=None)
    faults_parser.add_argument(
        "--only", action="append", metavar="SCENARIO", default=None
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command == "run":
        EXPERIMENTS[args.experiment]()
        return 0
    if args.command == "race":
        from repro.experiments.race_check import run_race_check

        return run_race_check(seeds=args.seeds)
    if args.command == "analyze":
        return analyze.run(args)
    if args.command == "faults":
        from repro.faults.campaign import main as faults_main

        faults_argv = ["--seed", str(args.seed)]
        if args.smoke:
            faults_argv.append("--smoke")
        if args.json:
            faults_argv += ["--json", args.json]
        for scenario in args.only or ():
            faults_argv += ["--only", scenario]
        return faults_main(faults_argv)
    if args.command == "sweep":
        return sweep_cli.run(args)
    if args.command == "all":
        from repro.experiments.run_all import generate
        from repro.sweep.document import write_document

        content = generate()
        write_document(args.output, content)
        print(f"wrote {args.output} ({len(content)} bytes)")
        return 0
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
