"""Command-line entry point: ``python -m repro.analysis.simeffect <paths>``.

Exits 1 when any violation is found, 0 on a clean tree.  With
``--report [FILE]`` the kernel-eligibility report is written (default
``EFFECTS.json``) and the exit status still reflects findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.findings import (
    add_baseline_arguments,
    apply_baseline,
    findings_json,
)
from repro.analysis.simeffect.engine import (
    TOOL,
    analyze_sources,
    build,
    build_report,
    read_sources,
)
from repro.analysis.simeffect.rules import RULES


def _list_rules() -> str:
    lines = ["simeffect rule catalogue:", ""]
    for rule in RULES:
        scope = "sim scope only" if rule.sim_scope_only else "all files"
        lines.append(f"  {rule.code}  {rule.title}  [{scope}]")
        lines.append(f"         {rule.explanation}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.simeffect",
        description=(
            "Interprocedural effect & kernel-eligibility analysis for the "
            "FlatFlash simulator."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze as ONE program (directories are "
            "walked for *.py; default src/repro when --report is given)"
        ),
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all), e.g. SE001,SE005",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON (shared analysis-family schema)",
    )
    parser.add_argument(
        "--report",
        nargs="?",
        const="EFFECTS.json",
        metavar="FILE",
        help=(
            "write the kernel-eligibility report to FILE "
            "(default EFFECTS.json) in addition to reporting findings"
        ),
    )
    add_baseline_arguments(parser)
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        if args.report:
            args.paths = ["src/repro"]
        else:
            parser.error(
                "no paths given (try: python -m repro.analysis.simeffect src/repro)"
            )

    select = None
    if args.select:
        select = [code.strip().upper() for code in args.select.split(",") if code.strip()]
        known = {rule.code for rule in RULES} | {"SE000"}
        unknown = sorted(set(select) - known)
        if unknown:
            parser.error(
                f"unknown rule code(s): {', '.join(unknown)} (see --list-rules)"
            )

    try:
        sources = read_sources(args.paths)
    except (OSError, UnicodeDecodeError) as error:
        print(f"simeffect: cannot read input: {error}", file=sys.stderr)
        return 2
    if not sources:
        print("simeffect: no Python files found under the given paths", file=sys.stderr)
        return 0

    violations = analyze_sources(sources, select=select)

    if args.report:
        program, _errors = build(sources)
        report = build_report(program)
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        summary = report["summary"]
        print(
            f"simeffect: wrote {args.report} — "
            f"{summary['certified_kernels']} certified kernel(s), "
            f"{summary['disqualified']} disqualified, "
            f"{summary['annotated']} annotated function(s)"
        )

    violations, done = apply_baseline(args, TOOL, violations, len(sources))
    if done is not None:
        return done

    if args.json:
        print(findings_json(TOOL, violations, files_checked=len(sources)))
        return 1 if violations else 0

    for violation in violations:
        print(violation.format())
    if violations:
        print(f"\nsimeffect: {len(violations)} violation(s) in {len(sources)} file(s)")
        return 1
    print(f"simeffect: {len(sources)} file(s) clean")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
