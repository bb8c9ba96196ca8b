"""Umbrella runner: simlint + simrace + simflow.

``python -m repro analyze [paths]`` runs all three static-analysis
families over the same file set and merges their findings into a single
report (or, with ``--json``, a single findings document in the shared
schema of :mod:`repro.analysis.findings`, with each finding carrying a
``tool`` field).  Every tool analyzes one file at a time.

Exit status: 0 when clean, 1 when any tool found anything, and 2 when a
tool *crashed* on a file — a crash means that file was never actually
checked, so it must not be mistaken for a clean pass.

``--check-suppressions`` audits ``# <tool>: disable=`` comments: each
tool is re-run with its suppressions neutralized and any comment that no
longer shields a finding is reported as ``SUP001``, keeping dead
markers from accumulating.

The merged document is also a valid ``--baseline`` snapshot: rule codes
are disjoint across tools (SL/SR/SF), so one baseline file can cover
all three analyses at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import (
    SCHEMA_VERSION,
    Violation,
    add_baseline_arguments,
    filter_baseline,
    iter_python_files,
    load_baseline,
    strip_suppression_comments,
    unused_suppressions,
)
from repro.analysis.simflow.engine import analyze_file as _flow_file
from repro.analysis.simflow.engine import analyze_source as _flow_source
from repro.analysis.simlint.engine import lint_file as _lint_file
from repro.analysis.simlint.engine import lint_source as _lint_source
from repro.analysis.simrace.engine import analyze_file as _race_file
from repro.analysis.simrace.engine import analyze_source as _race_source

#: The per-file analysis families the umbrella runs, in report order.
TOOLS: Tuple[Tuple[str, Callable[..., List[Violation]]], ...] = (
    ("simlint", _lint_file),
    ("simrace", _race_file),
    ("simflow", _flow_file),
)

#: Source-string variants of the per-file tools (suppression auditing).
SOURCE_TOOLS: Tuple[Tuple[str, Callable[..., List[Violation]]], ...] = (
    ("simlint", _lint_source),
    ("simrace", _race_source),
    ("simflow", _flow_source),
)


class Crash:
    """One analyzer failure: the file was not actually checked."""

    __slots__ = ("tool", "path", "error")

    def __init__(self, tool: str, path: str, error: BaseException) -> None:
        self.tool = tool
        self.path = path
        self.error = f"{type(error).__name__}: {error}"

    def as_dict(self) -> Dict[str, str]:
        return {"tool": self.tool, "path": self.path, "error": self.error}

    def format(self) -> str:
        return f"{self.tool}: CRASH analyzing {self.path}: {self.error}"


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def run_all(
    paths: Sequence[str],
) -> Tuple[Dict[str, List[Violation]], int, List[Crash]]:
    """Run every tool over ``paths``.

    Returns ``(per-tool findings, #files, crashes)``.  A tool raising on
    a file is recorded as a crash instead of aborting the whole run, so
    one bad file can't hide every other tool's findings — but the caller
    must exit non-zero, because the crashed (tool, file) pair was never
    actually analyzed.
    """
    files = iter_python_files(paths)
    per_tool: Dict[str, List[Violation]] = {}
    crashes: List[Crash] = []
    for tool, analyze in TOOLS:
        violations: List[Violation] = []
        for path in files:
            try:
                violations.extend(analyze(path))
            except Exception as error:  # pragma: no cover - exercised via tests
                crashes.append(Crash(tool, str(path), error))
        per_tool[tool] = violations
    return per_tool, len(files), crashes


def check_suppressions(paths: Sequence[str]) -> Tuple[List[Violation], List[Crash]]:
    """Audit suppression comments under ``paths``; stale ones → SUP001.

    Each tool is re-run with its ``# <tool>: disable`` markers
    neutralized; a marker whose line then shows no finding of the listed
    codes is stale.  Findings keep the tool name in the message so mixed
    reports stay readable.
    """
    files = iter_python_files(paths)
    stale: List[Violation] = []
    crashes: List[Crash] = []
    sources = [(str(path), _read(path)) for path in files]
    for (path_str, source) in sources:
        lines = source.splitlines()
        for tool, analyze_source in SOURCE_TOOLS:
            try:
                raw = analyze_source(
                    strip_suppression_comments(source, tool), path=path_str
                )
            except Exception as error:  # pragma: no cover - exercised via tests
                crashes.append(Crash(tool, path_str, error))
                continue
            for violation in unused_suppressions(path_str, lines, tool, raw):
                stale.append(
                    Violation(
                        violation.path,
                        violation.line,
                        violation.col,
                        violation.code,
                        f"[{tool}] {violation.message}",
                    )
                )
    stale.sort(key=lambda v: (v.path, v.line, v.col, v.message))
    return stale, crashes


def merged_document(
    per_tool: Dict[str, List[Violation]],
    files_checked: int,
    crashes: Sequence[Crash] = (),
) -> Dict[str, object]:
    """The merged findings document (shared schema + per-finding ``tool``)."""
    findings: List[Dict[str, object]] = []
    for tool, violations in per_tool.items():
        for violation in violations:
            entry: Dict[str, object] = asdict(violation)
            entry["tool"] = tool
            findings.append(entry)
    findings.sort(key=lambda f: (f["path"], f["line"], f["col"], f["code"]))
    document: Dict[str, object] = {
        "tool": "analyze",
        "schema_version": SCHEMA_VERSION,
        "count": len(findings),
        "files_checked": files_checked,
        "by_tool": {tool: len(violations) for tool, violations in per_tool.items()},
        "findings": findings,
    }
    if crashes:
        document["crashes"] = [crash.as_dict() for crash in crashes]
    return document


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the merged findings document as JSON",
    )
    parser.add_argument(
        "--check-suppressions",
        action="store_true",
        help="also flag stale '# <tool>: disable=' comments (SUP001)",
    )
    add_baseline_arguments(parser)


def run(args: argparse.Namespace) -> int:
    per_tool, files_checked, crashes = run_all(args.paths)

    if getattr(args, "check_suppressions", False):
        stale, stale_crashes = check_suppressions(args.paths)
        per_tool["suppressions"] = stale
        crashes.extend(stale_crashes)

    if getattr(args, "write_baseline", None):
        document = merged_document(per_tool, files_checked, crashes)
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"analyze: wrote baseline with {document['count']} finding(s) "
            f"to {args.write_baseline}"
        )
        return 2 if crashes else 0
    if getattr(args, "baseline", None):
        keys = load_baseline(args.baseline)
        per_tool = {
            tool: filter_baseline(violations, keys)
            for tool, violations in per_tool.items()
        }

    total = sum(len(v) for v in per_tool.values())
    if args.json:
        print(
            json.dumps(
                merged_document(per_tool, files_checked, crashes),
                indent=2,
                sort_keys=True,
            )
        )
        if crashes:
            return 2
        return 1 if total else 0

    for tool in per_tool:
        for violation in per_tool[tool]:
            print(f"{tool}: {violation.format()}")
    for crash in crashes:
        print(crash.format(), file=sys.stderr)
    summary = ", ".join(f"{tool}: {len(per_tool[tool])}" for tool in per_tool)
    if crashes:
        print(
            f"\nanalyze: {len(crashes)} tool crash(es) — "
            f"the affected files were NOT fully analyzed",
            file=sys.stderr,
        )
        return 2
    if total:
        print(f"\nanalyze: {total} violation(s) in {files_checked} file(s) ({summary})")
        return 1
    print(f"analyze: {files_checked} file(s) clean across {len(per_tool)} tools")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.analyze",
        description="Run simlint + simrace + simflow and merge their findings.",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
