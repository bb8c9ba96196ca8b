"""The analysis front end: simlint + simflow.

``python -m repro analyze [paths]`` (also ``python -m
repro.analysis.analyze``) reads each file once, runs both static-analysis
families over it and merges their findings into a single report (or,
with ``--json``, a single findings document with each finding carrying a
``tool`` field).

Exit status: 0 when clean, 1 when any tool found anything, and 2 when a
file could not be read or a tool *crashed* on it — a crash means that
file was never actually checked, so it must not be mistaken for a clean
pass.

``--check-suppressions`` audits ``# <tool>: disable=`` comments: each
tool is re-run on the same source with its suppressions neutralized and
any comment that no longer shields a finding is reported as ``SUP001``,
keeping dead markers from accumulating.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import (
    SCHEMA_VERSION,
    Violation,
    iter_python_files,
    strip_suppression_comments,
    unused_suppressions,
)
from repro.analysis.simflow.engine import analyze_source
from repro.analysis.simlint.engine import lint_source

#: The per-file analysis families, in report order: ``(name, fn)`` where
#: ``fn(source, path=...)`` returns that file's findings.
TOOLS: Tuple[Tuple[str, Callable[..., List[Violation]]], ...] = (
    ("simlint", lint_source),
    ("simflow", analyze_source),
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


def _stale_suppressions(
    tool: str, analyze: Callable[..., List[Violation]], path: str, source: str
) -> List[Violation]:
    """``tool``'s suppression comments in ``source`` that shield nothing."""
    raw = analyze(strip_suppression_comments(source, tool), path=path)
    return [
        Violation(v.path, v.line, v.col, v.code, f"[{tool}] {v.message}")
        for v in unused_suppressions(path, source.splitlines(), tool, raw)
    ]


def run_all(
    paths: Sequence[str], check_suppressions: bool = False
) -> Tuple[Dict[str, List[Violation]], int, List[Crash]]:
    """Run every tool over ``paths``, reading each file once.

    Returns ``(per-tool findings, #files, crashes)``; with
    ``check_suppressions`` the stale markers are reported under the
    ``"suppressions"`` key.  A file that cannot be read is a crash for
    every tool, and a tool raising on a file is a crash for that pair —
    recorded instead of aborting the run, so one bad file can't hide
    every other finding, but the caller must exit non-zero because the
    crashed (tool, file) pair was never actually analyzed.
    """
    files = iter_python_files(paths)
    per_tool: Dict[str, List[Violation]] = {tool: [] for tool, _ in TOOLS}
    stale: List[Violation] = []
    crashes: List[Crash] = []
    for file in files:
        path = str(file)
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            crashes.extend(Crash(tool, path, error) for tool, _ in TOOLS)
            continue
        for tool, analyze in TOOLS:
            try:
                per_tool[tool].extend(analyze(source, path=path))
                if check_suppressions:
                    stale.extend(_stale_suppressions(tool, analyze, path, source))
            except Exception as error:  # pragma: no cover - exercised via tests
                crashes.append(Crash(tool, path, error))
    if check_suppressions:
        stale.sort(key=lambda v: (v.path, v.line, v.col, v.message))
        per_tool["suppressions"] = stale
    return per_tool, len(files), crashes


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


def run(args: argparse.Namespace) -> int:
    per_tool, files_checked, crashes = run_all(
        args.paths, check_suppressions=args.check_suppressions
    )
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
        description="Run simlint + simflow and merge their findings.",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
