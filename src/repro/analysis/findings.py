"""Shared findings plumbing for the repo's two static analyzers.

:mod:`repro.analysis.simlint` (single-function syntax-level rules) and
:mod:`repro.analysis.simflow` (address-domain and unit flow) report
through one schema and one per-file context, so the
:mod:`repro.analysis.analyze` front end can merge them:

* :class:`Violation` — one finding at a source location, with a stable
  rule code (``SL###`` / ``SF###``).
* :class:`FileContext` — one file's path, its ``# <tool>: disable=CODE``
  suppression table and its simulation-scope decision
  (:func:`infer_sim_scope`, the one sim-scope rule both tools apply).
* :func:`strip_suppression_comments` / :func:`unused_suppressions` —
  stale-suppression detection (``SUP001``): re-run a tool with
  suppressions neutralized and flag the comments that no longer shield
  any finding, so dead ``disable=`` markers can't accumulate.
* :func:`iter_python_files` — file/directory expansion for the front end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: Version of the shared findings JSON schema; bump on breaking changes.
SCHEMA_VERSION = 1

#: Marker meaning "every rule suppressed on this line".
ALL_CODES = "*"


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _suppress_re(tool: str) -> "re.Pattern[str]":
    return re.compile(
        rf"#\s*{re.escape(tool)}:\s*disable(?:=(?P<codes>[A-Za-z0-9_, ]+))?"
    )


def parse_suppressions(lines: Sequence[str], tool: str) -> Dict[int, Set[str]]:
    """Per-line suppression table for ``# <tool>: disable[=C1,C2]`` comments."""
    pattern = _suppress_re(tool)
    table: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = pattern.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            table[number] = {ALL_CODES}
        else:
            table[number] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return table


#: Layers under ``repro/`` whose files are in the simulation scope: the
#: rules about wall-clock time, RNG seeding, ns units and address domains
#: apply only here (workloads/experiments may legitimately use other units).
SIM_SCOPE_DIRS = {"sim", "ssd", "host", "core", "interconnect"}


def in_repro_layer(path: str, layers: Iterable[str]) -> bool:
    """True when ``path`` lives under ``repro/<layer>/`` for one of ``layers``."""
    parts = Path(path).parts
    return any(
        part == "repro" and parts[index + 1] in layers
        for index, part in enumerate(parts[:-1])
    )


def infer_sim_scope(path: str) -> bool:
    """A file is in simulation scope when it lives under one of the
    :data:`SIM_SCOPE_DIRS` layers."""
    return in_repro_layer(path, SIM_SCOPE_DIRS)


class FileContext:
    """One file under analysis by ``tool``: its path, the tool's
    suppression table and the simulation-scope decision."""

    def __init__(
        self, tool: str, path: str, source: str, sim_scope: Optional[bool] = None
    ) -> None:
        self.path = path
        self.suppressions = parse_suppressions(source.splitlines(), tool)
        self.sim_scope = infer_sim_scope(path) if sim_scope is None else sim_scope

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(line)
        return codes is not None and (ALL_CODES in codes or code in codes)


#: Rule code for a suppression comment that suppresses nothing.
UNUSED_SUPPRESSION_CODE = "SUP001"


def strip_suppression_comments(source: str, tool: str) -> str:
    """Neutralize every ``# <tool>: disable`` comment in ``source``.

    Each marker is replaced by a bare ``#`` so line numbers (and the fact
    that the tail of the line is a comment) are preserved; re-running a
    tool over the stripped source yields the findings the suppressions
    were hiding.
    """
    pattern = _suppress_re(tool)
    return "\n".join(pattern.sub("#", line) for line in source.splitlines())


def unused_suppressions(
    path: str,
    lines: Sequence[str],
    tool: str,
    raw_violations: Sequence[Violation],
) -> List[Violation]:
    """Suppression comments in ``lines`` that shield no actual finding.

    ``raw_violations`` must be the tool's findings for this file with
    suppressions *disabled* (e.g. via :func:`strip_suppression_comments`).
    Returns one ``SUP001`` violation per stale comment: either no finding
    exists on the line at all, or specific codes are listed and none of
    them fires there.
    """
    table = parse_suppressions(lines, tool)
    by_line: Dict[int, Set[str]] = {}
    for violation in raw_violations:
        if violation.path == path:
            by_line.setdefault(violation.line, set()).add(violation.code)
    stale: List[Violation] = []
    for number in sorted(table):
        codes = table[number]
        fired = by_line.get(number, set())
        if ALL_CODES in codes:
            if not fired:
                stale.append(
                    Violation(
                        path,
                        number,
                        0,
                        UNUSED_SUPPRESSION_CODE,
                        f"unused suppression: no {tool} finding on this line",
                    )
                )
            continue
        unused = sorted(codes - fired)
        if unused:
            stale.append(
                Violation(
                    path,
                    number,
                    0,
                    UNUSED_SUPPRESSION_CODE,
                    (
                        f"unused suppression: {', '.join(unused)} "
                        f"never fire(s) on this line"
                    ),
                )
            )
    return stale


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files.

    A path that does not exist is kept as is, so reading it fails like any
    unreadable file (exit 2) instead of the run passing it unchecked.
    """
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" or not path.exists():
            out.append(path)
    return out
