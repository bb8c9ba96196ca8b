"""simflow engine: parse one file and run the flow checker over it.

Mirrors the simlint engine: parse the source once, build the shared
:class:`~repro.analysis.findings.FileContext` (the per-line
``simflow: disable=SF001`` suppression table and the sim-scope decision),
and run the flow checker (:func:`repro.analysis.simflow.model.check_module`)
over it.  All SF rules are sim-scope-only — the address-domain
discipline they police applies to the simulator layers, not to
experiment scripts tabulating results.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.findings import FileContext, Violation
from repro.analysis.simflow.model import check_module


def analyze_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    sim_scope: Optional[bool] = None,
) -> List[Violation]:
    """Analyze one source string; returns violations sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        line = error.lineno or 1
        col = (error.offset or 1) - 1
        return [Violation(path, line, col, "SF000", f"syntax error: {error.msg}")]

    context = FileContext("simflow", path, source, sim_scope=sim_scope)
    if not context.sim_scope:
        return []

    wanted = None if select is None else {code.upper() for code in select}
    violations: List[Violation] = []
    seen: Set[tuple] = set()

    def report(code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if wanted is not None and code not in wanted:
            return
        if context.suppressed(line, code):
            return
        key = (line, col, code, message)
        if key in seen:
            return
        seen.add(key)
        violations.append(Violation(path, line, col, code, message))

    check_module(tree, report)
    violations.sort(key=lambda v: (v.line, v.col, v.code))
    return violations
