"""simlint engine: parse one file and dispatch every rule over it.

The engine is deliberately small — it parses the source once, builds the
shared :class:`~repro.analysis.findings.FileContext` (the per-line
``simlint: disable=SL001`` suppression table and the *simulation scope*
decision), and hands the AST to every registered rule.  Rules live in
:mod:`repro.analysis.simlint.rules`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.findings import FileContext, Violation


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    sim_scope: Optional[bool] = None,
) -> List[Violation]:
    """Lint one source string; returns violations sorted by location."""
    from repro.analysis.simlint.rules import RULES

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        line = error.lineno or 1
        col = (error.offset or 1) - 1
        return [Violation(path, line, col, "SL000", f"syntax error: {error.msg}")]

    wanted = None if select is None else {code.upper() for code in select}
    context = FileContext("simlint", path, source, sim_scope=sim_scope)
    violations: List[Violation] = []
    for rule in RULES:
        if wanted is not None and rule.code not in wanted:
            continue
        if rule.sim_scope_only and not context.sim_scope:
            continue
        for violation in rule.check(tree, context):
            if not context.suppressed(violation.line, violation.code):
                violations.append(violation)
    violations.sort(key=lambda v: (v.line, v.col, v.code))
    return violations
