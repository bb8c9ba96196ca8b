"""simeffect engine: whole-program runs, suppressions, and the report.

Unlike the per-file analyzers, simeffect parses *all* input files into
one :class:`~repro.analysis.simeffect.model.Program` before any rule
fires — effects flow across files, so the unit of analysis is the file
set, not the file.  Suppression comments and sim-scope gating are still
applied per finding against the file it lands in.

:func:`build_report` emits the kernel-eligibility report: every
``@kernel`` / ``@effects``-annotated function with its inferred effect
envelope, escape set, eligibility verdict, and, when not eligible,
the concrete transitive effect (with witness chain) or unresolved call
that disqualifies it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.effects import KERNEL_SAFE_EFFECTS
from repro.analysis.findings import (
    ALL_CODES,
    Violation,
    iter_python_files,
    parse_suppressions,
)
from repro.analysis.simeffect.model import Program, SPEC_SEEDS, build_program
from repro.analysis.simeffect.rules import RULES, RULES_BY_CODE
from repro.analysis.simeffect.scan import (
    fixpoint,
    kernel_scope,
    scan_program,
    transitive_unresolved,
    witness_chain,
)

TOOL = "simeffect"

#: Same simulation scope as simlint/simrace/simflow.
SIM_SCOPE_DIRS = {"sim", "ssd", "host", "core", "interconnect"}


def infer_sim_scope(path: str) -> bool:
    parts = Path(path).parts
    for index, part in enumerate(parts[:-1]):
        if part == "repro" and parts[index + 1] in SIM_SCOPE_DIRS:
            return True
    return False


def build(sources: Sequence[Tuple[str, str]]) -> Tuple[Program, List[Violation]]:
    """Parse + solve the program; returns it plus SE000 syntax findings."""
    parsed: List[Tuple[str, ast.Module, str]] = []
    errors: List[Violation] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            line = error.lineno or 1
            col = (error.offset or 1) - 1
            errors.append(Violation(path, line, col, "SE000", f"syntax error: {error.msg}"))
            continue
        parsed.append((path, tree, source))
    program = build_program(parsed)
    scan_program(program)
    fixpoint(program)
    return program, errors


def analyze_sources(
    sources: Sequence[Tuple[str, str]],
    select: Optional[Iterable[str]] = None,
    apply_suppressions: bool = True,
) -> List[Violation]:
    """Analyze (path, source) pairs as one program; sorted violations."""
    program, violations = build(sources)
    wanted = None if select is None else {code.upper() for code in select}

    suppressions: Dict[str, Dict[int, Set[str]]] = {}
    scope_by_path: Dict[str, bool] = {}
    for path, source in sources:
        scope_by_path[path] = infer_sim_scope(path)
        if apply_suppressions:
            suppressions[path] = parse_suppressions(source.splitlines(), TOOL)

    seen: Set[Tuple[str, int, int, str, str]] = set()

    def report(code: str, path: str, line: int, col: int, message: str) -> None:
        if wanted is not None and code not in wanted:
            return
        rule = RULES_BY_CODE.get(code)
        if rule is not None and rule.sim_scope_only and not scope_by_path.get(path, False):
            return
        if apply_suppressions:
            codes = suppressions.get(path, {}).get(line)
            if codes is not None and (ALL_CODES in codes or code in codes):
                return
        key = (path, line, col, code, message)
        if key in seen:
            return
        seen.add(key)
        violations.append(Violation(path, line, col, code, message))

    for rule in RULES:
        rule.check(program, report)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def read_sources(paths: Iterable[str]) -> List[Tuple[str, str]]:
    return [
        (str(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    ]


def analyze_paths(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    apply_suppressions: bool = True,
) -> List[Violation]:
    return analyze_sources(
        read_sources(paths), select=select, apply_suppressions=apply_suppressions
    )


# --------------------------------------------------------------------------
# Kernel-eligibility report (EFFECTS.json)
# --------------------------------------------------------------------------


def _short(qualname: str) -> str:
    return qualname.replace("repro.", "", 1)


def build_report(program: Program) -> Dict[str, object]:
    """The machine-readable kernel-eligibility report for EFFECTS.json."""
    scope = kernel_scope(program)
    entries: List[Dict[str, object]] = []
    for function in sorted(program.functions.values(), key=lambda f: f.qualname):
        if not function.annotated:
            continue
        effects = sorted(function.effects)
        disqualifiers: List[Dict[str, object]] = []
        for effect in sorted(set(effects) - KERNEL_SAFE_EFFECTS):
            chain = witness_chain(program, function.qualname, effect)
            disqualifiers.append(
                {
                    "effect": effect,
                    "chain": " -> ".join(_short(q) for q in chain),
                }
            )
        unresolved = transitive_unresolved(program, function.qualname)
        for holder, line, reason in unresolved:
            disqualifiers.append(
                {
                    "unresolved_call": reason,
                    "function": _short(holder),
                    "line": line,
                }
            )
        eligible = not disqualifiers
        contract = "kernel" if function.kernel is not None else "effects"
        entry: Dict[str, object] = {
            "function": _short(function.qualname),
            "module": function.module,
            "file": program.paths[function.module],
            "line": function.lineno,
            "contract": contract,
            "effects": effects,
            "raises": sorted(exc.split(".")[-1] for exc in function.raises),
            "kernel_eligible": eligible,
            "certified_kernel": eligible and function.kernel is not None,
        }
        if function.kernel is not None:
            entry["allow"] = sorted(function.kernel["allow"])
            entry["may_raise"] = sorted(function.kernel["may_raise"])
        if function.declared_effects is not None:
            entry["declared_effects"] = sorted(function.declared_effects)
        if disqualifiers:
            entry["disqualifiers"] = disqualifiers
        entries.append(entry)

    certified = [e["function"] for e in entries if e["certified_kernel"]]
    eligible_only = [
        e["function"] for e in entries if e["kernel_eligible"] and not e["certified_kernel"]
    ]
    return {
        "tool": TOOL,
        "schema_version": 1,
        "kernel_safe_effects": sorted(KERNEL_SAFE_EFFECTS),
        "seeded_primitives": sorted(SPEC_SEEDS),
        "summary": {
            "annotated": len(entries),
            "certified_kernels": len(certified),
            "eligible_not_declared": len(eligible_only),
            "disqualified": len(entries) - len(certified) - len(eligible_only),
            "kernel_scope_functions": len(scope),
        },
        "certified": sorted(certified),
        "functions": entries,
    }


def report_for_paths(paths: Iterable[str]) -> Dict[str, object]:
    program, _errors = build(read_sources(paths))
    return build_report(program)
