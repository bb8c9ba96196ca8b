"""Which functions under ``src/repro`` does no entry point reach?

Runs the full sweep (jobs=1, no cache), ``repro run table2``, ``repro race
--seeds 1``, ``repro faults --smoke``, ``repro analyze src/`` and every
script in ``examples/`` in one process under cProfile, inside a temporary
directory, then prints each function that never ran, per module, with its
line count.  The
sanitizers and the race recorder run under the test suite by design, so
their modules are skipped.  An audit, not a gate (pytest does not collect
it); takes about 4 minutes: ``PYTHONPATH=src python tests/reachability_probe.py``
"""

import ast
import contextlib
import cProfile
import io
import os
import pathlib
import pstats
import runpy
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SKIPPED_MODULES = {"repro.sim.sanitizers", "repro.sim.race"}


def defined_functions():
    """(module, path, first line, name, line count) of every def."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        if module in SKIPPED_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                lines = node.end_lineno - first + 1
                yield module, str(path), first, node.name, lines


def run_entry_points():
    from repro.__main__ import main

    main(["sweep", "--jobs", "1", "--no-cache", "--quiet", "EXPERIMENTS.md"])
    main(["run", "table2"])
    main(["race", "--seeds", "1"])
    main(["faults", "--smoke"])
    main(["analyze", str(PACKAGE.parent)])
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def main() -> None:
    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                profiler.runcall(run_entry_points)
        finally:
            os.chdir(ROOT)
    called = {(path, line, name) for path, line, name in pstats.Stats(profiler).stats}
    functions = list(defined_functions())
    unreached = [f for f in functions if (f[1], f[2], f[3]) not in called]
    by_module = {}
    for module, _path, line, name, lines in unreached:
        by_module.setdefault(module, []).append((line, name, lines))
    for module, entries in sorted(by_module.items()):
        print(f"{module} ({sum(lines for _, _, lines in entries)} lines)")
        for line, name, lines in entries:
            print(f"    {line:5d}  {name}  ({lines} lines)")
    total_lines = sum(f[4] for f in unreached)
    print(f"{len(functions)} functions, {len(unreached)} unreached, {total_lines:,} lines")


if __name__ == "__main__":
    main()
