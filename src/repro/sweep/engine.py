"""The sweep scheduler: dependency-aware, serial or process-parallel.

``run_sweep`` executes a (possibly filtered) set of registered cells.
Cells with no unfinished dependencies run immediately; aggregate cells
(Table 1, the scorecard) wait for the figure cells they read and receive
them as a ``deps`` mapping.  With ``jobs > 1`` independent cells fan out across a
``ProcessPoolExecutor``; the **spawn** start method is used deliberately
so workers re-import everything under a fresh hash seed — any
hash-order-dependent output would break the byte-identity the test suite
asserts, instead of hiding behind ``fork``'s inherited seed.

Results are reported in registration order regardless of completion
order, so a parallel sweep is observably identical to a serial one
(modulo wall-clock timings).  The simulator itself is single-threaded
and deterministic per cell; parallelism never crosses a cell boundary.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.sim import sanitizers
from repro.sweep.cache import KeyBuilder, SweepCache
from repro.sweep.model import CellResult, result_hash
from repro.sweep.registry import Cell, Registry, call_cell, default_registry


@dataclass
class CellRun:
    """One executed (or cache-replayed) cell in a sweep."""

    name: str
    result: CellResult
    seconds: float
    cached: bool
    key: Optional[str] = None


@dataclass
class SweepReport:
    """Everything one sweep produced, in registration order."""

    runs: List[CellRun] = field(default_factory=list)
    jobs: int = 1
    total_seconds: float = 0.0

    @property
    def results(self) -> Dict[str, CellResult]:
        return {run.name: run.result for run in self.runs}

    def run_for(self, name: str) -> CellRun:
        for run in self.runs:
            if run.name == name:
                return run
        raise KeyError(f"no cell {name!r} in this sweep")


def _worker_init(sanitizers_on: bool) -> None:
    """Propagate the parent's process-wide sanitizer switch into a spawn worker."""
    sanitizers.set_default_enabled(sanitizers_on)


def _pool_execute(
    cell: Cell, dep_results: Optional[Mapping[str, CellResult]]
) -> "tuple[CellResult, float]":
    started = time.perf_counter()
    result = call_cell(cell, dep_results)
    return result, time.perf_counter() - started


def run_sweep(
    registry: Optional[Registry] = None,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[CellRun], None]] = None,
) -> SweepReport:
    """Run the selected cells and return their results.

    ``only`` holds glob patterns over cell names; the selection is always
    expanded to its transitive dependency closure so aggregates can run.
    ``progress`` is invoked once per finished cell, in completion order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if registry is None:
        registry = default_registry()
    registry.validate()
    selected = registry.select(only)
    order = registry.topo_order(selected)
    position = {name: index for index, name in enumerate(registry.names())}

    dependents: Dict[str, List[str]] = {name: [] for name in order}
    waiting: Dict[str, int] = {}
    member = set(order)
    for name in order:
        deps = [dep for dep in registry[name].deps if dep in member]
        waiting[name] = len(deps)
        for dep in deps:
            dependents[dep].append(name)

    builder = KeyBuilder()
    completed: Dict[str, CellResult] = {}
    hashes: Dict[str, str] = {}
    runs: Dict[str, CellRun] = {}
    ready: List[str] = [name for name in order if waiting[name] == 0]

    def _complete(run: CellRun) -> None:
        runs[run.name] = run
        completed[run.name] = run.result
        hashes[run.name] = result_hash(run.result)
        for dependent in dependents[run.name]:
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                ready.append(dependent)
        if progress is not None:
            progress(run)

    started = time.perf_counter()
    pool: Optional[ProcessPoolExecutor] = None
    if jobs > 1:
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(sanitizers.default_enabled(),),
        )
    try:
        in_flight: Dict[object, "tuple[str, Optional[str]]"] = {}
        while len(runs) < len(order):
            while ready:
                ready.sort(key=position.__getitem__)
                name = ready.pop(0)
                cell = registry[name]
                key = builder.key(cell, hashes) if cache is not None else None
                if cache is not None:
                    hit = cache.load(name, key)
                    if hit is not None:
                        _complete(CellRun(name, hit, 0.0, True, key))
                        continue
                dep_results = (
                    {dep: completed[dep] for dep in cell.deps}
                    if cell.wants_deps
                    else None
                )
                if pool is None:
                    result, seconds = _pool_execute(cell, dep_results)
                    if cache is not None:
                        cache.store(name, key, result)
                    _complete(CellRun(name, result, seconds, False, key))
                else:
                    future = pool.submit(_pool_execute, cell, dep_results)
                    in_flight[future] = (name, key)
            if len(runs) < len(order) and in_flight:
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    name, key = in_flight.pop(future)
                    result, seconds = future.result()
                    if cache is not None:
                        cache.store(name, key, result)
                    _complete(CellRun(name, result, seconds, False, key))
            elif len(runs) < len(order) and not ready and not in_flight:
                # Unreachable for a validated registry; guard against hangs.
                missing = sorted(set(order) - set(runs))
                raise RuntimeError(f"sweep stalled with unrunnable cells: {missing}")
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    ordered = sorted(runs.values(), key=lambda run: position[run.name])
    return SweepReport(
        runs=ordered, jobs=jobs, total_seconds=time.perf_counter() - started
    )
