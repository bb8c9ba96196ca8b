"""Central cell registry: every experiment as a declarative, runnable unit.

``Cell(name, fn, params)`` wraps one experiment ``run()`` call: the
function is a *top-level* callable (so it pickles by reference into pool
workers), ``params`` are the keyword arguments the cache keys on, and
``deps`` name other cells whose results this cell consumes (the scheduler
passes them as a ``deps`` mapping when the function declares that
parameter).

:func:`default_registry` builds the full paper sweep: every §5 figure and
table, the ablations and the extensions.  Table 1 and the scorecard
measure nothing themselves: they are aggregate cells whose deps are the
figure cells that measure their numbers, so they wait on those cells
while everything else fans out.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.sweep.model import CellResult


@dataclass(frozen=True)
class Cell:
    """One declaratively registered experiment unit."""

    name: str
    fn: object  # top-level callable returning CellResult; picklable by reference
    params: Mapping[str, object] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    #: ``module:function`` names of the public ``run*`` entry points this
    #: cell exercises — consumed by the registry completeness gate.
    covers: Tuple[str, ...] = ()

    @property
    def wants_deps(self) -> bool:
        try:
            return "deps" in inspect.signature(self.fn).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            return False


def call_cell(cell: Cell, dep_results: Optional[Mapping[str, CellResult]] = None) -> CellResult:
    """Execute a cell with its registered params (and deps, if declared)."""
    kwargs = dict(cell.params)
    if cell.wants_deps:
        kwargs["deps"] = dict(dep_results or {})
    result = cell.fn(**kwargs)
    if not isinstance(result, CellResult):
        raise TypeError(
            f"cell {cell.name!r} returned {type(result).__name__}, expected CellResult"
        )
    return result


class Registry:
    """An ordered collection of cells with a validated dependency DAG."""

    def __init__(self, cells: Iterable[Cell] = ()) -> None:
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            self.register(cell)

    def register(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell name {cell.name!r}")
        if not callable(cell.fn):
            raise TypeError(f"cell {cell.name!r} fn is not callable")
        self._cells[cell.name] = cell
        return cell

    def names(self) -> List[str]:
        return list(self._cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __getitem__(self, name: str) -> Cell:
        return self._cells[name]

    def __len__(self) -> int:
        return len(self._cells)

    def validate(self) -> None:
        """Check every dep exists and the dependency graph is acyclic."""
        for cell in self:
            for dep in cell.deps:
                if dep not in self._cells:
                    raise ValueError(f"cell {cell.name!r} depends on unknown cell {dep!r}")
        self.topo_order()

    def topo_order(self, names: Optional[Iterable[str]] = None) -> List[str]:
        """A topological order, stable by registration order.

        Raises ``ValueError`` on a dependency cycle.  ``names`` restricts
        the ordering to a subset (deps outside the subset are ignored —
        callers pass dependency-closed subsets from :meth:`closure`).
        """
        subset = list(self._cells if names is None else names)
        return self._stable_topo(subset, set(subset))

    def _stable_topo(self, subset: List[str], member: set) -> List[str]:
        emitted: List[str] = []
        done = set()
        pending = list(subset)
        while pending:
            progressed = False
            rest: List[str] = []
            for name in pending:
                deps = [dep for dep in self._cells[name].deps if dep in member]
                if all(dep in done for dep in deps):
                    emitted.append(name)
                    done.add(name)
                    progressed = True
                else:
                    rest.append(name)
            if not progressed:
                raise ValueError(f"dependency cycle among cells: {sorted(rest)}")
            pending = rest
        return emitted

    def closure(self, names: Iterable[str]) -> List[str]:
        """``names`` plus their transitive deps, in registration order."""
        wanted = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in wanted:
                continue
            if name not in self._cells:
                raise KeyError(f"unknown cell {name!r}")
            wanted.add(name)
            stack.extend(self._cells[name].deps)
        return [name for name in self._cells if name in wanted]

    def matching(self, patterns: Iterable[str]) -> List[str]:
        """Cells matching any glob pattern, in registration order."""
        patterns = list(patterns)
        matched = [
            name
            for name in self._cells
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)
        ]
        if not matched:
            raise ValueError(f"no cells match filter(s) {patterns!r}")
        return matched

    def select(self, patterns: Optional[Iterable[str]]) -> List[str]:
        """Cells matching any glob pattern, expanded to their dep closure."""
        if not patterns:
            return self.names()
        return self.closure(self.matching(patterns))


#: Public ``run*`` functions in ``repro.experiments`` that are deliberately
#: not sweep cells.  ``run_race_check`` is the schedule-perturbation race
#: check — a pass/fail analysis gate, not a result-producing experiment.
EXEMPT_RUNNERS = frozenset({"repro.experiments.race_check:run_race_check"})


def experiment_runners() -> List[str]:
    """Every public ``run*`` function defined in ``repro.experiments``.

    The completeness gate asserts each is covered by a registered cell or
    listed in :data:`EXEMPT_RUNNERS`, so a new figure module cannot
    silently dodge the sweep.
    """
    import repro.experiments as package

    runners: List[str] = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        for attr, value in sorted(vars(module).items()):
            if (
                attr.startswith("run")
                and callable(value)
                and getattr(value, "__module__", None) == module.__name__
            ):
                runners.append(f"{module.__name__}:{attr}")
    return sorted(runners)


def covered_runners(registry: Registry) -> set:
    covered = set()
    for cell in registry:
        covered.update(cell.covers)
    return covered


@lru_cache(maxsize=None)
def default_registry() -> Registry:
    """The full paper sweep, one registry build per process."""
    from repro.experiments import (
        ablations,
        breakdown,
        device_tech,
        fault_campaign,
        fig8,
        fig9,
        fig10,
        fig11_12,
        fig13,
        fig14,
        interference,
        scorecard,
        table1,
        table2,
        table3,
    )

    registry = Registry()

    registry.register(
        Cell("table2", table2.cell, covers=("repro.experiments.table2:run",))
    )
    registry.register(Cell("fig8", fig8.cell, covers=("repro.experiments.fig8:run",)))
    registry.register(
        Cell("fig9a", fig9.cell_a, covers=("repro.experiments.fig9:run_fig9a",))
    )
    registry.register(
        Cell("fig9b", fig9.cell_b, covers=("repro.experiments.fig9:run_fig9b",))
    )
    registry.register(Cell("fig10", fig10.cell, covers=("repro.experiments.fig10:run",)))
    registry.register(
        Cell(
            "fig11_12",
            fig11_12.cell,
            covers=(
                "repro.experiments.fig11_12:run",
                "repro.experiments.fig11_12:run_cdf",
            ),
        )
    )
    registry.register(Cell("fig13", fig13.cell, covers=("repro.experiments.fig13:run",)))
    registry.register(
        Cell("fig14", fig14.cell, covers=("repro.experiments.fig14:run_threads",))
    )
    registry.register(
        Cell(
            "fig14d",
            fig14.cell_d,
            covers=("repro.experiments.fig14:run_device_latency_sweep",),
        )
    )

    registry.register(
        Cell("table3", table3.cell, covers=("repro.experiments.table3:run",))
    )

    # The two aggregates wait on the cells whose rows they read.
    registry.register(
        Cell(
            "table1",
            table1.cell,
            deps=tuple(dict.fromkeys(cell for cell, _, _ in table1.SOURCES.values())),
            covers=("repro.experiments.table1:run",),
        )
    )
    registry.register(
        Cell(
            "scorecard",
            scorecard.cell,
            deps=tuple(dict.fromkeys(claim.cell for claim in scorecard.CLAIMS)),
            covers=("repro.experiments.scorecard:run",),
        )
    )

    for suffix, fn, runner in (
        ("promotion-policy", ablations.cell_promotion_policy, "run_promotion_policy"),
        ("plb", ablations.cell_plb, "run_plb"),
        ("cache-policy", ablations.cell_cache_policy, "run_cache_policy"),
        ("cacheable-mmio", ablations.cell_cacheable_mmio, "run_cacheable_mmio"),
        ("prefetch", ablations.cell_prefetch, "run_prefetch"),
        (
            "sequential-fairness",
            ablations.cell_sequential_fairness,
            "run_sequential_fairness",
        ),
        ("logging-scheme", ablations.cell_logging_scheme, "run_logging_scheme"),
    ):
        registry.register(
            Cell(
                f"ablations:{suffix}",
                fn,
                covers=(f"repro.experiments.ablations:{runner}",),
            )
        )

    registry.register(
        Cell(
            "device-tech", device_tech.cell, covers=("repro.experiments.device_tech:run",)
        )
    )
    registry.register(
        Cell(
            "interference",
            interference.cell,
            covers=("repro.experiments.interference:run",),
        )
    )
    registry.register(
        Cell("breakdown", breakdown.cell, covers=("repro.experiments.breakdown:run",))
    )

    # simfault campaign: one data-only cell per fault scenario (smoke
    # scale).  They contribute no markdown, only metrics, so the committed
    # EXPERIMENTS.md is byte-identical with or without them.
    for scenario in fault_campaign.SCENARIO_NAMES:
        registry.register(
            Cell(
                f"faults:{scenario}",
                fault_campaign.scenario_cell,
                params={"scenario": scenario},
                covers=("repro.experiments.fault_campaign:run_fault_campaign",),
            )
        )

    registry.validate()
    return registry
