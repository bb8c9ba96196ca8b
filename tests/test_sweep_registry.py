"""Registry invariants: unique names, completeness, and an acyclic DAG.

The property-based half builds random registries (acyclic by
construction, or with a deliberately injected cycle) and checks the
structural guarantees every sweep run leans on: topological order always
places dependencies first, closures are dependency-closed, and cycles
are detected rather than spun on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.document import document_cells
from repro.sweep.model import CellResult
from repro.sweep.registry import (
    EXEMPT_RUNNERS,
    Cell,
    Registry,
    call_cell,
    covered_runners,
    default_registry,
    experiment_runners,
)


def _noop() -> CellResult:
    return CellResult()


class TestDefaultRegistry:
    def test_validates(self):
        default_registry().validate()

    def test_names_unique_by_construction(self):
        registry = default_registry()
        names = registry.names()
        assert len(names) == len(set(names))

    def test_duplicate_registration_rejected(self):
        registry = Registry([Cell("a", _noop)])
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(Cell("a", _noop))

    def test_non_callable_fn_rejected(self):
        with pytest.raises(TypeError):
            Registry([Cell("a", "not-a-function")])

    def test_completeness_every_runner_covered_or_exempt(self):
        """A new ``run*`` entry point in repro.experiments must either be
        wired into the sweep or explicitly exempted — no silent gaps."""
        runners = set(experiment_runners())
        covered = covered_runners(default_registry())
        uncovered = runners - covered - EXEMPT_RUNNERS
        assert not uncovered, f"experiment runners missing from the sweep: {sorted(uncovered)}"

    def test_covers_and_exemptions_reference_real_runners(self):
        runners = set(experiment_runners())
        covered = covered_runners(default_registry())
        assert covered <= runners, f"stale covers: {sorted(covered - runners)}"
        assert EXEMPT_RUNNERS <= runners, f"stale exemptions: {sorted(EXEMPT_RUNNERS - runners)}"

    def test_aggregates_wait_on_their_inputs(self):
        """Table 1 and the scorecard read the figure cells that measure
        their numbers; they run no measurement of their own."""
        registry = default_registry()
        order = registry.topo_order()
        assert set(registry["table1"].deps) == {"fig9a", "fig10", "fig11_12", "fig13", "fig14"}
        assert set(registry["scorecard"].deps) == {"fig9a", "fig11_12", "fig13", "fig14", "table3"}
        for aggregate in ("table1", "scorecard"):
            for dep in registry[aggregate].deps:
                assert order.index(dep) < order.index(aggregate)

    def test_document_references_registered_cells(self):
        registry = default_registry()
        for name in document_cells():
            assert name in registry

    def test_select_expands_to_dep_closure(self):
        registry = default_registry()
        selected = registry.select(["table1"])
        assert "table1" in selected
        for dep in registry["table1"].deps:
            assert dep in selected

    def test_select_unknown_pattern_raises(self):
        with pytest.raises(ValueError, match="no cells match"):
            default_registry().select(["no-such-cell-*"])

    def test_call_cell_type_checks(self):
        bad = Cell("bad", lambda: "not a CellResult")
        with pytest.raises(TypeError, match="expected CellResult"):
            call_cell(bad)


# ------------------------------------------------------------ properties


@st.composite
def acyclic_registries(draw):
    """A registry whose cells only depend on earlier registrations."""
    count = draw(st.integers(min_value=1, max_value=8))
    cells = []
    for index in range(count):
        pool = [f"c{j}" for j in range(index)]
        deps = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)) if pool else []
        cells.append(Cell(f"c{index}", _noop, deps=tuple(deps)))
    return Registry(cells)


@settings(max_examples=50, deadline=None)
@given(acyclic_registries())
def test_topo_order_places_deps_first(registry):
    order = registry.topo_order()
    assert sorted(order) == sorted(registry.names())
    for cell in registry:
        for dep in cell.deps:
            assert order.index(dep) < order.index(cell.name)


@settings(max_examples=50, deadline=None)
@given(acyclic_registries(), st.data())
def test_closure_is_dependency_closed(registry, data):
    roots = data.draw(
        st.lists(st.sampled_from(registry.names()), min_size=1, unique=True)
    )
    closed = set(registry.closure(roots))
    assert set(roots) <= closed
    for name in closed:
        assert set(registry[name].deps) <= closed


@settings(max_examples=50, deadline=None)
@given(acyclic_registries(), st.data())
def test_subset_topo_consistent_with_full_order(registry, data):
    roots = data.draw(
        st.lists(st.sampled_from(registry.names()), min_size=1, unique=True)
    )
    subset = registry.closure(roots)
    order = registry.topo_order(subset)
    assert sorted(order) == sorted(subset)
    for name in order:
        for dep in registry[name].deps:
            if dep in subset:
                assert order.index(dep) < order.index(name)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_cycles_are_detected(length):
    cells = [
        Cell(f"c{i}", _noop, deps=(f"c{(i + 1) % length}",)) for i in range(length)
    ]
    registry = Registry(cells)
    with pytest.raises(ValueError, match="cycle"):
        registry.topo_order()
    with pytest.raises(ValueError, match="cycle"):
        registry.validate()


def test_unknown_dep_rejected_by_validate():
    registry = Registry([Cell("a", _noop, deps=("ghost",))])
    with pytest.raises(ValueError, match="unknown cell"):
        registry.validate()
