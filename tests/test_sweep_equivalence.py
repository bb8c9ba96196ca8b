"""Serial/parallel equivalence: the tentpole guarantee of the sweep.

One full sweep runs inline (``jobs=1``) and one across a spawn-based
process pool (``jobs=2``); every cell must produce identical rows,
sections, and metrics, and the assembled EXPERIMENTS.md must be
byte-identical.  The pool deliberately uses the *spawn* start method, so
workers re-import the simulator under fresh hash seeds — any
hash-order-dependent rendering shows up here as a byte diff.  A third
inline sweep forces every trace replay down the per-row scalar reference;
its cells and document must match the fused sweep's exactly.

The sweeps dominate the suite's runtime, so they are module-scoped
fixtures computed once, with the (orthogonal, separately tested)
sanitizers switched off.
"""

import importlib

import pytest

from repro.experiments import run_all
from repro.sim import sanitizers
from repro.sweep.document import HEADER, assemble, document_cells
from repro.sweep.engine import run_sweep
from repro.sweep.model import result_hash
from repro.sweep.registry import default_registry

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def _plain_simulators():
    """Run the sweeps without the sanitizers (they are orthogonal to
    scheduling and roughly double two already-full experiment runs)."""
    previous_sanitizers = sanitizers.set_default_enabled(False)
    yield
    sanitizers.set_default_enabled(previous_sanitizers)


@pytest.fixture(scope="module")
def serial_report(_plain_simulators):
    return run_sweep(jobs=1)


@pytest.fixture(scope="module")
def pool_report(_plain_simulators):
    return run_sweep(jobs=2)


def test_every_cell_ran(serial_report, pool_report):
    names = [run.name for run in serial_report.runs]
    assert names == [run.name for run in pool_report.runs]
    assert names == default_registry().names()  # registration order, complete


@pytest.mark.parametrize("field", ["rows", "sections", "metrics"])
def test_cells_identical_inline_vs_pool(serial_report, pool_report, field):
    for name in serial_report.results:
        serial = getattr(serial_report.results[name], field)
        pooled = getattr(pool_report.results[name], field)
        assert serial == pooled, f"cell {name!r} diverged on {field}"


def test_result_hashes_identical(serial_report, pool_report):
    for name, result in serial_report.results.items():
        assert result_hash(result) == result_hash(pool_report.results[name])


def test_document_byte_identical(serial_report, pool_report):
    serial_doc = assemble(serial_report.results)
    pool_doc = assemble(pool_report.results)
    assert serial_doc == pool_doc
    assert serial_doc.startswith(HEADER)


def test_pool_runs_report_real_timings(pool_report):
    for run in pool_report.runs:
        assert not run.cached
        assert run.seconds > 0.0


def test_generate_matches_assembled_document(serial_report, monkeypatch):
    """``run_all.generate`` is a thin client of the same sweep + assembly."""
    # generate() imports run_sweep lazily, so patch it at the engine.
    monkeypatch.setattr("repro.sweep.engine.run_sweep", lambda jobs, cache: serial_report)
    assert run_all.generate() == assemble(serial_report.results)


def test_document_needs_every_cell(serial_report):
    partial = dict(serial_report.results)
    del partial[document_cells()[0]]
    with pytest.raises(KeyError):
        assemble(partial)


@pytest.fixture(scope="module")
def scalar_report(_plain_simulators):
    """The same full sweep with every replay forced down the per-row
    ``_replay_scalar`` reference: for the fixture's duration the fused
    path's guard always names a blocker."""
    # The package re-exports the replay function under the submodule's
    # name, so patch the module object itself.
    replay_module = importlib.import_module("repro.engine.replay")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            replay_module,
            "fused_blockers",
            lambda system: ["per-row reference forced by the equivalence suite"],
        )
        return run_sweep(jobs=1)


def test_engine_vs_scalar_cells_identical(serial_report, scalar_report):
    """Fused replay must not change a single cell result anywhere."""
    for name in serial_report.results:
        scalar = scalar_report.results[name]
        engine = serial_report.results[name]
        assert engine.rows == scalar.rows, f"cell {name!r} diverged on the fused path"
        assert result_hash(engine) == result_hash(scalar)


def test_engine_document_byte_identical_to_scalar(serial_report, scalar_report):
    assert assemble(serial_report.results) == assemble(scalar_report.results)


def test_engine_document_matches_seed_baseline(serial_report):
    """Zero faults + fused replay reproduces the committed EXPERIMENTS.md
    bit-for-bit (the seed baseline predates the engine entirely)."""
    import pathlib

    committed = (
        pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    ).read_text()
    assert assemble(serial_report.results) == committed
