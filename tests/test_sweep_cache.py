"""Cache correctness: hits, the four miss triggers, and damage recovery.

The synthetic cells below count their executions so every test can
assert not just the ``cached`` flag but that the expensive function
genuinely did or did not run.
"""

import importlib
import sys
import textwrap

import pytest

from repro.config import FlatFlashConfig, LatencyConfig
from repro.sweep.cache import (
    CACHE_FORMAT,
    KeyBuilder,
    SweepCache,
    clear,
    config_fingerprint,
)
from repro.sweep.engine import run_sweep
from repro.sweep.model import CellResult
from repro.sweep.registry import Cell, Registry

CALLS = {"alpha": 0, "agg": 0}


def _cell_alpha(scale: int = 1) -> CellResult:
    CALLS["alpha"] += 1
    return CellResult(
        sections=[f"alpha section, scale {scale}\n"],
        rows=[{"scale": scale, "value": 10 * scale}],
        metrics={"value": 10 * scale},
    )


def _cell_agg(deps) -> CellResult:
    CALLS["agg"] += 1
    total = sum(row["value"] for dep in deps.values() for row in dep.rows)
    return CellResult(rows=[{"total": total}], metrics={"total": total})


def _registry(scale: int = 1) -> Registry:
    return Registry(
        [
            Cell("alpha", _cell_alpha, params={"scale": scale}),
            Cell("agg", _cell_agg, deps=("alpha",)),
        ]
    )


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS["alpha"] = 0
    CALLS["agg"] = 0


class TestEngineCaching:
    def test_hit_on_unchanged_rerun(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        first = run_sweep(_registry(), cache=cache)
        second = run_sweep(_registry(), cache=cache)
        assert [run.cached for run in first.runs] == [False, False]
        assert [run.cached for run in second.runs] == [True, True]
        assert CALLS == {"alpha": 1, "agg": 1}
        assert first.results["agg"].rows == second.results["agg"].rows
        assert first.results["alpha"].sections == second.results["alpha"].sections

    def test_param_change_misses(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(_registry(scale=1), cache=cache)
        report = run_sweep(_registry(scale=2), cache=cache)
        assert not report.run_for("alpha").cached
        assert report.results["alpha"].rows == [{"scale": 2, "value": 20}]

    def test_dep_result_change_invalidates_aggregate(self, tmp_path):
        """The aggregate's params never changed — only its input did."""
        cache = SweepCache(tmp_path / "cache")
        run_sweep(_registry(scale=1), cache=cache)
        report = run_sweep(_registry(scale=3), cache=cache)
        assert not report.run_for("agg").cached
        assert report.results["agg"].rows == [{"total": 30}]

    def test_no_cache_recomputes_every_time(self, tmp_path):
        run_sweep(_registry(), cache=None)
        run_sweep(_registry(), cache=None)
        assert CALLS == {"alpha": 2, "agg": 2}
        assert not (tmp_path / "cache").exists()

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        run_sweep(_registry(), cache=cache)
        for key in cache.keys():
            cache._entry_path(key).write_bytes(b"\x00 definitely not a pickle")
        report = run_sweep(_registry(), cache=cache)
        assert [run.cached for run in report.runs] == [False, False]
        assert report.results["alpha"].rows == [{"scale": 1, "value": 10}]
        # The damaged entries were rewritten: a third run hits again.
        third = run_sweep(_registry(), cache=cache)
        assert [run.cached for run in third.runs] == [True, True]


class TestSweepCacheStore:
    def test_renamed_entry_is_not_served(self, tmp_path):
        """An entry whose recorded key disagrees with its address is stale."""
        cache = SweepCache(tmp_path)
        result = CellResult(rows=[{"x": 1}])
        cache.store("alpha", "a" * 64, result)
        (tmp_path / ("a" * 64 + ".pkl")).rename(tmp_path / ("b" * 64 + ".pkl"))
        assert cache.load("alpha", "b" * 64) is None

    def test_wrong_cell_name_is_not_served(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("alpha", "a" * 64, CellResult(rows=[{"x": 1}]))
        assert cache.load("beta", "a" * 64) is None

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert SweepCache(tmp_path).load("alpha", "0" * 64) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("alpha", "a" * 64, CellResult())
        cache.store("beta", "c" * 64, CellResult())
        assert clear(tmp_path) == 2
        assert cache.keys() == []

    def test_format_bump_orphans_entries(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        cache.store("alpha", "a" * 64, CellResult(rows=[{"x": 1}]))
        monkeypatch.setattr("repro.sweep.cache.CACHE_FORMAT", CACHE_FORMAT + 1)
        assert cache.load("alpha", "a" * 64) is None


class TestKeyIngredients:
    def test_config_fingerprint_sees_latency_table(self):
        base = config_fingerprint(FlatFlashConfig())
        edited = config_fingerprint(
            FlatFlashConfig(latency=LatencyConfig(flash_read_page_ns=21_000))
        )
        assert base != edited

    def test_key_differs_across_configs(self):
        cell = Cell("alpha", _cell_alpha)
        default = KeyBuilder().key(cell, {})
        tweaked = KeyBuilder(
            config=FlatFlashConfig(latency=LatencyConfig(flash_read_page_ns=21_000))
        ).key(cell, {})
        assert default != tweaked

    def test_key_differs_across_dep_hashes(self):
        cell = Cell("agg", _cell_agg, deps=("alpha",))
        builder = KeyBuilder()
        assert builder.key(cell, {"alpha": "x" * 64}) != builder.key(
            cell, {"alpha": "y" * 64}
        )

    def test_source_edit_invalidates(self, tmp_path, monkeypatch):
        """Editing any module in the cell's import closure changes the key."""
        package = tmp_path / "fakepkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "helper.py").write_text("ANSWER = 41\n")
        (package / "cells.py").write_text(
            textwrap.dedent(
                """
                from fakepkg import helper

                def make():
                    return helper.ANSWER
                """
            )
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("fakepkg.cells")
        try:
            cell = Cell("fake", module.make)
            before = KeyBuilder(prefix="fakepkg").key(cell, {})
            # A fresh builder re-reads sources, exactly like a new sweep run.
            unchanged = KeyBuilder(prefix="fakepkg").key(cell, {})
            assert before == unchanged
            # Edit a transitively imported module, not the cell's own file.
            (package / "helper.py").write_text("ANSWER = 42\n")
            after = KeyBuilder(prefix="fakepkg").key(cell, {})
            assert before != after
        finally:
            for name in list(sys.modules):
                if name == "fakepkg" or name.startswith("fakepkg."):
                    del sys.modules[name]

    def test_closure_follows_transitive_imports(self):
        builder = KeyBuilder()
        closure = builder.module_closure("repro.experiments.fig8")
        assert "repro.experiments.fig8" in closure
        assert "repro.experiments.common" in closure
        assert "repro.config" in closure  # via common's transitive imports
