"""Atomic document writes and the ``python -m repro sweep`` CLI surface."""

import json
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.sweep.document import write_document


class TestAtomicWrites:
    def test_write_document_replaces(self, tmp_path):
        target = tmp_path / "out.md"
        write_document(target, "first\n")
        write_document(target, "second\n")
        assert target.read_text() == "second\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_preserves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "out.md"
        target.write_text("original\n")

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.sweep.document.os.replace", explode)
        with pytest.raises(OSError, match="disk full"):
            write_document(target, "replacement\n")
        assert target.read_text() == "original\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_sweep_is_atomic(self, tmp_path, monkeypatch):
        """An interrupted regeneration can't truncate EXPERIMENTS.md."""
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text("previous good content\n")

        def exploding(**_kwargs):
            raise RuntimeError("experiment blew up")

        monkeypatch.setattr("repro.sweep.engine.run_sweep", exploding)
        with pytest.raises(RuntimeError):
            main(["sweep", str(target), "--jobs", "1", "--no-cache"])
        assert target.read_text() == "previous good content\n"

    @staticmethod
    def _stub_full_sweep(monkeypatch, content):
        """A sweep that yields ``content`` as the whole document."""
        report = SimpleNamespace(runs=[], results={}, total_seconds=0.0)
        monkeypatch.setattr("repro.sweep.engine.run_sweep", lambda **_kwargs: report)
        monkeypatch.setattr("repro.sweep.document.document_cells", lambda: [])
        monkeypatch.setattr("repro.sweep.document.assemble", lambda results: content)

    def test_sweep_writes_output(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        self._stub_full_sweep(monkeypatch, "# stub\n")
        main(["sweep", str(target), "--jobs", "1", "--no-cache"])
        assert target.read_text() == "# stub\n"
        assert "wrote" in capsys.readouterr().out

    def test_cli_sweep_is_atomic(self, tmp_path, monkeypatch):
        target = tmp_path / "out.md"
        target.write_text("old\n")
        self._stub_full_sweep(monkeypatch, "new\n")
        monkeypatch.setattr(
            "repro.sweep.document.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            main(["sweep", str(target), "--jobs", "1", "--no-cache"])
        assert target.read_text() == "old\n"


class TestSweepCLI:
    def test_filtered_sweep_with_bench_artifact(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bench = tmp_path / "BENCH_sweep.json"
        code = main(
            [
                "sweep",
                "--filter",
                "table2",
                "--jobs",
                "1",
                "--json",
                str(bench),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table2" in out
        # A filtered sweep must not write a partial document.
        assert not (tmp_path / "EXPERIMENTS.md").exists()
        assert "not written" in out
        payload = json.loads(bench.read_text())
        assert payload["schema"] == "flatflash-sweep-bench/1"
        assert payload["jobs"] == 1
        assert [cell["name"] for cell in payload["cells"]] == ["table2"]
        assert payload["cells"][0]["rows"] > 0
        assert payload["headline"]["scorecard_verdicts"] is None

    def test_filtered_sweep_uses_cache_on_rerun(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["sweep", "--filter", "table2", "--jobs", "1", "--cache-dir", "cache"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 cache hit(s)" in capsys.readouterr().out

    def test_no_cache_writes_nothing_to_disk(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["sweep", "--filter", "table2", "--jobs", "1", "--no-cache", "--quiet"]
        )
        assert code == 0
        assert not (tmp_path / ".sweep-cache").exists()
        assert "0 cache hit(s)" in capsys.readouterr().out

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--jobs", "0"])

    def test_unknown_filter_errors(self, tmp_path, monkeypatch, capsys):
        """A filter that matches no cell is a one-line usage error."""
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--filter", "nonexistent-*", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no cells match" in err
