"""Shared findings plumbing: stale suppressions, crash handling, the CLI.

Covers the edge cases the per-tool suites don't: the ``SUP001``
stale-suppression audit, and the ``repro analyze`` front end's exit-code
contract when a file is unreadable or an analyzer crashes mid-run.
"""

import argparse
import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import analyze
from repro.analysis.findings import (
    ALL_CODES,
    UNUSED_SUPPRESSION_CODE,
    Violation,
    parse_suppressions,
    strip_suppression_comments,
    unused_suppressions,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _violation(path="repro/sim/x.py", line=5, col=0, code="SL001", message="msg"):
    return Violation(path, line, col, code, message)


# --------------------------------------------------------------------- #
# Suppression stripping + stale-suppression detection (SUP001)
# --------------------------------------------------------------------- #


class TestSuppressionAudit:
    def test_strip_preserves_line_numbers(self):
        source = "a = 1\nb = 2  # simlint: disable=SL001\nc = 3\n"
        stripped = strip_suppression_comments(source, "simlint")
        assert len(stripped.splitlines()) == 3
        assert parse_suppressions(stripped.splitlines(), "simlint") == {}
        # the non-marker part of the line is intact
        assert stripped.splitlines()[1].startswith("b = 2  #")

    def test_strip_only_touches_the_named_tool(self):
        source = "x = 1  # simflow: disable=SF001\n"
        assert strip_suppression_comments(source, "simlint") == source.rstrip("\n")

    def test_stale_blanket_marker_is_flagged(self):
        lines = ["x = 1  # simlint: disable"]
        stale = unused_suppressions("p.py", lines, "simlint", [])
        assert [v.code for v in stale] == [UNUSED_SUPPRESSION_CODE]
        assert "no simlint finding" in stale[0].message

    def test_used_blanket_marker_is_quiet(self):
        lines = ["x = 1  # simlint: disable"]
        raw = [_violation(path="p.py", line=1)]
        assert unused_suppressions("p.py", lines, "simlint", raw) == []

    def test_partially_stale_code_list(self):
        lines = ["x = 1  # simlint: disable=SL001,SL009"]
        raw = [_violation(path="p.py", line=1, code="SL001")]
        stale = unused_suppressions("p.py", lines, "simlint", raw)
        assert len(stale) == 1
        assert "SL009" in stale[0].message
        assert "SL001" not in stale[0].message

    def test_findings_from_other_files_do_not_count(self):
        lines = ["x = 1  # simlint: disable=SL001"]
        raw = [_violation(path="other.py", line=1, code="SL001")]
        stale = unused_suppressions("p.py", lines, "simlint", raw)
        assert [v.code for v in stale] == [UNUSED_SUPPRESSION_CODE]

    def test_all_codes_marker_constant(self):
        table = parse_suppressions(["y = 2  # simflow: disable"], "simflow")
        assert table == {1: {ALL_CODES}}


# --------------------------------------------------------------------- #
# Umbrella: --check-suppressions end to end
# --------------------------------------------------------------------- #


def _run_analyze(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.analyze", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC)},
    )


class TestCheckSuppressionsCLI:
    def test_stale_marker_fails_the_run(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "stale.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def fine(a, b):\n"
            "    return a + b  # simlint: disable=SL003\n"
        )
        result = _run_analyze(["--check-suppressions", "repro"], tmp_path)
        assert result.returncode == 1
        assert "SUP001" in result.stdout
        assert "[simlint]" in result.stdout

    def test_used_marker_passes(self, tmp_path):
        # SL004: _us-suffixed timing name in sim scope — really fires here,
        # so its suppression is *used* and the audit stays quiet.
        used = tmp_path / "repro" / "sim" / "used.py"
        used.parent.mkdir(parents=True)
        used.write_text(
            "def cost(latency_ns):\n"
            "    latency_us = latency_ns // 1000  # simlint: disable=SL004\n"
            "    return latency_us\n"
        )
        plain = _run_analyze(["repro"], tmp_path)
        assert plain.returncode == 0, plain.stdout + plain.stderr
        audited = _run_analyze(["--check-suppressions", "repro"], tmp_path)
        assert audited.returncode == 0, audited.stdout + audited.stderr

    def test_repo_tree_has_no_stale_suppressions(self):
        per_tool, _, crashes = analyze.run_all(
            [str(SRC / "repro")], check_suppressions=True
        )
        assert crashes == []
        stale = per_tool["suppressions"]
        assert stale == [], "\n".join(v.format() for v in stale)


# --------------------------------------------------------------------- #
# Crash handling: a crashing analyzer must not look like a clean pass
# --------------------------------------------------------------------- #


def _boom(source, path):
    raise RuntimeError("boom")


class TestCrashHandling:
    @pytest.fixture()
    def tree(self, tmp_path):
        good = tmp_path / "repro" / "sim" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("def distance(a, b):\n    return a - b\n")
        return tmp_path

    def test_run_all_records_crashes(self, tree, monkeypatch):
        monkeypatch.setattr(
            analyze, "TOOLS", analyze.TOOLS + (("simboom", _boom),)
        )
        per_tool, files, crashes = analyze.run_all([str(tree / "repro")])
        assert files == 1
        assert len(crashes) == 1
        assert crashes[0].tool == "simboom"
        assert "RuntimeError: boom" in crashes[0].error
        # the other tools still report their (empty) results
        assert set(per_tool) == {"simlint", "simflow", "simboom"}

    def test_run_exits_2_on_crash(self, tree, monkeypatch, capsys):
        monkeypatch.setattr(
            analyze, "TOOLS", analyze.TOOLS + (("simboom", _boom),)
        )
        args = argparse.Namespace(
            paths=[str(tree / "repro")], json=False, check_suppressions=False
        )
        assert analyze.run(args) == 2
        err = capsys.readouterr().err
        assert "CRASH" in err
        assert "NOT fully analyzed" in err

    def test_json_document_carries_crashes(self, tree, monkeypatch, capsys):
        monkeypatch.setattr(
            analyze, "TOOLS", analyze.TOOLS + (("simboom", _boom),)
        )
        args = argparse.Namespace(
            paths=[str(tree / "repro")], json=True, check_suppressions=False
        )
        assert analyze.run(args) == 2
        payload = json.loads(capsys.readouterr().out)
        (crash,) = payload["crashes"]
        assert crash["tool"] == "simboom"
        assert "boom" in crash["error"]

    def test_clean_run_without_crashes_exits_0(self, tree):
        args = argparse.Namespace(
            paths=[str(tree / "repro")], json=False, check_suppressions=False
        )
        assert analyze.run(args) == 0


# --------------------------------------------------------------------- #
# CLI edge cases, with and without the suppression audit
# --------------------------------------------------------------------- #

AUDIT_MODES = pytest.mark.parametrize(
    "audit", [[], ["--check-suppressions"]], ids=["plain", "audit"]
)


class TestAnalyzeEdgeCases:
    """The front end's exit codes for degenerate inputs:

    * an empty target directory is a *clean pass* (0), not an error;
    * an unreadable or missing input is a CRASH (exit 2) reported on
      stderr — never a silent "clean", a finding (1) or a traceback.
    """

    @AUDIT_MODES
    def test_missing_path_exits_2(self, audit, tmp_path):
        missing = tmp_path / "no" / "such" / "dir"
        result = _run_analyze([*audit, str(missing)], tmp_path)
        assert result.returncode == 2, result.stdout + result.stderr
        assert str(missing) in result.stderr
        assert "clean" not in result.stdout
        assert "Traceback" not in result.stderr

    @AUDIT_MODES
    def test_empty_directory_is_clean(self, audit, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = _run_analyze([*audit, str(empty)], tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 file(s) clean" in result.stdout

    @AUDIT_MODES
    def test_unreadable_file_exits_2(self, audit, tmp_path):
        # A directory named *.py: collected by the file walk, unreadable
        # as source.  (chmod tricks don't work when tests run as root.)
        target = tmp_path / "tree"
        (target / "trap.py").mkdir(parents=True)
        result = _run_analyze([*audit, str(target)], tmp_path)
        assert result.returncode == 2, result.stdout + result.stderr
        assert "CRASH" in result.stderr
        assert "Traceback" not in result.stderr

    @AUDIT_MODES
    def test_invalid_utf8_exits_2(self, audit, tmp_path):
        target = tmp_path / "tree"
        target.mkdir()
        (target / "bad.py").write_bytes(b"x = 1\n\xff\xfe\n")
        result = _run_analyze([*audit, str(target)], tmp_path)
        assert result.returncode == 2, result.stdout + result.stderr
        assert "CRASH" in result.stderr
        assert "Traceback" not in result.stderr
