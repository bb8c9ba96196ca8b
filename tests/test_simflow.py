"""simflow rule tests: one violating and one clean fixture per rule.

Mirrors ``tests/test_simlint.py``: every SF rule gets a minimal fixture
that fires it and a clean twin that must stay quiet, plus suppression,
``select=``, CLI, merged-JSON, and repo-is-clean tests.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.findings import iter_python_files
from repro.analysis.simflow import RULES, analyze_source


def codes(violations):
    return [v.code for v in violations]


def check(snippet, path="repro/sim/fake.py", select=None):
    return analyze_source(textwrap.dedent(snippet), path=path, select=select)


# --------------------------------------------------------------------- #
# SF000: syntax errors
# --------------------------------------------------------------------- #


def test_sf000_syntax_error_is_reported_not_raised():
    violations = check("def broken(:\n")
    assert codes(violations) == ["SF000"]
    assert violations[0].line == 1


# --------------------------------------------------------------------- #
# SF001: arithmetic/comparison mixing two address domains
# --------------------------------------------------------------------- #


def test_sf001_flags_lpn_plus_ppn():
    violations = check(
        """
        def mix(lpn, ppn):
            return lpn + ppn
        """,
        select=["SF001"],
    )
    assert codes(violations) == ["SF001"]
    assert "LPN" in violations[0].message
    assert "PPN" in violations[0].message


def test_sf001_flags_cross_domain_comparison():
    violations = check(
        """
        def confused(vpn, ppn):
            return vpn < ppn
        """,
        select=["SF001"],
    )
    assert codes(violations) == ["SF001"]


def test_sf001_annotations_beat_innocent_names():
    violations = check(
        """
        from repro.units import LPN, PPN

        def mix(first: LPN, second: PPN):
            return first + second
        """,
        select=["SF001"],
    )
    assert codes(violations) == ["SF001"]


def test_sf001_clean_same_domain_distance():
    violations = check(
        """
        def distance(lpn, other_lpn):
            return lpn - other_lpn
        """,
        select=["SF001"],
    )
    assert violations == []


def test_sf001_clean_address_plus_plain_offset():
    violations = check(
        """
        def neighbour(ppn, step):
            return ppn + step + 1
        """,
        select=["SF001"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SF002: argument domain contradicts the signature (same layer)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "snippet, callee",
    [
        (
            """
            def read_flash(ppn):
                return ppn

            def caller(lpn):
                return read_flash(lpn)
            """,
            "read_flash",
        ),
        (
            # A `-> LPN` return reaches the NAND read through a neutral name.
            """
            from repro.units import LPN, HostPage

            class Device:
                def logical_page(self, host_page: HostPage) -> LPN:
                    return LPN(host_page)

                def bad(self, host_page: HostPage):
                    page = self.logical_page(host_page)
                    return self.flash.read(page)
            """,
            "read",
        ),
        (
            # The mirror image: the FTL's physical page as an SSD-Cache key.
            """
            from repro.units import LPN

            class Device:
                def bad(self, lpn: LPN):
                    ppn = self.ftl.lookup(lpn)
                    return self.cache.lookup(ppn)
            """,
            "lookup",
        ),
    ],
    ids=["function-call", "lpn-into-flash-read", "ppn-into-cache-lookup"],
)
def test_sf002_flags_lpn_passed_as_ppn(snippet, callee):
    violations = check(snippet, select=["SF002"])
    assert codes(violations) == ["SF002"]
    assert f"{callee}()" in violations[0].message


def test_sf002_clean_matching_argument():
    violations = check(
        """
        def read_flash(ppn):
            return ppn

        def caller(ppn):
            return read_flash(ppn)
        """,
        select=["SF002"],
    )
    assert violations == []


def test_sf002_annotation_on_callee_wins_over_its_name():
    # The callee *declares* LPN for a parameter named ppn; passing an lpn
    # is therefore correct, and the analysis must trust the annotation.
    violations = check(
        """
        from repro.units import LPN

        def oddly_named(ppn: LPN):
            return ppn

        def caller(lpn):
            return oddly_named(lpn)
        """,
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SF003: crossing a layer boundary without a registered translation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "snippet",
    [
        """
        def lookup_lpn(lpn):
            return lpn

        def caller(vpn):
            return lookup_lpn(vpn)
        """,
        """
        from repro.units import VPN

        class Device:
            def bad(self, vpn: VPN):
                return self.ftl.map_page(vpn)
        """,
    ],
    ids=["function-call", "vpn-into-ftl-map-page"],
)
def test_sf003_flags_vpn_into_ssd_layer(snippet):
    violations = check(snippet, select=["SF003"])
    assert codes(violations) == ["SF003"]
    assert "host" in violations[0].message
    assert "ssd" in violations[0].message


def test_sf003_hints_at_the_registered_translation():
    violations = check(
        """
        def trim(lpn):
            return lpn

        def caller(vpn):
            return trim(vpn)
        """,
        select=["SF003"],
    )
    assert codes(violations) == ["SF003"]
    assert "lpn_of_vpn" in violations[0].message


def test_sf003_clean_with_explicit_domain_cast():
    violations = check(
        """
        from repro.units import LPN

        def lookup_lpn(lpn):
            return lpn

        def caller(vpn):
            return lookup_lpn(LPN(vpn))
        """,
        select=["SF003"],
    )
    assert violations == []


def test_sf003_clean_through_registered_translation():
    # ftl.lookup is a registered lpn -> ppn translation, so the result
    # may flow into a ppn consumer without complaint.
    violations = check(
        """
        def read_flash(ppn):
            return ppn

        def caller(self, lpn):
            ppn = self.ftl.lookup(lpn)
            return read_flash(ppn)
        """,
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SF004: time-unit mixing
# --------------------------------------------------------------------- #


def test_sf004_flags_ns_plus_us():
    violations = check(
        """
        def total(delay_us):
            total_ns = 0
            total_ns = total_ns + delay_us
            return total_ns
        """,
        select=["SF004"],
    )
    assert codes(violations) == ["SF004"]


def test_sf004_clean_after_conversion():
    violations = check(
        """
        def total(delay_us):
            total_ns = 0
            total_ns = total_ns + delay_us * 1000
            return total_ns
        """,
        select=["SF004"],
    )
    assert violations == []


def test_sf004_flags_cycles_vs_ns_comparison():
    violations = check(
        """
        def deadline(elapsed_cycles, budget_ns):
            return elapsed_cycles > budget_ns
        """,
        select=["SF004"],
    )
    assert codes(violations) == ["SF004"]


# --------------------------------------------------------------------- #
# SF005: container keyed by one domain, indexed by another
# --------------------------------------------------------------------- #


def test_sf005_flags_ppn_index_into_lpn_keyed_map():
    violations = check(
        """
        class Ftl:
            def bad(self, ppn):
                return self._lpn_to_ppn[ppn]
        """,
        select=["SF005"],
    )
    assert codes(violations) == ["SF005"]


def test_sf005_flags_membership_probe():
    violations = check(
        """
        class Ftl:
            def bad(self, ppn):
                return ppn in self._lpn_to_ppn
        """,
        select=["SF005"],
    )
    assert codes(violations) == ["SF005"]


def test_sf005_sees_annotated_containers():
    violations = check(
        """
        from typing import Dict
        from repro.units import LPN

        class Cache:
            def __init__(self):
                self._where: Dict[LPN, int] = {}

            def bad(self, ppn):
                return self._where[ppn]
        """,
        select=["SF005"],
    )
    assert codes(violations) == ["SF005"]


def test_sf005_clean_matching_key():
    violations = check(
        """
        class Ftl:
            def good(self, lpn):
                return self._lpn_to_ppn[lpn]
        """,
        select=["SF005"],
    )
    assert violations == []


def test_sf005_clean_dict_get_with_matching_key():
    violations = check(
        """
        class Ftl:
            def good(self, lpn):
                return self._lpn_to_ppn.get(lpn)
        """,
        select=["SF005"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# Suppressions and scope
# --------------------------------------------------------------------- #


def test_suppression_comment_silences_one_code():
    violations = check(
        """
        def mix(lpn, ppn):
            return lpn + ppn  # simflow: disable=SF001
        """,
    )
    assert violations == []


def test_suppression_without_codes_silences_everything():
    violations = check(
        """
        def mix(lpn, ppn):
            return lpn + ppn  # simflow: disable
        """,
    )
    assert violations == []


def test_suppression_for_other_code_does_not_silence():
    violations = check(
        """
        def mix(lpn, ppn):
            return lpn + ppn  # simflow: disable=SF005
        """,
    )
    assert codes(violations) == ["SF001"]


def test_simlint_suppression_does_not_silence_simflow():
    violations = check(
        """
        def mix(lpn, ppn):
            return lpn + ppn  # simlint: disable
        """,
    )
    assert codes(violations) == ["SF001"]


def test_files_outside_sim_scope_are_skipped():
    violations = check(
        """
        def mix(lpn, ppn):
            return lpn + ppn
        """,
        path="repro/workloads/fake.py",
    )
    assert violations == []


def test_rule_catalogue_is_complete():
    assert [rule.code for rule in RULES] == [
        "SF001",
        "SF002",
        "SF003",
        "SF004",
        "SF005",
    ]
    for rule in RULES:
        assert rule.title
        assert rule.explanation


# --------------------------------------------------------------------- #
# CLI: the `python -m repro analyze` front end
# --------------------------------------------------------------------- #

_SF001_BAD = "def mix(lpn, ppn):\n    return lpn + ppn\n"


def _run_cli(module, args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(pathlib.Path(__file__).resolve().parents[1] / "src")},
    )


def _write_bad(tmp_path, name="bad.py", body=_SF001_BAD):
    bad = tmp_path / "repro" / "sim" / name
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(body)
    return bad


def test_cli_exits_nonzero_on_violation(tmp_path):
    _write_bad(tmp_path)
    result = _run_cli("repro.analysis.analyze", ["repro"], tmp_path)
    assert result.returncode == 1
    assert "SF001" in result.stdout


def test_cli_exits_zero_on_clean_tree(tmp_path):
    good = tmp_path / "repro" / "sim" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("def distance(lpn, other_lpn):\n    return lpn - other_lpn\n")
    # A suppression that shields a real finding is clean under the audit.
    _write_bad(tmp_path, body="def mix(lpn, ppn):\n    return lpn + ppn  # simflow: disable=SF001\n")
    result = _run_cli("repro", ["analyze", "--check-suppressions", "repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_analyze_umbrella_merges_both_tools(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    # One file that trips both families: SL008 mutable default,
    # SF001 domain mixing.
    bad.write_text(
        "def worker(lpn, ppn, items=[]):\n"
        "    return lpn + ppn\n"
    )
    result = _run_cli("repro", ["analyze", "--json", "repro"], tmp_path)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["tool"] == "analyze"
    assert payload["schema_version"] == 1
    assert payload["count"] == len(payload["findings"])
    assert payload["files_checked"] == 1
    assert payload["by_tool"] == {"simlint": 1, "simflow": 1}
    found_codes = {f["code"] for f in payload["findings"]}
    assert found_codes == {"SL008", "SF001"}
    for finding in payload["findings"]:
        assert set(finding) == {"tool", "path", "line", "col", "code", "message"}


def test_analyze_umbrella_clean_tree(tmp_path):
    good = tmp_path / "repro" / "sim" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("def distance(lpn, other_lpn):\n    return lpn - other_lpn\n")
    result = _run_cli("repro", ["analyze", "repro"], tmp_path)
    assert result.returncode == 0
    assert "clean" in result.stdout


def test_analyze_module_runs_standalone(tmp_path):
    good = tmp_path / "repro" / "sim" / "good.py"
    good.parent.mkdir(parents=True)
    good.write_text("def distance(lpn, other_lpn):\n    return lpn - other_lpn\n")
    result = _run_cli("repro.analysis.analyze", ["repro"], tmp_path)
    assert result.returncode == 0
    assert "clean" in result.stdout


# --------------------------------------------------------------------- #
# Repo gate
# --------------------------------------------------------------------- #


def test_repo_tree_is_simflow_clean():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    violations = [
        violation
        for path in iter_python_files([str(src)])
        for violation in analyze_source(path.read_text(encoding="utf-8"), path=str(path))
    ]
    assert violations == [], "\n".join(v.format() for v in violations)
