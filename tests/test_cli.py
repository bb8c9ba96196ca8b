"""Tests for the command-line entry point."""

import pytest

from repro.__main__ import main
from repro.experiments import ablations


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig8" in out
    assert "table2" in out
    assert "ablations:plb" in out


def test_run_table2(capsys):
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "4.80" in out


def test_run_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_run_glob_prints_the_cell_section(capsys):
    assert main(["run", "ablations:plb"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("```\n")  # the ablation's table, no document prose
    assert out == "\n".join(ablations.cell_plb().sections)


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_faults_unknown_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["faults", "--smoke", "--only", "nosuch"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
