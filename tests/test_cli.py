"""Tests for the command-line entry point."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig8" in out
    assert "table2" in out
    assert "ablations" in out


def test_every_listed_experiment_is_callable():
    for name, runner in EXPERIMENTS.items():
        assert callable(runner), name


def test_run_table2(capsys):
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "4.80" in out


def test_run_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_faults_unknown_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["faults", "--smoke", "--only", "nosuch"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
