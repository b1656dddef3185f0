"""Tests for the bench CLI's profiler outputs (critical path, flamegraph)."""

import json

import pytest

from repro.bench.__main__ import main


# -- the CLI profiler outputs (fig12 --quick runs in about a second) --------

def test_cli_critpath_and_flame_imply_profile(tmp_path, capsys):
    crit = tmp_path / "crit.json"
    flame = tmp_path / "flame.txt"
    assert main(["figures", "fig12", "--quick", "--critpath-out", str(crit)]) == 0
    assert main(["figures", "fig12", "--quick", "--flame-out", str(flame)]) == 0
    assert json.loads(crit.read_text())["schema"] == "repro-critpath/1"
    assert flame.read_text().strip()


def test_cli_critpath_flame_trajectory_outputs(tmp_path, capsys):
    crit = tmp_path / "crit.json"
    flame = tmp_path / "flame.txt"
    assert main(["figures", "fig12", "--quick", "--profile",
                 "--critpath-out", str(crit), "--flame-out", str(flame)]) == 0
    doc = json.loads(crit.read_text())
    assert doc["schema"] == "repro-critpath/1"
    assert doc["runs"]
    for run in doc["runs"]:
        assert run["path_total"] == pytest.approx(run["makespan"], rel=1e-9)
    assert flame.read_text().strip()          # non-empty collapsed stacks
