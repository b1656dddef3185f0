"""Tests for the perf-trajectory records (``repro.bench.baseline``)."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.baseline import append_trajectory, trajectory_entry


def bench_doc():
    return {
        "schema": "repro-bench/1",
        "quick": True,
        "figures": {
            "Fig14a": {
                "title": "Nonuniform allgatherv",
                "columns": ["doubles", "MVAPICH2-0.9.5", "MVAPICH2-New",
                            "improvement %"],
                "rows": [[1024, 10.0, 5.0, 50.0], [4096, 40.0, 16.0, 60.0]],
                "notes": [],
            }
        },
    }


# -- append_trajectory -------------------------------------------------------

def test_trajectory_appends_and_creates(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    assert append_trajectory(str(path), bench_doc(), label="abc123") == 1
    assert append_trajectory(str(path), bench_doc(), label="def456") == 2
    history = json.loads(path.read_text())
    assert [e["label"] for e in history] == ["abc123", "def456"]
    assert history[0]["quick"] is True
    assert history[0]["figures"]["Fig14a"]["rows"][0][0] == 1024
    # entries carry no bulky profile payload
    assert set(history[0]) == {"label", "quick", "figures"}
    assert history[0] == trajectory_entry(bench_doc(), label="abc123")


def test_trajectory_appends_to_seeded_empty_list(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text("[]\n")
    assert append_trajectory(str(path), bench_doc()) == 1


def test_trajectory_rejects_non_list(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text("{}")
    with pytest.raises(ValueError):
        append_trajectory(str(path), bench_doc())


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
    traj = tmp_path / "traj.json"
    assert main(["figures", "fig12", "--quick", "--profile",
                 "--critpath-out", str(crit), "--flame-out", str(flame),
                 "--trajectory", str(traj),
                 "--trajectory-label", "deadbeef"]) == 0
    doc = json.loads(crit.read_text())
    assert doc["schema"] == "repro-critpath/1"
    assert doc["runs"]
    for run in doc["runs"]:
        assert run["path_total"] == pytest.approx(run["makespan"], rel=1e-9)
    assert flame.read_text().strip()          # non-empty collapsed stacks
    history = json.loads(traj.read_text())
    assert history[-1]["label"] == "deadbeef"
