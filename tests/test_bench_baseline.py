"""Tests for the perf-trajectory baseline gate (``repro.bench.baseline``)."""

import json

import pytest

from repro.bench.__main__ import main
from repro.bench.baseline import (
    append_trajectory,
    compare_to_baseline,
    trajectory_entry,
)


def bench_doc(rows=None, quick=True):
    return {
        "schema": "repro-bench/1",
        "quick": quick,
        "figures": {
            "Fig14a": {
                "title": "Nonuniform allgatherv",
                "columns": ["doubles", "MVAPICH2-0.9.5", "MVAPICH2-New",
                            "improvement %"],
                "rows": rows if rows is not None else [
                    [1024, 10.0, 5.0, 50.0],
                    [4096, 40.0, 16.0, 60.0],
                ],
                "notes": [],
            }
        },
    }


# -- compare_to_baseline -----------------------------------------------------

def test_identical_rerun_passes_exactly():
    doc = bench_doc()
    assert compare_to_baseline(doc, bench_doc()) == []
    # even with zero tolerance: the simulator is deterministic
    assert compare_to_baseline(doc, bench_doc(), rel_tol=0.0) == []


def test_slowdown_beyond_tolerance_fails():
    current = bench_doc(rows=[[1024, 10.0, 5.0, 50.0],
                              [4096, 40.0, 20.0, 50.0]])     # 16 -> 20
    problems = compare_to_baseline(current, bench_doc(), rel_tol=0.10)
    assert len(problems) == 1
    assert "Fig14a[4096] MVAPICH2-New" in problems[0]
    assert "+25.0%" in problems[0]
    # a looser tolerance lets it through
    assert compare_to_baseline(current, bench_doc(), rel_tol=0.30) == []


def test_speedup_and_derived_columns_never_fail():
    # faster everywhere, and the derived "% column" collapsing to 0 --
    # neither is a regression
    current = bench_doc(rows=[[1024, 5.0, 2.0, 0.0],
                              [4096, 20.0, 8.0, 0.0]])
    assert compare_to_baseline(current, bench_doc(), rel_tol=0.0) == []


def test_row_key_column_is_never_compared():
    # first column is the row key even when numeric (message sizes)
    base = bench_doc(rows=[[1024, 10.0, 5.0, 50.0]])
    cur = bench_doc(rows=[[1024, 10.0, 5.0, 50.0]])
    assert compare_to_baseline(cur, base) == []


def test_missing_figure_row_and_column_reported():
    base = bench_doc()
    empty = {"schema": "repro-bench/1", "quick": True, "figures": {}}
    assert compare_to_baseline(empty, base) == ["Fig14a: missing from current run"]

    one_row = bench_doc(rows=[[1024, 10.0, 5.0, 50.0]])
    problems = compare_to_baseline(one_row, base)
    assert problems == ["Fig14a[4096]: row missing from current run"]

    renamed = bench_doc()
    renamed["figures"]["Fig14a"]["columns"][2] = "MVAPICH2-Renamed"
    problems = compare_to_baseline(renamed, base)
    assert len(problems) == 2           # one per row
    assert all("column 'MVAPICH2-New' missing" in p for p in problems)


def test_quick_mode_mismatch_is_not_comparable():
    problems = compare_to_baseline(bench_doc(quick=False), bench_doc())
    assert len(problems) == 1
    assert "quick-mode mismatch" in problems[0]


def test_extra_current_figures_are_fine():
    cur = bench_doc()
    cur["figures"]["Fig99"] = {"columns": ["n", "t"], "rows": [[1, 9e9]]}
    assert compare_to_baseline(cur, bench_doc()) == []


def test_non_numeric_cells_skipped():
    base = bench_doc(rows=[[1024, "n/a", 5.0, 50.0]])
    cur = bench_doc(rows=[[1024, "n/a", 5.0, 50.0]])
    assert compare_to_baseline(cur, base) == []


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


# -- the CLI gate end-to-end (fig12 --quick runs in about a second) ----------

@pytest.fixture(scope="module")
def fig12_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "bench.json"
    assert main(["figures", "fig12", "--quick", "--emit-json", str(path)]) == 0
    return str(path)


def test_cli_baseline_passes_on_identical_rerun(fig12_artifact, capsys):
    assert main(["figures", "fig12", "--quick", "--baseline", fig12_artifact]) == 0
    assert "no perf regression" in capsys.readouterr().out


def test_cli_baseline_fails_on_degraded_run(fig12_artifact, capsys):
    assert main(["figures", "fig12", "--quick", "--baseline", fig12_artifact,
                 "--degrade", "4.0"]) == 1
    out = capsys.readouterr().out
    assert "PERF REGRESSION" in out
    assert "tolerance" in out
    # the default fault plan must not leak into later clusters
    from repro.faults import get_default_plan

    assert get_default_plan() is None


def test_cli_baseline_rejects_wrong_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "something-else/1"}')
    assert main(["figures", "fig12", "--quick", "--baseline", str(bad)]) == 2


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
