"""Tests for the `python -m repro.bench` command-line entry point."""

import json

import pytest

from repro.bench import FigureData, figures
from repro.bench.__main__ import main


def test_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figures", "fig99"])
    assert exc.value.code == 2
    assert "unknown figure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["guidelines", "--seed", "3"],
    ["assembly", "fig12"],
    ["autotune", "fig12"],
    ["figures", "--no-ir-passes"],
    ["figures", "--tuning-out", "t.json"],
    ["identity", "--quick"],
    ["--guidelines"],
    [],
    ["guidelines", "--no-ir-passes"],
    ["figures", "--trajectory", "x"],
])
def test_flag_not_taken_by_the_mode_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_single_figure_runs(capsys):
    assert main(["figures", "fig12"]) == 0
    out = capsys.readouterr().out
    assert "Fig12" in out
    assert "1024x1024" in out
    assert "wall time" in out


def test_fig13_honours_seed(monkeypatch, capsys):
    calls = []

    def fake_fig13(**kwargs):
        calls.append(kwargs)
        return (FigureData("Fig13a", "a", ["n"], [[1]]),
                FigureData("Fig13b", "b", ["n"], [[1]]))

    monkeypatch.setattr(figures, "fig13", fake_fig13)
    assert main(["figures", "fig13", "--seed", "3"]) == 0
    assert calls == [{"seed": 3}]
    out = capsys.readouterr().out
    assert "Fig13a" in out and "Fig13b" in out


def test_trace_out_implies_profile(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["figures", "fig12", "--quick",
                 "--trace-out", str(trace)]) == 0
    assert json.loads(trace.read_text())["traceEvents"]
    assert "pack/compute/wire/wait breakdown" in capsys.readouterr().out


def test_profile_emit_json_and_trace(tmp_path, capsys):
    report = tmp_path / "bench.json"
    trace = tmp_path / "trace.json"
    assert main(["figures", "fig12", "--profile",
                 "--emit-json", str(report),
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "pack/compute/wire/wait breakdown" in out
    assert "breakdown consistency (sums within 1%): ok" in out

    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro-bench/1"
    assert "Fig12" in doc["figures"]
    prof = doc["profile"]
    assert prof["clusters"] > 0
    assert prof["breakdown_valid"] is True
    assert prof["breakdown_rows"] > 0
    assert prof["metrics"]["repro_send_messages_total"] > 0
    assert "prometheus" not in prof           # bulky text form is stripped
    assert prof["row_metrics"]["Fig12"]       # per-row metric deltas
    assert any(a["op"] == "isend" for a in prof["breakdown"])

    tr = json.loads(trace.read_text())
    assert tr["traceEvents"]
    assert any(e["ph"] == "X" for e in tr["traceEvents"])


def test_cli_critpath_and_flame_imply_profile(tmp_path, capsys):
    crit = tmp_path / "crit.json"
    flame = tmp_path / "flame.txt"
    assert main(["figures", "fig12", "--quick", "--critpath-out", str(crit)]) == 0
    assert main(["figures", "fig12", "--quick", "--flame-out", str(flame)]) == 0
    assert json.loads(crit.read_text())["schema"] == "repro-critpath/1"
    assert flame.read_text().strip()


def test_cli_critpath_and_flame_outputs(tmp_path, capsys):
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


def test_assembly_gate_passes_and_strategies_agree(tmp_path, capsys):
    from repro.bench.assembly import run_assembly

    report = tmp_path / "assembly.json"
    assert main(["assembly", "--quick", "--emit-json", str(report)]) == 0
    assert "byte-identical to rediscovery" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert [row[0] for row in doc["figures"]["assembly"]["rows"]] == [4, 8, 16]
    sums = {run_assembly(4, s, rounds=8).checksum
            for s in ("dense", "nbx", "plan")}
    assert len(sums) == 1


def test_transpose_column_type_structure():
    from repro.apps.transpose import column_major_type

    dt = column_major_type(16)
    assert dt.size == 16 * 16 * 8
    assert dt.num_blocks == 16 * 16  # every element its own block
    blocks = dt.flatten()
    # first column's elements stride by one row (16 doubles)
    assert blocks.offsets[1] - blocks.offsets[0] == 16 * 8
