"""Tests for the simulated-time identity gate (``repro.bench.identity``)."""

import functools
import json
from pathlib import Path

import pytest

from repro.bench import identity
from repro.util.costmodel import CostModel

MANIFEST = Path(__file__).resolve().parents[1] / identity.MANIFEST


@pytest.fixture(scope="module")
def assembly():
    return identity.regenerate(["assembly"])


def test_assembly_equals_committed_manifest(assembly, capsys):
    assert assembly["assembly"] == json.loads(MANIFEST.read_text())["assembly"]
    assert identity.compare(str(MANIFEST), assembly) == 0
    assert "assembly equal to" in capsys.readouterr().out


def test_cost_perturbation_fails_naming_artifact_and_row(monkeypatch, capsys):
    # every Cluster built without an explicit cost model copies 4 % slower
    monkeypatch.setattr("repro.mpi.comm.CostModel",
                        functools.partial(CostModel, copy_byte=1.0 / 2.4e9))
    moved = identity.regenerate(["assembly"])
    assert identity.compare(str(MANIFEST), moved) == 1
    out = capsys.readouterr().out
    assert "IDENTITY MISMATCH: assembly > assembly > row P=4 > column " in out


def test_update_then_check_passes(assembly, tmp_path, monkeypatch, capsys):
    path = tmp_path / "IDENTITY.json"
    monkeypatch.setattr(identity, "MANIFEST", str(path))
    monkeypatch.setattr(identity, "regenerate", lambda: assembly)
    assert identity.run(update=True) == 0
    assert identity.run() == 0
    # the manifest is written in its canonical form
    assert path.read_text() == identity.dumps(json.loads(path.read_text()))


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_missing_or_garbled_manifest_exits_2(assembly, tmp_path, capsys, text):
    path = tmp_path / "IDENTITY.json"
    if text is not None:
        path.write_text(text)
    assert identity.compare(str(path), assembly) == 2
    assert f"identity manifest {path}" in capsys.readouterr().out


def test_first_difference_names_figure_row_and_column():
    old = {"Fig15": {
        "columns": ["bench", "procs", "base", "new"],
        "rows": [["ring", 8, 2.0, 1.0], ["ring", 16, 4.0, 3.0]]}}
    new = json.loads(json.dumps(old))
    new["Fig15"]["rows"][1][3] = 3.5
    assert identity.first_difference(old, new) == (
        ("Fig15", "row bench=ring procs=16", "column 'new'"), 3.0, 3.5)
    new["Fig15"]["rows"].pop()
    assert identity.first_difference(old, new) == (
        ("Fig15", "row bench=ring procs=16", "column 'bench'"),
        "ring", "(absent)")
    # a cell that changes type (1 -> 1.0) is a difference too
    assert identity.first_difference([1], [1.0]) == (("[0]",), 1, 1.0)
    assert identity.first_difference({}, {"a": 1}) == (("a",), "(absent)", 1)


def test_every_committed_cell_has_its_own_name():
    paths = [path for path, _ in identity._cells(
        json.loads(MANIFEST.read_text()))]
    assert len(paths) == len(set(paths))


def test_artifact_missing_from_manifest_is_a_mismatch(assembly, tmp_path, capsys):
    path = tmp_path / "IDENTITY.json"
    path.write_text("{}")
    assert identity.compare(str(path), assembly) == 1
    assert ("IDENTITY MISMATCH: assembly > assembly > columns > [0]: "
            "'(absent)' -> 'P'") in capsys.readouterr().out


def test_manifest_key_without_an_artifact_is_a_mismatch(assembly, tmp_path,
                                                         monkeypatch, capsys):
    path = tmp_path / "IDENTITY.json"
    path.write_text(identity.dumps({**assembly, "retired": {"Fig": 1}}))
    monkeypatch.setattr(identity, "MANIFEST", str(path))
    monkeypatch.setattr(identity, "regenerate", lambda: assembly)
    assert identity.run() == 1
    assert ("IDENTITY MISMATCH: retired: no artifact regenerates it"
            in capsys.readouterr().out)
