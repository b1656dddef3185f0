"""Tests of the host-time benchmark, on ``--smoke`` sizes.

Run with ``pytest benchmarks/wallclock`` (the tier-1 suite does not
collect this directory).
"""

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
import schema
import workloads
from tracing import LayerSampler, Recorder

RUN = [sys.executable, str(schema.HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_py(*args, cwd=None):
    script = RUN if cwd is None else [
        sys.executable, str(cwd / "benchmarks" / "wallclock" / "run.py")]
    return subprocess.run(script + list(args), capture_output=True,
                          text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One complete smoke run: (report, path of its JSON)."""
    path = tmp_path_factory.mktemp("wallclock") / "smoke.json"
    proc = run_py("--smoke", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(path.read_text()), path


# -- names ----------------------------------------------------------------------


def test_benchmark_json_is_what_schema_declares():
    declared = schema.load_benchmark_json()
    assert declared == schema.benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(declared["per_layer"]) <= 128
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in declared["end_to_end"])


def test_smoke_report_emits_exactly_the_declared_names(smoke):
    report, _ = smoke
    declared = schema.load_benchmark_json()
    assert list(report["workloads"]) == [w["name"] for w in declared["workloads"]]
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    for wl in report["workloads"].values():
        assert set(wl["end_to_end"]) == end_to_end
        assert set(wl["per_layer"]) | set(report["probes"]) == per_layer
        assert wl["ops_failed"] == 0 and wl["ops_total"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(trace):
    proc = run_py("--workload", "dtype_compile", "--smoke", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"]
                for m in schema.load_benchmark_json()[key]}
    assert {n: v["unit"] for n, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in line["metrics"].values())


def test_refuses_where_there_is_no_program(tmp_path):
    shutil.copy(schema.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(schema.HERE, tmp_path / "benchmarks" / "wallclock",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_py("--workload", "mg_solve", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- layers and spans -------------------------------------------------------------


def test_layer_fractions(smoke):
    report, _ = smoke
    for name, wl in report["workloads"].items():
        fracs = {layer: wl["per_layer"][f"layer.{layer}.self_frac"]
                 for layer in schema.LAYERS}
        assert sum(fracs.values()) == pytest.approx(1.0), name
        if name != "mg_solve" and name != "scatter_assembly":
            assert not any(v for k, v in fracs.items() if k.startswith("petsc."))
        if name == "dtype_compile":
            assert not any(v for k, v in fracs.items()
                           if k.startswith(("simtime.", "mpi.")))


def test_sampler_charges_the_simulator_not_the_driver():
    import repro

    sampler = LayerSampler(str(schema.ROOT / "src" / "repro"), interval=0.001)
    assert sampler.root == repro.__path__[0] + "/"
    wl = workloads.MgSolve(smoke=True)
    rec = Recorder()
    while sum(sampler.counts.values()) < 400:
        assert all(ok for _, ok in workloads.run_rep(wl, 0, rec, sampler).checks)
    fracs = sampler.fractions()
    assert sum(fracs.values()) == pytest.approx(1.0)
    assert fracs["driver"] + fracs["other"] <= 0.02
    for layer in ("simtime.engine", "mpi.comm", "datatypes.ir", "petsc.mat"):
        assert fracs[layer] > 0.0


def test_spans_form_a_tree_with_children_inside_parents(smoke):
    for name in list(schema.WORKLOADS) + ["probes"]:
        trace = json.loads((schema.HERE / "out" / f"trace-{name}.json").read_text())
        spans = {s["id"]: s for s in trace["spans"]}
        assert len(spans) == len(trace["spans"]) > 0
        for s in spans.values():
            assert s["start"] <= s["end"]
            if s["parent"] is None:
                assert s["name"] == "rep" or name == "probes"
                continue
            parent = spans[s["parent"]]
            assert parent["id"] < s["id"]  # no cycles
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        if name != "probes":
            children = {s["name"] for s in spans.values() if s["parent"] is not None}
            assert children == {"generate", "cluster_init", "run_setup",
                                "run_measured", "verify"}


# -- exactness ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(schema.WORKLOADS))
def test_exact_metrics_repeat_in_process(name):
    wl = workloads.REGISTRY[name](smoke=True)
    a, b = (workloads.run_rep(wl, 5, Recorder()) for _ in range(2))
    assert a.counters == b.counters and a.fingerprint == b.fingerprint
    assert a.plans == b.plans
    assert all(ok for _, ok in a.checks + b.checks)


def test_seed_moves_only_what_it_should():
    def rep(name, seed):
        out = workloads.run_rep(workloads.REGISTRY[name](smoke=True), seed,
                                Recorder())
        assert all(ok for _, ok in out.checks)
        return out

    # Cluster(seed=) jitters simulated CPU time, never the numerics
    a, b = rep("mg_solve", 0), rep("mg_solve", 1)
    assert a.fingerprint == b.fingerprint
    assert a.counters.sim_time_s != b.counters.sim_time_s
    # seeded peers: other pairs talk, the same number of them
    a, b = rep("coll_scale", 0), rep("coll_scale", 1)
    assert a.counters.sim_time_s != b.counters.sim_time_s
    assert a.counters.nbytes == b.counters.nbytes
    # seeded block lengths change the bytes on the wire
    a, b = rep("dtype_exec", 0), rep("dtype_exec", 1)
    assert a.counters.nbytes != b.counters.nbytes
    # another corpus, another CRC; no cluster, so never any simulated time
    a, b = rep("dtype_compile", 0), rep("dtype_compile", 1)
    assert a.fingerprint != b.fingerprint
    assert a.counters == b.counters == workloads.Counters(0, 0, 0, 0)


# -- compare.py and the must-fail self-tests ------------------------------------------


def _compare(a, b, tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return compare.main([str(pa), str(pb)])


def test_compare_verdicts(smoke, tmp_path, capsys):
    report, _ = smoke
    assert _compare(report, report, tmp_path) == 0

    slower = copy.deepcopy(report)
    for key in ("median", "q1", "q3"):
        slower["workloads"]["mg_solve"]["end_to_end"]["cpu_s"][key] *= 1.3
    assert _compare(report, slower, tmp_path) == 1
    assert _compare(slower, report, tmp_path) == 0  # faster is fine

    noisy = copy.deepcopy(report)
    row = noisy["workloads"]["mg_solve"]["end_to_end"]["wall_s"]
    row["q3"] *= 1.5
    row["samples"][-1] *= 1.5
    capsys.readouterr()
    assert _compare(report, noisy, tmp_path) == 0
    assert "unresolved" in capsys.readouterr().out

    moved = copy.deepcopy(report)
    moved["workloads"]["coll_scale"]["exact"]["simtime.engine.events"] += 1
    assert _compare(report, moved, tmp_path) == 1

    broken = copy.deepcopy(report)
    broken["workloads"]["dtype_exec"]["ops_failed"] += 1
    assert _compare(report, broken, tmp_path) == 1

    for key, value in (("seed", 9), ("smoke", False), ("seconds", 99.0)):
        other = copy.deepcopy(report)
        other["manifest"][key] = value
        assert _compare(report, other, tmp_path) == 2
    resized = copy.deepcopy(report)
    resized["workloads"]["mg_solve"]["sizes"]["grid"] = 100
    assert _compare(report, resized, tmp_path) == 2


def test_slowdown_self_test_trips_compare(smoke, tmp_path):
    _, clean = smoke
    slowed = tmp_path / "slowed.json"
    proc = run_py("--smoke", "--trace", "0", "--self-test-slowdown", "1.0",
                  "--out", str(slowed))
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, str(schema.HERE / "compare.py"), str(clean), str(slowed)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    for name in schema.WORKLOADS:
        for metric in ("wall_s", "cpu_s"):
            row = [line for line in proc.stdout.splitlines()
                   if line.split()[:2] == [name, metric]]
            assert row and " worse " in row[0], (name, metric)


def test_corrupt_self_test_fails_checks():
    proc = run_py("--workload", "dtype_exec", "--smoke", "--trace", "0",
                  "--self-test-corrupt")
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
