"""Chaos harness smoke: seeded scenarios hold their invariants end-to-end."""

import json

import pytest

from repro.faults import run_chaos
from repro.faults.__main__ import main
from repro.faults.chaos import SCENARIOS


def test_scenario_registry_names():
    assert {"fem_lossy", "agv_lossy", "crash_allgatherv", "crash_alltoallw",
            "checkpoint_restart", "deadlock_diagnosis",
            "assembly_plan_disagree"} <= set(SCENARIOS)


def test_chaos_smoke_single_seed():
    report = run_chaos(seeds=(3,), nprocs=4,
                       scenarios=("fem_lossy", "deadlock_diagnosis",
                                  "checkpoint_restart"))
    assert report.ok, report.summary()
    assert len(report.runs) == 3
    for run in report.runs:
        assert run.seed == 3
    # the report serializes to JSON for the CI artifact
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert len(payload["runs"]) == 3


def test_chaos_crash_scenario_smoke():
    report = run_chaos(seeds=(1,), nprocs=4, scenarios=("crash_allgatherv",))
    assert report.ok, report.summary()


def test_chaos_assembly_plan_disagree_smoke():
    report = run_chaos(seeds=(2,), nprocs=4,
                       scenarios=("assembly_plan_disagree",))
    assert report.ok, report.summary()
    (run,) = report.runs
    assert run.metrics["messages_cached"] < run.metrics["messages_plan_free"]
    assert run.metrics["blocked"] > 0


@pytest.mark.parametrize("nprocs", [3, 2, 1, 0, -3])
def test_chaos_rejects_fewer_than_four_ranks(nprocs, capsys):
    # at 1 rank the victim choice divides by zero; at 2 and 3 the
    # crash and plan-disagreement scenarios cannot set up their fault
    with pytest.raises(ValueError, match="nprocs >= 4"):
        run_chaos(seeds=(1,), nprocs=nprocs)
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--nprocs", str(nprocs)])
    assert exc.value.code == 2
    assert "--nprocs must be >= 4" in capsys.readouterr().err
