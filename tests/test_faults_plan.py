"""FaultPlan DSL: validation, matching, determinism."""

import pytest

from repro.faults import FaultPlan, RankFault, WireRule


def test_builder_chains_and_collects_rules():
    plan = (
        FaultPlan(seed=3)
        .drop(probability=0.1)
        .corrupt(probability=0.2, src=1)
        .delay_spike(delay=1e-4, dst=2)
        .degrade(scale=4.0, after=1e-3)
        .crash(5, at_time=2e-3)
        .hang(6, at_op=7, detect_after=1e-3)
    )
    assert [r.kind for r in plan.wire_rules] == [
        "drop", "corrupt", "delay", "degrade"
    ]
    assert [f.kind for f in plan.rank_faults] == ["crash", "hang"]
    assert bool(plan)
    assert not bool(FaultPlan())


def test_wire_rule_validation():
    with pytest.raises(ValueError):
        WireRule("explode")
    with pytest.raises(ValueError):
        WireRule("drop", probability=1.5)
    with pytest.raises(ValueError):
        WireRule("drop", nth=0)
    with pytest.raises(ValueError):
        WireRule("delay", delay=-1.0)
    with pytest.raises(ValueError):
        WireRule("degrade", scale=0.0)


def test_rank_fault_validation():
    with pytest.raises(ValueError):
        RankFault("crash", 0)  # no trigger
    with pytest.raises(ValueError):
        RankFault("crash", 0, at_time=1.0, at_op=3)  # both triggers
    with pytest.raises(ValueError):
        RankFault("crash", 0, at_op=0)
    with pytest.raises(ValueError):
        RankFault("crash", 0, at_time=1.0, detect_after=1.0)  # hang-only
    RankFault("hang", 0, at_time=1.0, detect_after=1.0)  # fine


def test_wire_rule_matching_filters():
    rule = WireRule("drop", src=1, dst=2, after=1.0, until=2.0, min_bytes=8)
    assert rule.matches(1, 2, 8, 1.5)
    assert not rule.matches(0, 2, 8, 1.5)  # wrong src
    assert not rule.matches(1, 3, 8, 1.5)  # wrong dst
    assert not rule.matches(1, 2, 0, 1.5)  # too small (zero-byte ack)
    assert not rule.matches(1, 2, 8, 0.5)  # before window
    assert not rule.matches(1, 2, 8, 2.0)  # window is half-open


def test_random_plan_is_deterministic():
    a = FaultPlan.random(42, 8, crash=True)
    b = FaultPlan.random(42, 8, crash=True)
    assert a.wire_rules == b.wire_rules
    assert a.rank_faults == b.rank_faults
    c = FaultPlan.random(43, 8, crash=True)
    assert (a.rank_faults != c.rank_faults
            or a.wire_rules != c.wire_rules or True)  # seeds may collide
    # the victim is never rank 0 and always in range
    (fault,) = a.rank_faults
    assert 1 <= fault.rank < 8


def test_describe_mentions_every_fault():
    plan = FaultPlan().drop(probability=0.5).crash(3, at_time=1e-3)
    text = plan.describe()
    assert "drop" in text and "p=0.5" in text
    assert "crash" in text and "rank=3" in text
    assert FaultPlan().describe() == "(empty plan)"
