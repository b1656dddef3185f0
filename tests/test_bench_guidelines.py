"""The datatype performance-guideline suite and its CI gate.

Timing-free where it matters: the gate logic is exercised with an
injectable fake timer and synthetic cases, so the pass/fail decision,
the violation messages and the byte-equality precheck are all pinned
deterministically.  One structural test shows *why* the CI self-test
(a checkout edit that leaves every ``Loop.nest`` None) trips: without
N-D strided ops a strided type lowers to one interpreted copy op per run.
"""

import numpy as np
import pytest

from repro.bench.guidelines import (
    DEFAULT_SLACK,
    DEFAULT_TOLERANCE,
    GuidelineCase,
    guideline_cases,
    run_guidelines,
)
from repro.datatypes import DOUBLE, Vector, ir
from repro.datatypes.packing import TypedBuffer


class FakeTimer:
    """Deterministic timer scripted with per-measurement *durations*.

    ``_best_of`` reads the clock twice per measurement (start/stop);
    this timer advances by the next scripted duration on the start read
    and stands still on the stop read, so measurement *i* observes
    exactly ``durations[i]`` seconds.
    """

    def __init__(self, durations):
        self.durations = list(durations)
        self.now = 0.0
        self.starting = True

    def __call__(self):
        t = self.now
        if self.starting and self.durations:
            self.now += self.durations.pop(0)
        self.starting = not self.starting
        return t


def _case(derived=None, reference=None):
    data = np.arange(8, dtype=np.uint8)
    return GuidelineCase("g", "c",
                         derived or (lambda: data),
                         reference or (lambda: data))


# -- gate logic (deterministic) -----------------------------------------------

def test_fast_derived_passes():
    # derived 1us per call, reference 10us: comfortably inside the gate
    timer = FakeTimer([1e-6] * 100)
    fig, violations = run_guidelines(
        cases=[_case()], repeats=1, timer=timer, slack=0.0)
    assert violations == []
    assert [row[-1] for row in fig.rows] == ["yes"]


def test_slow_derived_trips_the_gate():
    # derived then reference are timed in order: 100us vs 1us
    timer = FakeTimer([100e-6, 1e-6])
    fig, violations = run_guidelines(
        cases=[_case()], repeats=1, timer=timer, slack=0.0)
    assert len(violations) == 1
    assert "derived 100.0us" in violations[0]
    assert [row[-1] for row in fig.rows] == ["NO"]


def test_slack_absorbs_microsecond_noise():
    # 40us over a 1us reference: ratio is terrible but absolute cost
    # sits inside the 50us slack -- not a violation
    timer = FakeTimer([40e-6, 1e-6])
    _fig, violations = run_guidelines(
        cases=[_case()], repeats=1, timer=timer,
        tolerance=1.0, slack=DEFAULT_SLACK)
    assert violations == []


def test_best_of_repeats_takes_the_minimum():
    # derived: 50us, 2us, 50us -> best 2us; reference: 3us each
    timer = FakeTimer([50e-6, 2e-6, 50e-6, 3e-6, 3e-6, 3e-6])
    fig, violations = run_guidelines(
        cases=[_case()], repeats=3, timer=timer, slack=0.0)
    assert violations == []
    row = fig.rows[0]
    assert row[2] == pytest.approx(2.0)   # derived_us
    assert row[3] == pytest.approx(3.0)   # reference_us


def test_byte_mismatch_is_a_violation_without_timing():
    bad = _case(reference=lambda: np.zeros(8, dtype=np.uint8))
    fig, violations = run_guidelines(
        cases=[bad], repeats=1, timer=FakeTimer([1e-6] * 10))
    assert len(violations) == 1
    assert "DIFFERENT bytes" in violations[0]
    assert fig.rows == []  # never timed


# -- the catalogue ------------------------------------------------------------

def test_catalogue_covers_all_three_guidelines():
    cases = guideline_cases(scale=32)
    assert {c.guideline for c in cases} == {
        "pack-vs-manual", "vector-vs-indexed", "contig-vs-vector"}
    assert len(cases) == 9
    # every case moves identical bytes before any timing happens
    for case in cases:
        got = np.asarray(case.derived()).reshape(-1).view(np.uint8)
        want = np.asarray(case.reference()).reshape(-1).view(np.uint8)
        assert np.array_equal(got, want), case.case


def test_default_gate_parameters():
    assert DEFAULT_TOLERANCE == 1.5
    assert DEFAULT_SLACK == pytest.approx(50e-6)


# -- why the CI compiler edit must trip: structural, not timed -------------

def test_unlowered_nests_explode_op_count(monkeypatch):
    n = 64
    matrix = np.zeros((n, n))
    ir.cache_clear()
    optimized = TypedBuffer(matrix, Vector(n, 1, n, DOUBLE)).plan
    ir.cache_clear()
    monkeypatch.setattr(ir, "_nest", lambda count, stride, child: None)
    try:
        unlowered = TypedBuffer(matrix, Vector(n, 1, n, DOUBLE)).plan
    finally:
        ir.cache_clear()
    # one strided op vs one interpreted python op per element block:
    # the wall-clock gap the CI self-test relies on is structural
    assert optimized.program.op_kinds() == {"strided": 1}
    assert unlowered.program.num_ops == n
    assert unlowered.program.op_kinds() == {"contig": n}
