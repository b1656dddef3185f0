"""Tests for MPIConfig and CostModel configuration plumbing."""

import dataclasses

import pytest

from repro.mpi import MPIConfig
from repro.util import CostLedger, CostModel


def test_baseline_and_optimized_flags():
    base = MPIConfig.baseline()
    opt = MPIConfig.optimized()
    assert not base.dual_context_engine and opt.dual_context_engine
    assert not base.adaptive_allgatherv and opt.adaptive_allgatherv
    assert not base.binned_alltoallw and opt.binned_alltoallw
    assert base.name == "MVAPICH2-0.9.5"
    assert opt.name == "MVAPICH2-New"


def test_config_with_creates_modified_copy():
    base = MPIConfig.baseline()
    tweaked = base.with_(dual_context_engine=True, eager_threshold=1)
    assert tweaked.dual_context_engine
    assert tweaked.eager_threshold == 1
    assert not base.dual_context_engine  # original untouched


def test_with_appends_flag_suffix_to_name():
    base = MPIConfig.baseline()
    assert base.with_(adaptive_allgatherv=True).name == \
        "MVAPICH2-0.9.5+adaptive_allgatherv"
    assert MPIConfig.optimized().with_(binned_alltoallw=False).name == \
        "MVAPICH2-New-binned_alltoallw"
    # multiple changed flags: suffixes in field-declaration order
    both = base.with_(binned_alltoallw=True, adaptive_allgatherv=True)
    assert both.name == "MVAPICH2-0.9.5+adaptive_allgatherv+binned_alltoallw"


def test_with_suffix_skips_unchanged_and_nonflag_fields():
    base = MPIConfig.baseline()
    # passing the current value is not a change
    assert base.with_(adaptive_allgatherv=False).name == base.name
    # non-boolean fields never rename
    assert base.with_(eager_threshold=1).name == base.name


def test_with_explicit_name_wins():
    cfg = MPIConfig.baseline().with_(adaptive_allgatherv=True, name="Custom")
    assert cfg.name == "Custom"


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        MPIConfig.baseline().eager_threshold = 0


def test_costmodel_with_and_frozen():
    cost = CostModel()
    tweaked = cost.with_(alpha=1e-6)
    assert tweaked.alpha == 1e-6
    assert cost.alpha != 1e-6
    with pytest.raises(dataclasses.FrozenInstanceError):
        cost.alpha = 0.0


@pytest.mark.parametrize("kwargs, field", [
    ({"pipeline_chunk": 0}, "pipeline_chunk"),
    ({"pipeline_chunk": -16}, "pipeline_chunk"),
    ({"alpha": -1e-6}, "alpha"),
    ({"copy_byte": -1e-12}, "copy_byte"),
    ({"block_overhead": -7e-9}, "block_overhead"),
    ({"flop": -0.9e-9}, "flop"),
    ({"io_byte": -2e-9}, "io_byte"),
])
def test_costmodel_rejects_stalling_chunk_and_negative_times(kwargs, field):
    with pytest.raises(ValueError, match=field):
        CostModel(**kwargs)
    with pytest.raises(ValueError, match=field):
        CostModel().with_(**kwargs)


def test_costmodel_accepts_zero_times_and_one_byte_chunks():
    cost = CostModel(alpha=0.0, copy_byte=0.0, pipeline_chunk=1)
    assert cost.transfer_time(0) == 0.0


def test_transfer_time_monotone():
    cost = CostModel()
    assert cost.transfer_time(10) < cost.transfer_time(10_000)
    assert cost.transfer_time(0) == cost.alpha


def test_ledger_charge_and_fractions():
    led = CostLedger()
    led.charge("a", 3.0)
    led.charge("b", 1.0)
    led.charge("a", 1.0)
    assert led.get("a") == 4.0
    assert led.total == 5.0
    fr = led.fractions()
    assert fr["a"] == pytest.approx(0.8)
    assert fr["b"] == pytest.approx(0.2)


def test_ledger_negative_rejected():
    with pytest.raises(ValueError):
        CostLedger().charge("x", -1.0)


def test_ledger_merge():
    a = CostLedger()
    a.charge("x", 1.0)
    b = CostLedger()
    b.charge("x", 2.0)
    b.charge("y", 3.0)
    merged = a.merged(b)
    assert merged.get("x") == 3.0
    assert merged.get("y") == 3.0
    assert a.get("x") == 1.0  # originals untouched


def test_empty_ledger_fractions():
    assert CostLedger().fractions() == {}
    led = CostLedger()
    led.charge("z", 0.0)
    assert led.fractions() == {"z": 0.0}
