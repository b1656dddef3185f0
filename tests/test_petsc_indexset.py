"""Tests for index sets."""

import pytest

from repro.petsc import GeneralIS, PETScError, StrideIS


def test_general_is():
    s = GeneralIS([5, 2, 9])
    assert s.indices().tolist() == [5, 2, 9]
    assert len(s) == 3


def test_general_is_rejects_2d():
    with pytest.raises(PETScError):
        GeneralIS([[1, 2], [3, 4]])


def test_stride_is():
    s = StrideIS(5, first=10, step=3)
    assert s.indices().tolist() == [10, 13, 16, 19, 22]


def test_stride_is_negative_step():
    s = StrideIS(3, first=10, step=-2)
    assert s.indices().tolist() == [10, 8, 6]


def test_stride_is_empty():
    assert len(StrideIS(0)) == 0


def test_stride_is_zero_step_rejected():
    with pytest.raises(PETScError):
        StrideIS(3, 0, 0)


def test_validate_against():
    s = GeneralIS([0, 5, 9])
    s.validate_against(10)
    with pytest.raises(PETScError):
        s.validate_against(9)
    with pytest.raises(PETScError):
        GeneralIS([-1]).validate_against(10)
    GeneralIS([]).validate_against(0)  # empty always fine
