"""Smoke tests: the fast example scripts must run to completion.

(The slower examples -- reproduce_paper, laplacian3d_solver,
fem_unstructured, amr_refinement -- are not run here: the apps they drive
have their own tests in ``tests/test_apps_*.py``, and the figures that
reproduce_paper prints are asserted by the ``benchmarks/`` suite.)
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "ghost_exchange_2d.py",
        "nonuniform_collectives.py",
        "trace_communication.py",
        "profile_breakdown.py",
        "critical_path.py",
        "checkpoint_io.py",
    ],
)
def test_example_runs(script, capsys):
    run_example(script)
    out = capsys.readouterr().out
    assert len(out) > 100  # it printed its report
