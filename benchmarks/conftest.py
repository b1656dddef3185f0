"""Shared helpers for the figure benchmarks.

Each figure benchmark runs its full sweep exactly once (the measured
quantity is *simulated* time; pytest-benchmark's wall-clock statistics are
only meaningful for the kernel benchmarks), prints the paper-style table,
and asserts the shape targets from DESIGN.md section 4.
"""

import sys
import os

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under pytest-benchmark and return its
    result (pedantic mode: one round, one iteration)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
