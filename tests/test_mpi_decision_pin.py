"""Every selection decision is pinned: ``(algorithm, policy, reason,
detect_seconds)`` for every registered collective over a grid of
communicator sizes, volume sets, contiguity and configs.  The rows were
recorded before the flag-driven rule became the one selection mechanism,
and no decision has moved since.

Decisions are grouped per (config, collective): each distinct decision maps
to the grid points (``N/volumes/c|nc``) that get it, ``"*"`` meaning all of
them.  Run this file as a script to print the current tree's table.
"""

import textwrap

import pytest

from repro.mpi import MPIConfig
from repro.mpi.algorithms import (
    REGISTRY,
    SelectionContext,
    decide,
)
from repro.util.costmodel import CostModel

BASE = MPIConfig.baseline()
OPT = MPIConfig.optimized()
CONFIGS = {
    "baseline": BASE,
    "optimized": OPT,
    "baseline+adaptive_allgatherv": BASE.with_(adaptive_allgatherv=True),
    "optimized-binned_alltoallw": OPT.with_(binned_alltoallw=False),
}

SIZES = (1, 3, 4, 8, 64)
VOLUMES = {
    "short-uniform": lambda n: [64] * n,
    "long-uniform": lambda n: [32768] * n,
    "long-outlier": lambda n: [262144] + [64] * (n - 1),
    "sparse": lambda n: [0] * (n - 1) + [800],
    "mixed": lambda n: [64 if i % 2 else 65536 for i in range(n)],
    "zero": lambda n: [0] * n,
}

def _grid(collective):
    for n in SIZES:
        for label, volumes in VOLUMES.items():
            for contiguous in (True, False):
                ctx = SelectionContext(
                    collective=collective, size=n,
                    volumes=tuple(volumes(n)), dtype_size=8,
                    contiguous=contiguous, cost=CostModel())
                yield f"{n}/{label}/{'c' if contiguous else 'nc'}", ctx


def _decide(config, collective):
    groups = {}
    points = 0
    for point, ctx in _grid(collective):
        d = decide(config, ctx)
        key = f"{d.algorithm} {d.policy} {d.reason} {d.detect_seconds!r}"
        groups.setdefault(key, []).append(point)
        points += 1
    return {key: ["*"] if len(pts) == points else pts
            for key, pts in groups.items()}


def decision_table():
    table = {}
    for name, config in CONFIGS.items():
        for collective in REGISTRY.collectives():
            table[f"{name} {collective}"] = _decide(config, collective)
    return table


EXPECTED = {
    'baseline allgatherv': {
        'recursive_doubling mpich mpich:short 0.0':
            ['1/short-uniform/c', '1/sparse/c', '1/zero/c', '4/short-uniform/c', '4/sparse/c',
             '4/zero/c', '8/short-uniform/c', '8/sparse/c', '8/zero/c', '64/short-uniform/c',
             '64/sparse/c', '64/zero/c'],
        'ring mpich mpich:noncontiguous 0.0':
            ['1/short-uniform/nc', '1/long-uniform/nc', '1/long-outlier/nc', '1/sparse/nc',
             '1/mixed/nc', '1/zero/nc', '3/short-uniform/nc', '3/long-uniform/nc',
             '3/long-outlier/nc', '3/sparse/nc', '3/mixed/nc', '3/zero/nc', '4/short-uniform/nc',
             '4/long-uniform/nc', '4/long-outlier/nc', '4/sparse/nc', '4/mixed/nc', '4/zero/nc',
             '8/short-uniform/nc', '8/long-uniform/nc', '8/long-outlier/nc', '8/sparse/nc',
             '8/mixed/nc', '8/zero/nc', '64/short-uniform/nc', '64/long-uniform/nc',
             '64/long-outlier/nc', '64/sparse/nc', '64/mixed/nc', '64/zero/nc'],
        'ring mpich mpich:long 0.0':
            ['1/long-uniform/c', '1/long-outlier/c', '1/mixed/c', '3/long-uniform/c',
             '3/long-outlier/c', '3/mixed/c', '4/long-uniform/c', '4/long-outlier/c', '4/mixed/c',
             '8/long-uniform/c', '8/long-outlier/c', '8/mixed/c', '64/long-uniform/c',
             '64/long-outlier/c', '64/mixed/c'],
        'dissemination mpich mpich:short 0.0':
            ['3/short-uniform/c', '3/sparse/c', '3/zero/c'],
    },
    'baseline allreduce': {
        'recursive_doubling mpich sole 0.0':
            ['*'],
    },
    'baseline alltoall': {
        'pairwise mpich sole 0.0':
            ['*'],
    },
    'baseline alltoallw': {
        'round_robin mpich mpich 0.0':
            ['*'],
    },
    'baseline barrier': {
        'dissemination mpich sole 0.0':
            ['*'],
    },
    'baseline bcast': {
        'binomial mpich sole 0.0':
            ['*'],
    },
    'baseline gather_obj': {
        'linear mpich sole 0.0':
            ['*'],
    },
    'baseline sparse_alltoall': {
        'dense mpich mpich 0.0':
            ['*'],
    },
    'optimized allgatherv': {
        'recursive_doubling adaptive adaptive:short 0.0':
            ['1/short-uniform/c', '1/sparse/c', '1/zero/c', '4/short-uniform/c', '4/sparse/c',
             '4/zero/c', '8/short-uniform/c', '8/sparse/c', '8/zero/c', '64/short-uniform/c',
             '64/sparse/c', '64/zero/c'],
        'ring adaptive adaptive:noncontiguous 0.0':
            ['1/short-uniform/nc', '1/long-uniform/nc', '1/long-outlier/nc', '1/sparse/nc',
             '1/mixed/nc', '1/zero/nc', '3/short-uniform/nc', '3/long-uniform/nc',
             '3/long-outlier/nc', '3/sparse/nc', '3/mixed/nc', '3/zero/nc', '4/short-uniform/nc',
             '4/long-uniform/nc', '4/long-outlier/nc', '4/sparse/nc', '4/mixed/nc', '4/zero/nc',
             '8/short-uniform/nc', '8/long-uniform/nc', '8/long-outlier/nc', '8/sparse/nc',
             '8/mixed/nc', '8/zero/nc', '64/short-uniform/nc', '64/long-uniform/nc',
             '64/long-outlier/nc', '64/sparse/nc', '64/mixed/nc', '64/zero/nc'],
        'ring adaptive adaptive:uniform 5e-09':
            ['1/long-uniform/c', '1/long-outlier/c', '1/mixed/c'],
        'dissemination adaptive adaptive:short 0.0':
            ['3/short-uniform/c', '3/sparse/c', '3/zero/c'],
        'ring adaptive adaptive:uniform 1.5000000000000002e-08':
            ['3/long-uniform/c', '3/mixed/c'],
        'dissemination adaptive adaptive:outliers 1.5000000000000002e-08':
            ['3/long-outlier/c'],
        'ring adaptive adaptive:uniform 2e-08':
            ['4/long-uniform/c', '4/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 2e-08':
            ['4/long-outlier/c'],
        'ring adaptive adaptive:uniform 4e-08':
            ['8/long-uniform/c', '8/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 4e-08':
            ['8/long-outlier/c'],
        'ring adaptive adaptive:uniform 3.2e-07':
            ['64/long-uniform/c', '64/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 3.2e-07':
            ['64/long-outlier/c'],
    },
    'optimized allreduce': {
        'recursive_doubling adaptive sole 0.0':
            ['*'],
    },
    'optimized alltoall': {
        'pairwise adaptive sole 0.0':
            ['*'],
    },
    'optimized alltoallw': {
        'binned adaptive adaptive 0.0':
            ['*'],
    },
    'optimized barrier': {
        'dissemination adaptive sole 0.0':
            ['*'],
    },
    'optimized bcast': {
        'binomial adaptive sole 0.0':
            ['*'],
    },
    'optimized gather_obj': {
        'linear adaptive sole 0.0':
            ['*'],
    },
    'optimized sparse_alltoall': {
        'nbx adaptive adaptive 0.0':
            ['1/short-uniform/c', '1/short-uniform/nc', '1/long-uniform/c', '1/long-uniform/nc',
             '1/long-outlier/c', '1/long-outlier/nc', '1/sparse/c', '1/sparse/nc', '1/mixed/c',
             '1/mixed/nc', '1/zero/c', '1/zero/nc', '3/short-uniform/c', '3/short-uniform/nc',
             '3/long-uniform/c', '3/long-uniform/nc', '3/sparse/c', '3/sparse/nc', '3/zero/c',
             '3/zero/nc', '4/short-uniform/c', '4/short-uniform/nc', '4/long-uniform/c',
             '4/long-uniform/nc', '4/sparse/c', '4/sparse/nc', '4/zero/c', '4/zero/nc',
             '8/short-uniform/c', '8/short-uniform/nc', '8/long-uniform/c', '8/long-uniform/nc',
             '8/sparse/c', '8/sparse/nc', '8/zero/c', '8/zero/nc', '64/short-uniform/c',
             '64/short-uniform/nc', '64/long-uniform/c', '64/long-uniform/nc', '64/sparse/c',
             '64/sparse/nc', '64/zero/c', '64/zero/nc'],
        'nbx_binned adaptive adaptive:mixed-sizes 0.0':
            ['3/long-outlier/c', '3/long-outlier/nc', '3/mixed/c', '3/mixed/nc',
             '4/long-outlier/c', '4/long-outlier/nc', '4/mixed/c', '4/mixed/nc',
             '8/long-outlier/c', '8/long-outlier/nc', '8/mixed/c', '8/mixed/nc',
             '64/long-outlier/c', '64/long-outlier/nc', '64/mixed/c', '64/mixed/nc'],
    },
    'baseline+adaptive_allgatherv allgatherv': {
        'recursive_doubling adaptive adaptive:short 0.0':
            ['1/short-uniform/c', '1/sparse/c', '1/zero/c', '4/short-uniform/c', '4/sparse/c',
             '4/zero/c', '8/short-uniform/c', '8/sparse/c', '8/zero/c', '64/short-uniform/c',
             '64/sparse/c', '64/zero/c'],
        'ring adaptive adaptive:noncontiguous 0.0':
            ['1/short-uniform/nc', '1/long-uniform/nc', '1/long-outlier/nc', '1/sparse/nc',
             '1/mixed/nc', '1/zero/nc', '3/short-uniform/nc', '3/long-uniform/nc',
             '3/long-outlier/nc', '3/sparse/nc', '3/mixed/nc', '3/zero/nc', '4/short-uniform/nc',
             '4/long-uniform/nc', '4/long-outlier/nc', '4/sparse/nc', '4/mixed/nc', '4/zero/nc',
             '8/short-uniform/nc', '8/long-uniform/nc', '8/long-outlier/nc', '8/sparse/nc',
             '8/mixed/nc', '8/zero/nc', '64/short-uniform/nc', '64/long-uniform/nc',
             '64/long-outlier/nc', '64/sparse/nc', '64/mixed/nc', '64/zero/nc'],
        'ring adaptive adaptive:uniform 5e-09':
            ['1/long-uniform/c', '1/long-outlier/c', '1/mixed/c'],
        'dissemination adaptive adaptive:short 0.0':
            ['3/short-uniform/c', '3/sparse/c', '3/zero/c'],
        'ring adaptive adaptive:uniform 1.5000000000000002e-08':
            ['3/long-uniform/c', '3/mixed/c'],
        'dissemination adaptive adaptive:outliers 1.5000000000000002e-08':
            ['3/long-outlier/c'],
        'ring adaptive adaptive:uniform 2e-08':
            ['4/long-uniform/c', '4/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 2e-08':
            ['4/long-outlier/c'],
        'ring adaptive adaptive:uniform 4e-08':
            ['8/long-uniform/c', '8/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 4e-08':
            ['8/long-outlier/c'],
        'ring adaptive adaptive:uniform 3.2e-07':
            ['64/long-uniform/c', '64/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 3.2e-07':
            ['64/long-outlier/c'],
    },
    'baseline+adaptive_allgatherv allreduce': {
        'recursive_doubling mpich sole 0.0':
            ['*'],
    },
    'baseline+adaptive_allgatherv alltoall': {
        'pairwise mpich sole 0.0':
            ['*'],
    },
    'baseline+adaptive_allgatherv alltoallw': {
        'round_robin mpich mpich 0.0':
            ['*'],
    },
    'baseline+adaptive_allgatherv barrier': {
        'dissemination mpich sole 0.0':
            ['*'],
    },
    'baseline+adaptive_allgatherv bcast': {
        'binomial mpich sole 0.0':
            ['*'],
    },
    'baseline+adaptive_allgatherv gather_obj': {
        'linear mpich sole 0.0':
            ['*'],
    },
    'baseline+adaptive_allgatherv sparse_alltoall': {
        'dense mpich mpich 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw allgatherv': {
        'recursive_doubling adaptive adaptive:short 0.0':
            ['1/short-uniform/c', '1/sparse/c', '1/zero/c', '4/short-uniform/c', '4/sparse/c',
             '4/zero/c', '8/short-uniform/c', '8/sparse/c', '8/zero/c', '64/short-uniform/c',
             '64/sparse/c', '64/zero/c'],
        'ring adaptive adaptive:noncontiguous 0.0':
            ['1/short-uniform/nc', '1/long-uniform/nc', '1/long-outlier/nc', '1/sparse/nc',
             '1/mixed/nc', '1/zero/nc', '3/short-uniform/nc', '3/long-uniform/nc',
             '3/long-outlier/nc', '3/sparse/nc', '3/mixed/nc', '3/zero/nc', '4/short-uniform/nc',
             '4/long-uniform/nc', '4/long-outlier/nc', '4/sparse/nc', '4/mixed/nc', '4/zero/nc',
             '8/short-uniform/nc', '8/long-uniform/nc', '8/long-outlier/nc', '8/sparse/nc',
             '8/mixed/nc', '8/zero/nc', '64/short-uniform/nc', '64/long-uniform/nc',
             '64/long-outlier/nc', '64/sparse/nc', '64/mixed/nc', '64/zero/nc'],
        'ring adaptive adaptive:uniform 5e-09':
            ['1/long-uniform/c', '1/long-outlier/c', '1/mixed/c'],
        'dissemination adaptive adaptive:short 0.0':
            ['3/short-uniform/c', '3/sparse/c', '3/zero/c'],
        'ring adaptive adaptive:uniform 1.5000000000000002e-08':
            ['3/long-uniform/c', '3/mixed/c'],
        'dissemination adaptive adaptive:outliers 1.5000000000000002e-08':
            ['3/long-outlier/c'],
        'ring adaptive adaptive:uniform 2e-08':
            ['4/long-uniform/c', '4/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 2e-08':
            ['4/long-outlier/c'],
        'ring adaptive adaptive:uniform 4e-08':
            ['8/long-uniform/c', '8/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 4e-08':
            ['8/long-outlier/c'],
        'ring adaptive adaptive:uniform 3.2e-07':
            ['64/long-uniform/c', '64/mixed/c'],
        'recursive_doubling adaptive adaptive:outliers 3.2e-07':
            ['64/long-outlier/c'],
    },
    'optimized-binned_alltoallw allreduce': {
        'recursive_doubling mpich sole 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw alltoall': {
        'pairwise mpich sole 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw alltoallw': {
        'round_robin mpich mpich 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw barrier': {
        'dissemination mpich sole 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw bcast': {
        'binomial mpich sole 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw gather_obj': {
        'linear mpich sole 0.0':
            ['*'],
    },
    'optimized-binned_alltoallw sparse_alltoall': {
        'dense mpich mpich 0.0':
            ['*'],
    },
}


@pytest.fixture(scope="module")
def current():
    return decision_table()


@pytest.mark.parametrize("row", sorted(EXPECTED))
def test_decisions_match_the_recorded_table(row, current):
    assert current[row] == EXPECTED[row]


def test_the_table_covers_every_row(current):
    assert sorted(current) == sorted(EXPECTED)


if __name__ == "__main__":
    print("EXPECTED = {")
    for row, groups in decision_table().items():
        print(f"    {row!r}: {{")
        for key, points in groups.items():
            print(f"        {key!r}:")
            print(textwrap.fill(repr(points), 99, initial_indent=" " * 12,
                                subsequent_indent=" " * 13,
                                break_on_hyphens=False) + ",")
        print("    },")
    print("}")
