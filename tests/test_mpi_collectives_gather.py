"""Tests for the uniform-volume data collectives: allgather (Allgatherv
with equal counts) and alltoall."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_allgather_uniform(n):
    cluster = make_cluster(n)

    def main(comm):
        send = np.full(3, float(comm.rank))
        recv = np.zeros(3 * n)
        yield from comm.allgatherv(send, recv, [3] * n)
        return recv

    expect = np.repeat(np.arange(n, dtype=np.float64), 3)
    for r in cluster.run(main):
        assert np.array_equal(r, expect)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 3, 5, 6])
def test_alltoall_uniform(n):
    cluster = make_cluster(n)
    count = 2

    def main(comm):
        send = np.concatenate(
            [np.full(count, comm.rank * 100.0 + dst) for dst in range(n)]
        )
        recv = np.zeros(n * count)
        yield from comm.alltoall(send, recv, count)
        return recv

    results = cluster.run(main)
    for rank, r in enumerate(results):
        expect = np.concatenate(
            [np.full(count, src * 100.0 + rank) for src in range(n)]
        )
        assert np.array_equal(r, expect), rank


def test_alltoall_buffer_size_validated():
    cluster = make_cluster(2)

    def main(comm):
        yield from comm.alltoall(np.zeros(2), np.zeros(2), count=2)

    with pytest.raises(Exception):
        cluster.run(main)
