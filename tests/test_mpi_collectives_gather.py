"""Tests for gatherv, scatterv, allgather, alltoall."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


@pytest.mark.parametrize("n,root", [(1, 0), (3, 0), (4, 2), (6, 5)])
def test_gatherv(n, root):
    cluster = make_cluster(n)
    counts = [(r % 3) + 1 for r in range(n)]
    total = sum(counts)

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank))
        if comm.rank == root:
            recv = np.zeros(total)
            yield from comm.gatherv(send, recv, counts, root=root)
            return recv
        result = yield from comm.gatherv(send, root=root)
        return result

    results = cluster.run(main)
    expect = np.concatenate([np.full(c, float(r)) for r, c in enumerate(counts)])
    assert np.array_equal(results[root], expect)


def test_gatherv_with_zero_counts():
    n = 4
    cluster = make_cluster(n)
    counts = [2, 0, 3, 0]

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank))
        if comm.rank == 0:
            recv = np.zeros(5)
            yield from comm.gatherv(send, recv, counts)
            return recv
        yield from comm.gatherv(send)
        return None

    got = cluster.run(main)[0]
    assert got.tolist() == [0.0, 0.0, 2.0, 2.0, 2.0]


def test_gatherv_root_missing_args():
    cluster = make_cluster(2)

    def main(comm):
        yield from comm.gatherv(np.zeros(2))

    with pytest.raises(Exception):
        cluster.run(main)


@pytest.mark.parametrize("n,root", [(1, 0), (3, 1), (5, 0)])
def test_scatterv(n, root):
    cluster = make_cluster(n)
    counts = [r + 1 for r in range(n)]
    total = sum(counts)

    def main(comm):
        recv = np.zeros(counts[comm.rank])
        if comm.rank == root:
            send = np.arange(total, dtype=np.float64)
            yield from comm.scatterv(send, counts, recvbuf=recv, root=root)
        else:
            yield from comm.scatterv(recvbuf=recv, root=root)
        return recv

    results = cluster.run(main)
    displs = np.concatenate(([0], np.cumsum(counts[:-1])))
    for rank, r in enumerate(results):
        expect = np.arange(displs[rank], displs[rank] + counts[rank], dtype=np.float64)
        assert np.array_equal(r, expect)


def test_scatterv_gatherv_roundtrip():
    n = 4
    cluster = make_cluster(n)
    counts = [3, 1, 4, 1]
    total = sum(counts)

    def main(comm):
        mine = np.zeros(counts[comm.rank])
        if comm.rank == 0:
            data = np.arange(total, dtype=np.float64) * 2
            yield from comm.scatterv(data, counts, recvbuf=mine)
            back = np.zeros(total)
            yield from comm.gatherv(mine, back, counts)
            return back
        yield from comm.scatterv(recvbuf=mine)
        yield from comm.gatherv(mine)
        return None

    got = cluster.run(main)[0]
    assert np.array_equal(got, np.arange(total, dtype=np.float64) * 2)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_allgather_uniform(n):
    cluster = make_cluster(n)

    def main(comm):
        send = np.full(3, float(comm.rank))
        recv = np.zeros(3 * n)
        yield from comm.allgather(send, recv)
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
