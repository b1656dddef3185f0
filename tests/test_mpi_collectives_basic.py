"""Tests for barrier, bcast, allreduce, gather."""

import operator

import pytest

from repro.mpi import Cluster, MPIConfig
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n, **kw):
    kw.setdefault("cost", QUIET)
    kw.setdefault("heterogeneous", False)
    return Cluster(n, config=MPIConfig.optimized(), **kw)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 16])
def test_barrier_completes(n):
    cluster = make_cluster(n)

    def main(comm):
        yield from comm.barrier()
        return comm.engine.now

    results = cluster.run(main)
    assert len(results) == n


def test_barrier_synchronises():
    """No rank leaves the barrier before the slowest rank has entered it."""
    cluster = make_cluster(4)
    entered = {}
    left = {}

    def main(comm):
        yield from comm.cpu(float(comm.rank))  # rank r enters at t=r
        entered[comm.rank] = comm.engine.now
        yield from comm.barrier()
        left[comm.rank] = comm.engine.now

    cluster.run(main)
    assert max(entered.values()) == pytest.approx(3.0)
    assert all(t >= 3.0 for t in left.values())


@pytest.mark.parametrize("n,root", [(1, 0), (2, 0), (5, 2), (8, 7), (9, 3)])
def test_bcast_delivers_to_all(n, root):
    cluster = make_cluster(n)

    def main(comm):
        value = {"payload": 42} if comm.rank == root else None
        result = yield from comm.bcast(value, root=root)
        return result["payload"]

    assert cluster.run(main) == [42] * n


def test_bcast_invalid_root():
    cluster = make_cluster(2)

    def main(comm):
        yield from comm.bcast(1, root=5)

    with pytest.raises(ValueError):
        cluster.run(main)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 8, 16, 17])
def test_allreduce_sum(n):
    cluster = make_cluster(n)

    def main(comm):
        result = yield from comm.allreduce(comm.rank + 1)
        return result

    expect = n * (n + 1) // 2
    assert cluster.run(main) == [expect] * n


@pytest.mark.parametrize("n", [2, 5, 8])
def test_allreduce_max(n):
    cluster = make_cluster(n)

    def main(comm):
        result = yield from comm.allreduce(float(comm.rank), op=max)
        return result

    assert cluster.run(main) == [float(n - 1)] * n


def test_allreduce_custom_op():
    cluster = make_cluster(4)

    def main(comm):
        result = yield from comm.allreduce(comm.rank + 1, op=operator.mul)
        return result

    assert cluster.run(main) == [24] * 4


@pytest.mark.parametrize("n,root", [(1, 0), (4, 0), (5, 4)])
def test_gather_obj(n, root):
    cluster = make_cluster(n)

    def main(comm):
        result = yield from comm.gather_obj(comm.rank * 10, root=root)
        return result

    results = cluster.run(main)
    assert results[root] == [r * 10 for r in range(n)]
    assert all(results[r] is None for r in range(n) if r != root)


def test_back_to_back_collectives_do_not_cross_match():
    cluster = make_cluster(4)

    def main(comm):
        a = yield from comm.allreduce(1)
        b = yield from comm.allreduce(comm.rank)
        yield from comm.barrier()
        c = yield from comm.bcast(comm.rank if comm.rank == 2 else None, root=2)
        return (a, b, c)

    assert cluster.run(main) == [(4, 6, 2)] * 4
