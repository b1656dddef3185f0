"""Tests for communicator dup/split (groups and matching contexts)."""

import numpy as np

from repro.mpi import Cluster, MPIConfig
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_dup_preserves_group():
    cluster = make_cluster(4)

    def main(comm):
        dup = comm.dup()
        yield from comm.barrier()
        return dup.rank, dup.size, dup.ctx != comm.ctx

    results = cluster.run(main)
    assert [r[:2] for r in results] == [(r, 4) for r in range(4)]
    assert all(r[2] for r in results)


def test_dup_isolates_messages():
    """A send on the dup must not match a recv on the parent."""
    cluster = make_cluster(2)

    def main(comm):
        dup = comm.dup()
        if comm.rank == 0:
            # same tag, different communicators
            r1 = yield from comm.isend(np.array([1.0]), dest=1, tag=5)
            r2 = yield from dup.isend(np.array([2.0]), dest=1, tag=5)
            yield from r1.wait()
            yield from r2.wait()
            return None
        buf_dup = np.zeros(1)
        yield from dup.recv(buf_dup, source=0, tag=5)
        buf_parent = np.zeros(1)
        yield from comm.recv(buf_parent, source=0, tag=5)
        return buf_parent[0], buf_dup[0]

    results = cluster.run(main)
    assert results[1] == (1.0, 2.0)


def test_split_even_odd():
    cluster = make_cluster(6)

    def main(comm):
        sub = yield from comm.split(color=comm.rank % 2)
        # ranks 0,2,4 -> color 0 sub-ranks 0,1,2; ranks 1,3,5 -> color 1
        total = yield from sub.allreduce(comm.rank)
        return sub.rank, sub.size, total

    results = cluster.run(main)
    assert results[0] == (0, 3, 0 + 2 + 4)
    assert results[1] == (0, 3, 1 + 3 + 5)
    assert results[4] == (2, 3, 6)
    assert results[5] == (2, 3, 9)


def test_split_with_key_reorders():
    cluster = make_cluster(4)

    def main(comm):
        # reverse the rank order within the new communicator
        sub = yield from comm.split(color=0, key=-comm.rank)
        yield from comm.barrier()
        return sub.rank

    assert cluster.run(main) == [3, 2, 1, 0]


def test_split_undefined_color():
    cluster = make_cluster(4)

    def main(comm):
        sub = yield from comm.split(color=0 if comm.rank < 2 else None)
        if sub is None:
            return None
        s = yield from sub.allreduce(1)
        return s

    results = cluster.run(main)
    assert results[:2] == [2, 2]
    assert results[2:] == [None, None]


def test_subcommunicator_p2p_uses_local_ranks():
    cluster = make_cluster(4)

    def main(comm):
        # upper half: global ranks 2,3 become sub ranks 0,1
        color = comm.rank // 2
        sub = yield from comm.split(color)
        if sub.rank == 0:
            yield from sub.send(np.array([float(comm.rank)]), dest=1)
            return None
        buf = np.zeros(1)
        status = yield from sub.recv(buf, source=0)
        return buf[0], status.source

    results = cluster.run(main)
    assert results[1] == (0.0, 0)   # received from global 0 = sub rank 0
    assert results[3] == (2.0, 0)   # received from global 2 = sub rank 0


def test_collectives_on_subcommunicator():
    cluster = make_cluster(8)

    def main(comm):
        sub = yield from comm.split(comm.rank % 2)
        v = yield from sub.bcast(comm.rank if sub.rank == 0 else None, root=0)
        out = np.zeros(sub.size)
        yield from sub.allgatherv(np.array([float(comm.rank)]), out,
                                  [1] * sub.size)
        return v, out.sum()

    results = cluster.run(main)
    # evens' root is global 0; odds' root is global 1
    assert [r[0] for r in results] == [0, 1, 0, 1, 0, 1, 0, 1]
    assert results[0][1] == 0 + 2 + 4 + 6
    assert results[1][1] == 1 + 3 + 5 + 7


def test_nested_split():
    cluster = make_cluster(8)

    def main(comm):
        half = yield from comm.split(comm.rank // 4)       # two halves
        quarter = yield from half.split(half.rank // 2)    # four quarters
        s = yield from quarter.allreduce(comm.rank)
        return s

    results = cluster.run(main)
    assert results == [1, 1, 5, 5, 9, 9, 13, 13]


def test_split_heavy_use_with_petsc_vec():
    """Sub-communicators drive independent PETSc vectors."""
    from repro.petsc import Layout, Vec

    cluster = make_cluster(4)

    def main(comm):
        sub = yield from comm.split(comm.rank % 2)
        lay = Layout(sub.size, 10)
        v = Vec(sub, lay)
        yield from v.set(float(comm.rank % 2 + 1))
        s = yield from v.sum()
        return s

    results = cluster.run(main)
    assert results == [10.0, 20.0, 10.0, 20.0]
