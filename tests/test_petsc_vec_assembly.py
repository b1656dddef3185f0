"""Tests for VecSetValues-style global entry setting and extra norms."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.petsc import Layout, PETScError, Vec
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_set_values_local_insert_is_immediate():
    cluster = make_cluster(2)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 8))
        start, _ = v.owned_range
        v.set_values([start], [42.0])
        yield from v.assemble()
        return v.local.copy()

    results = cluster.run(main)
    assert results[0][0] == 42.0
    assert results[1][0] == 42.0


def test_set_values_offrank_lands_after_assembly():
    cluster = make_cluster(4)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 8))
        if comm.rank == 0:
            v.set_values(list(range(8)), [float(i * 10) for i in range(8)])
        yield from v.assemble()
        return v.local.copy()

    got = np.concatenate(cluster.run(main))
    assert got.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]


def test_add_mode_accumulates_across_ranks():
    cluster = make_cluster(4)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 4))
        # every rank adds 1 to every entry
        v.set_values(list(range(4)), [1.0] * 4, mode="add")
        yield from v.assemble()
        return v.local.copy()

    got = np.concatenate(cluster.run(main))
    assert np.all(got == 4.0)


def test_mixed_modes_rejected():
    cluster = make_cluster(2)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 4))
        v.set_values([0], [1.0], mode="insert")
        with pytest.raises(PETScError):
            v.set_values([1], [1.0], mode="add")
        yield from comm.barrier()
        return True

    assert all(cluster.run(main))


def test_conflicting_modes_across_ranks_detected():
    cluster = make_cluster(2)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 4))
        other = 1 - comm.rank
        target = v.layout.start(other)
        v.set_values([target], [1.0], mode="insert" if comm.rank == 0 else "add")
        yield from v.assemble()

    with pytest.raises(PETScError):
        cluster.run(main)


def test_length_mismatch_rejected():
    cluster = make_cluster(1)

    def main(comm):
        v = Vec(comm, Layout(1, 4))
        v.set_values([0, 1], [1.0])
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)


def test_assembly_without_stash_is_noop():
    cluster = make_cluster(3)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 9))
        yield from v.set(5.0)
        yield from v.assemble()
        return float(v.local[0])

    assert cluster.run(main) == [5.0, 5.0, 5.0]


def test_norm_kinds():
    cluster = make_cluster(2)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 4))
        start, end = v.owned_range
        vals = np.array([3.0, -4.0, 0.0, 2.0])
        v.local[:] = vals[start:end]
        n2 = yield from v.norm()
        n1 = yield from v.norm("1")
        ninf = yield from v.norm("inf")
        return n2, n1, ninf

    for n2, n1, ninf in cluster.run(main):
        assert n2 == pytest.approx(np.sqrt(9 + 16 + 4))
        assert n1 == pytest.approx(9.0)
        assert ninf == pytest.approx(4.0)


def test_gather_to_all():
    cluster = make_cluster(3)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 10, [6, 3, 1]))
        start, end = v.owned_range
        v.local[:] = np.arange(start, end, dtype=np.float64) * 2
        full = yield from v.gather_to_all()
        return full

    for full in cluster.run(main):
        assert np.array_equal(full, np.arange(10, dtype=np.float64) * 2)


def test_unknown_norm_rejected():
    cluster = make_cluster(1)

    def main(comm):
        v = Vec(comm, Layout(1, 2))
        yield from v.norm("7")

    with pytest.raises(PETScError):
        cluster.run(main)
