"""Tests for Layout and Vec."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.petsc import Layout, PETScError, Vec
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_layout_even_split():
    lay = Layout(4, 100)
    assert lay.local_sizes == [25, 25, 25, 25]
    assert lay.start(2) == 50 and lay.end(2) == 75


def test_layout_uneven_split():
    lay = Layout(3, 10)
    assert lay.local_sizes == [4, 3, 3]
    assert sum(lay.local_sizes) == 10


def test_layout_explicit_sizes():
    lay = Layout(3, 10, [5, 0, 5])
    assert lay.local_sizes == [5, 0, 5]
    with pytest.raises(PETScError):
        Layout(3, 10, [5, 5, 5])


def test_layout_owners_vectorised():
    lay = Layout(4, 100)
    owners = lay.owners(np.array([0, 24, 25, 99]))
    assert owners.tolist() == [0, 0, 1, 3]
    with pytest.raises(PETScError):
        lay.owners(np.array([100]))


def test_layout_to_local():
    lay = Layout(4, 100)
    assert lay.to_local(np.array([50, 74]), 2).tolist() == [0, 24]


def test_vec_local_sizes_and_range():
    cluster = make_cluster(4)

    def main(comm):
        v = Vec(comm, Layout(comm.size, 10))
        yield from v.set(1.0)
        return v.local_size, v.owned_range

    results = cluster.run(main)
    assert results[0] == (3, (0, 3))
    assert results[3] == (2, (8, 10))


def test_vec_dot_and_norm():
    cluster = make_cluster(4)
    n = 64

    def main(comm):
        lay = Layout(comm.size, n)
        x = Vec(comm, lay)
        y = Vec(comm, lay)
        start, end = x.owned_range
        x.local[:] = np.arange(start, end, dtype=np.float64)
        yield from y.set(2.0)
        d = yield from x.dot(y)
        nn = yield from y.norm()
        return d, nn

    results = cluster.run(main)
    expect_dot = 2.0 * (n - 1) * n / 2
    expect_norm = np.sqrt(4.0 * n)
    for d, nn in results:
        assert d == pytest.approx(expect_dot)
        assert nn == pytest.approx(expect_norm)


def test_vec_axpy_family():
    cluster = make_cluster(2)

    def main(comm):
        lay = Layout(comm.size, 8)
        x = Vec(comm, lay)
        y = Vec(comm, lay)
        yield from x.set(3.0)
        yield from y.set(1.0)
        yield from y.axpy(2.0, x)       # y = 1 + 2*3 = 7
        yield from y.aypx(0.5, x)       # y = 0.5*7 + 3 = 6.5
        return float(y.local[0])

    assert cluster.run(main) == [6.5, 6.5]


def test_vec_sum_and_max():
    cluster = make_cluster(3)

    def main(comm):
        lay = Layout(comm.size, 9)
        v = Vec(comm, lay)
        start, end = v.owned_range
        v.local[:] = np.arange(start, end, dtype=np.float64)
        s = yield from v.sum()
        return s

    for s in Cluster(3, config=MPIConfig.optimized(), cost=QUIET,
                     heterogeneous=False).run(main):
        assert s == 36.0


def test_vec_incompatible_layouts_rejected():
    cluster = make_cluster(2)

    def main(comm):
        x = Vec(comm, Layout(comm.size, 8))
        y = Vec(comm, Layout(comm.size, 10))
        yield from x.axpy(1.0, y)

    with pytest.raises(PETScError):
        cluster.run(main)


def test_vec_wrap_existing_array():
    cluster = make_cluster(2)

    def main(comm):
        lay = Layout(comm.size, 4)
        arr = np.full(2, float(comm.rank))
        v = Vec(comm, lay, array=arr)
        s = yield from v.sum()
        return s

    assert Cluster(2, config=MPIConfig.optimized(), cost=QUIET,
                   heterogeneous=False).run(main) == [2.0, 2.0]


def test_vec_wrong_array_shape_rejected():
    cluster = make_cluster(2)

    def main(comm):
        Vec(comm, Layout(comm.size, 4), array=np.zeros(7))
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)
