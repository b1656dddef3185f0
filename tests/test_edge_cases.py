"""Edge-case coverage: rectangular AIJ matrices, 1-D operators, buffer
normalisation errors, collective element-type restrictions."""

import numpy as np
import pytest

from repro.datatypes import DOUBLE, Vector
from repro.mpi import Cluster, MPIConfig, MPIError
from repro.mpi.comm import as_typed
from repro.petsc import CG, DMDA, Laplacian, Layout, PETScError, Vec
from repro.petsc.aij import AIJMat
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def test_rectangular_aij_matvec():
    """A 6x4 matrix with distinct row/column layouts."""
    cluster = make_cluster(2)

    def main(comm):
        rows = Layout(comm.size, 6)
        cols = Layout(comm.size, 4)
        A = AIJMat(comm, rows, cols)
        if comm.rank == 0:
            # A[i, j] = 1 if j == i % 4
            for i in range(6):
                A.set_value(i, i % 4, 1.0)
        yield from A.assemble()
        x = Vec(comm, cols)
        start, end = x.owned_range
        x.local[:] = np.arange(start, end, dtype=np.float64) + 1
        y = Vec(comm, rows)
        yield from A.mult(x, y)
        return y.local.copy()

    got = np.concatenate(cluster.run(main))
    assert got.tolist() == [1.0, 2.0, 3.0, 4.0, 1.0, 2.0]


def test_rectangular_aij_layout_mismatch_rejected():
    cluster = make_cluster(2)

    def main(comm):
        rows = Layout(comm.size, 6)
        cols = Layout(comm.size, 4)
        A = AIJMat(comm, rows, cols)
        yield from A.assemble()
        wrong = Vec(comm, rows)  # should be cols-layout
        y = Vec(comm, rows)
        yield from A.mult(wrong, y)

    with pytest.raises(PETScError):
        cluster.run(main)


def test_laplacian_1d():
    cluster = make_cluster(2)
    n = 64

    def main(comm):
        da = DMDA(comm, (n,))
        op = Laplacian(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        lo, hi = da.owned_box()
        centers = (np.arange(lo[2], hi[2]) + 0.5) / n
        b.local[:] = np.pi**2 * np.sin(np.pi * centers)
        result = yield from CG(op, b, x, rtol=1e-10, maxits=400)
        err = float(np.max(np.abs(x.local - np.sin(np.pi * centers))))
        err = yield from comm.allreduce(err, op=max)
        return result.converged, err

    for converged, err in cluster.run(main):
        assert converged
        assert err < 2e-3  # O(h^2) at h = 1/64


def test_as_typed_partial_extent_rejected():
    arr = np.zeros(10, dtype=np.uint8)
    with pytest.raises(MPIError):
        as_typed(arr, DOUBLE)  # 10 bytes is not a whole number of doubles


def test_as_typed_infers_dtype_and_count():
    arr = np.zeros(5, dtype=np.float64)
    tb = as_typed(arr)
    assert tb.nbytes == 40
    assert tb.count == 5


def test_allgatherv_noncontiguous_element_type_rejected():
    from repro.datatypes import DatatypeError

    cluster = make_cluster(4)

    def main(comm):
        strided = Vector(2, 1, 2, DOUBLE)  # non-contiguous element type
        recv = np.zeros(4 * 4)
        yield from comm.allgatherv(
            np.zeros(4), recv, [2, 2, 2, 2], datatype=strided
        )

    with pytest.raises((MPIError, DatatypeError)):
        cluster.run(main)


def test_dmda_single_cell_per_rank():
    """The degenerate partition: one grid point per rank."""
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (2, 2), stencil_width=1)
        v = da.create_global_vec()
        v.local[:] = float(comm.rank + 1)
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr)
        return larr.sum()

    sums = cluster.run(main)
    # each rank sees itself + 2 face neighbours
    for rank, s in enumerate(sums):
        others = {0: (2, 3), 1: (1, 4), 2: (1, 4), 3: (2, 3)}[rank]
        assert s == (rank + 1) + sum(others)
