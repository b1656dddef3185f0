"""Tests for the Jacobi/BlockJacobi preconditioners."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.petsc import (
    CG,
    DMDA,
    BlockJacobiPC,
    JacobiPC,
    Laplacian,
    Layout,
    PETScError,
    Vec,
)
from repro.petsc.aij import AIJMat
from repro.petsc.pc import operator_diagonal
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def build_laplacian_aij(comm, n):
    """1-D Dirichlet Laplacian rows owned naturally."""
    lay = Layout(comm.size, n)
    A = AIJMat(comm, lay)
    h2 = float(n + 1) ** 2
    start, end = lay.start(comm.rank), lay.end(comm.rank)
    for i in range(start, end):
        A.set_value(i, i, 2.0 * h2)
        if i > 0:
            A.set_value(i, i - 1, -h2)
        if i < n - 1:
            A.set_value(i, i + 1, -h2)
    return lay, A


def test_block_jacobi_pc_fewer_cg_iterations():
    cluster = make_cluster(2)

    def main(comm):
        lay, A = build_laplacian_aij(comm, 64)
        yield from A.assemble()
        b = Vec(comm, lay)
        b.local[:] = 1.0
        x1 = Vec(comm, lay)
        plain = yield from CG(A, b, x1, rtol=1e-8, maxits=400)
        x2 = Vec(comm, lay)
        pc = BlockJacobiPC(A)
        prec = yield from CG(A, b, x2, rtol=1e-8, maxits=400, pc=pc)
        return plain, prec, float(np.max(np.abs(x1.local - x2.local)))

    plain, prec, diff = cluster.run(main)[0]
    assert plain.converged and prec.converged
    assert prec.iterations < plain.iterations
    assert diff < 1e-5


def test_jacobi_pc_on_stencil_laplacian():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (16, 16))
        op = Laplacian(da)
        b = da.create_global_vec()
        b.local[:] = 1.0
        x = da.create_global_vec()
        pc = JacobiPC(op, b)
        result = yield from CG(op, b, x, rtol=1e-8, maxits=300, pc=pc)
        return result

    result = cluster.run(main)[0]
    assert result.converged


def test_operator_diagonal_laplacian_includes_boundary_terms():
    cluster = make_cluster(1)

    def main(comm):
        da = DMDA(comm, (4, 4))
        op = Laplacian(da)
        d = da.create_global_vec()
        operator_diagonal(op, d)
        yield from comm.barrier()
        return d.local.reshape(4, 4)

    diag = cluster.run(main)[0]
    h2 = 16.0
    # interior cell: 4/h^2; edge cell: 5/h^2; corner cell: 6/h^2
    assert diag[1, 1] == pytest.approx(4 * h2)
    assert diag[0, 1] == pytest.approx(5 * h2)
    assert diag[0, 0] == pytest.approx(6 * h2)


def test_block_jacobi_requires_assembled_aij():
    cluster = make_cluster(1)

    def main(comm):
        da = DMDA(comm, (4, 4))
        op = Laplacian(da)
        with pytest.raises(PETScError):
            BlockJacobiPC(op)
        lay = Layout(comm.size, 4)
        A = AIJMat(comm, lay)
        with pytest.raises(PETScError):
            BlockJacobiPC(A)
        yield from comm.barrier()
        return True

    assert cluster.run(main) == [True]


def test_block_jacobi_exact_on_one_rank():
    """With one rank, block Jacobi is a direct solve: CG converges in one
    iteration."""
    cluster = make_cluster(1)

    def main(comm):
        lay, A = build_laplacian_aij(comm, 20)
        yield from A.assemble()
        b = Vec(comm, lay)
        b.local[:] = 1.0
        x = Vec(comm, lay)
        pc = BlockJacobiPC(A)
        result = yield from CG(A, b, x, rtol=1e-10, maxits=10, pc=pc)
        return result

    result = cluster.run(main)[0]
    assert result.converged
    assert result.iterations <= 2
