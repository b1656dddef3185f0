"""Tests for the Laplacian operator and Krylov solvers."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.petsc import CG, DMDA, Laplacian, PETScError, Richardson
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def manufactured(da):
    """(b, u_exact arrays for the owned box) for -lap u = f with
    u = sin(pi x) sin(pi y) sin(pi z), cell-centred on the unit cube."""
    lo, hi = da.owned_box()
    axes = []
    active = 0
    for d in range(3):
        n = da.dims[d]
        if n > 1:
            active += 1
            centers = (np.arange(lo[d], hi[d]) + 0.5) / n
            axes.append(np.sin(np.pi * centers))
        else:
            axes.append(np.ones(hi[d] - lo[d]))
    u = axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]
    f = (active * np.pi**2) * u
    return f.reshape(-1), u.reshape(-1)


@pytest.mark.parametrize("nranks", [1, 4])
def test_laplacian_mult_matches_dense_operator(nranks):
    """Compare the ghosted stencil apply against an explicit dense matrix."""
    m = 6
    cluster = make_cluster(nranks)

    def main(comm):
        da = DMDA(comm, (m, m))
        x = da.create_global_vec()
        y = da.create_global_vec()
        rng = np.random.default_rng(comm.rank)
        x.local[:] = rng.random(x.local_size)
        op = Laplacian(da)
        yield from op.mult(x, y)
        # gather for comparison
        xs = yield from comm.gather_obj(x.local.copy())
        ys = yield from comm.gather_obj(y.local.copy())
        if comm.rank == 0:
            # map PETSc ordering -> natural ordering
            jj, ii = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
            g = da.natural_to_global(
                np.zeros(m * m, dtype=int), ii.T.ravel(), jj.T.ravel()
            )
            return np.concatenate(xs), np.concatenate(ys), g
        return None

    out = cluster.run(main)[0]
    xg, yg, g = out
    # dense 2-D negative Laplacian with Dirichlet, natural (row-major) order
    n2 = m * m
    A = np.zeros((n2, n2))
    h2 = float(m * m)
    for i in range(m):
        for j in range(m):
            k = i * m + j
            A[k, k] = 4 * h2
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < m and 0 <= nj < m:
                    A[k, ni * m + nj] = -h2
                else:
                    # reflective Dirichlet ghost: u_ghost = -u_k
                    A[k, k] += h2
    x_nat = xg[g]
    expect = A @ x_nat
    got = yg[g]
    assert np.allclose(got, expect)


def test_laplacian_requires_single_dof_and_ghosts():
    cluster = make_cluster(1)

    def main(comm):
        da = DMDA(comm, (4, 4), dof=2)
        Laplacian(da)
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)

    def main2(comm):
        da = DMDA(comm, (4, 4), stencil_width=0)
        Laplacian(da)
        yield from comm.barrier()

    cluster2 = make_cluster(1)
    with pytest.raises(PETScError):
        cluster2.run(main2)


@pytest.mark.parametrize("nranks,dims", [(1, (16, 16)), (4, (16, 16)), (4, (8, 8, 8))])
def test_cg_converges_to_manufactured_solution(nranks, dims):
    cluster = make_cluster(nranks)

    def main(comm):
        da = DMDA(comm, dims)
        op = Laplacian(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        f, u_exact = manufactured(da)
        b.local[:] = f
        result = yield from CG(op, b, x, rtol=1e-10, maxits=500)
        err = float(np.max(np.abs(x.local - u_exact))) if x.local_size else 0.0
        err = yield from comm.allreduce(err, op=max)
        return result, err

    for result, err in cluster.run(main):
        assert result.converged
        assert result.residual_norms[-1] < 1e-9 * result.residual_norms[0] + 1e-12
        # discretisation error is O(h^2) ~ 4e-2 at h=1/16; solver error smaller
        assert err < 0.05


def test_cg_residual_history_monotone_overall():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (16, 16))
        op = Laplacian(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        b.local[:] = 1.0
        result = yield from CG(op, b, x, rtol=1e-8, maxits=200)
        return result

    result = cluster.run(main)[0]
    assert result.converged
    assert result.residual_norms[-1] < result.residual_norms[0] * 1e-7


def test_cg_zero_rhs_converges_immediately():
    cluster = make_cluster(2)

    def main(comm):
        da = DMDA(comm, (8, 8))
        op = Laplacian(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        result = yield from CG(op, b, x, rtol=1e-8, atol=1e-30)
        return result.iterations

    assert cluster.run(main) == [0, 0]


def test_richardson_with_jacobi_damping_converges():
    cluster = make_cluster(2)

    def main(comm):
        da = DMDA(comm, (8, 8))
        op = Laplacian(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        b.local[:] = 1.0
        # damped Jacobi = Richardson with omega/diag scaling
        result = yield from Richardson(
            op, b, x, omega=0.9 / op.diag, rtol=1e-4, maxits=2000
        )
        return result

    result = cluster.run(main)[0]
    assert result.converged
    assert result.residual_norms[-1] <= 1e-4 * result.residual_norms[0]


def test_cg_detects_indefinite_operator():
    cluster = make_cluster(1)

    class Negated(Laplacian):
        def mult(self, x, y):
            yield from super().mult(x, y)
            y.local *= -1.0

    def main(comm):
        da = DMDA(comm, (8, 8))
        op = Negated(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        b.local[:] = 1.0
        yield from CG(op, b, x)

    with pytest.raises(PETScError):
        cluster.run(main)


def test_solver_parameter_validation():
    cluster = make_cluster(1)

    def main(comm):
        da = DMDA(comm, (4, 4))
        op = Laplacian(da)
        b = da.create_global_vec()
        x = da.create_global_vec()
        yield from CG(op, b, x, maxits=-1)

    with pytest.raises(PETScError):
        cluster.run(main)
