"""Tests for the geometric multigrid solver."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.petsc import CG, DMDA, Laplacian, MGSolver, PETScError
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def rhs_for(da):
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
    return (active * np.pi**2 * u).reshape(-1), u.reshape(-1)


@pytest.mark.parametrize("nranks,dims,levels", [
    (1, (32, 32), 3),
    (4, (32, 32), 3),
    (4, (16, 16, 16), 3),
    (8, (16, 16, 16), 2),
])
def test_mg_solve_converges(nranks, dims, levels):
    cluster = make_cluster(nranks)

    def main(comm):
        da = DMDA(comm, dims)
        mg = MGSolver(da, nlevels=levels)
        b = da.create_global_vec()
        x = da.create_global_vec()
        f, u_exact = rhs_for(da)
        b.local[:] = f
        result = yield from mg.solve(b, x, rtol=1e-8, max_cycles=30)
        err = float(np.max(np.abs(x.local - u_exact))) if x.local_size else 0.0
        err = yield from comm.allreduce(err, op=max)
        return result, err

    for result, err in cluster.run(main):
        assert result.converged, result.residual_norms
        assert result.iterations <= 20
        assert err < 0.02  # discretisation error only


def test_mg_residuals_contract_per_cycle():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (32, 32))
        mg = MGSolver(da, nlevels=3)
        b = da.create_global_vec()
        x = da.create_global_vec()
        rng = np.random.default_rng(comm.rank)
        b.local[:] = rng.random(b.local_size)
        result = yield from mg.solve(b, x, rtol=1e-10, max_cycles=25)
        return result

    result = cluster.run(main)[0]
    norms = result.residual_norms
    # average contraction factor well below 1 (healthy V-cycle)
    factors = [b / a for a, b in zip(norms, norms[1:]) if a > 0]
    assert np.mean(factors) < 0.4, factors


def test_mg_faster_than_unpreconditioned_cg_in_iterations():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (64, 64))
        b = da.create_global_vec()
        b.local[:] = 1.0
        x1 = da.create_global_vec()
        mg = MGSolver(da, nlevels=4)
        mg_result = yield from mg.solve(b, x1, rtol=1e-8, max_cycles=40)
        x2 = da.create_global_vec()
        op = Laplacian(da)
        cg_result = yield from CG(op, b, x2, rtol=1e-8, maxits=500)
        return mg_result, cg_result, float(np.max(np.abs(x1.local - x2.local)))

    mg_result, cg_result, diff = cluster.run(main)[0]
    assert mg_result.converged and cg_result.converged
    assert mg_result.iterations < cg_result.iterations / 3
    assert diff < 1e-6  # both solve the same system


def test_mg_as_cg_preconditioner():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (32, 32))
        mg = MGSolver(da, nlevels=3)
        op = Laplacian(da)
        b = da.create_global_vec()
        b.local[:] = 1.0
        x = da.create_global_vec()
        result = yield from CG(op, b, x, rtol=1e-8, maxits=50, pc=mg.pc_apply)
        return result

    result = cluster.run(main)[0]
    assert result.converged
    # the V-cycle is mildly nonsymmetric (average restriction is not the
    # trilinear prolongation's transpose), so CG is not optimal with it --
    # but it must still beat unpreconditioned CG (~90 its on this grid)
    assert result.iterations <= 30


def test_mg_odd_dimension_rejected():
    cluster = make_cluster(1)

    def main(comm):
        da = DMDA(comm, (30, 30))  # 30 -> 15 -> 7.5: fails at level 3
        MGSolver(da, nlevels=3)
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)


def test_mg_single_level_is_coarse_solver():
    cluster = make_cluster(2)

    def main(comm):
        da = DMDA(comm, (16, 16))
        mg = MGSolver(da, nlevels=1, coarse_rtol=1e-10, coarse_maxits=400)
        b = da.create_global_vec()
        b.local[:] = 1.0
        x = da.create_global_vec()
        result = yield from mg.solve(b, x, rtol=1e-6, max_cycles=5)
        return result

    assert cluster.run(main)[0].converged


def test_mg_hand_tuned_backend_same_answer():
    def solve(backend):
        cluster = make_cluster(4)

        def main(comm):
            da = DMDA(comm, (16, 16, 16))
            mg = MGSolver(da, nlevels=2, backend=backend)
            b = da.create_global_vec()
            f, _ = rhs_for(da)
            b.local[:] = f
            x = da.create_global_vec()
            yield from mg.solve(b, x, rtol=1e-8, max_cycles=20)
            return x.local.copy()

        return np.concatenate(cluster.run(main))

    a = solve("datatype")
    b = solve("hand_tuned")
    assert np.allclose(a, b, atol=1e-12)


def test_transfer_restrict_prolong_shapes():
    """Restriction of a constant is the constant; prolongation of a constant
    is the constant (partition of unity)."""
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (16, 16))
        mg = MGSolver(da, nlevels=2)
        t = mg.transfers[0]
        fine = mg.das[0].create_global_vec()
        coarse = mg.das[1].create_global_vec()
        yield from fine.set(3.0)
        yield from t.restrict(fine, coarse)
        ok1 = bool(np.allclose(coarse.local, 3.0))
        fine2 = mg.das[0].create_global_vec()
        yield from coarse.set(2.0)
        yield from t.prolong_add(coarse, fine2)
        ok2 = bool(np.allclose(fine2.local, 2.0))
        return ok1 and ok2

    assert all(cluster.run(main))
