"""Tests for AIJ matrix operations (transpose-mult, scale, shift, norm)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.mpi import Cluster, MPIConfig
from repro.petsc import Layout, PETScError, Vec
from repro.petsc.aij import AIJMat
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


def random_matrix(n, density, seed):
    rng = np.random.default_rng(seed)
    M = sp.random(n, n, density=density, random_state=rng, format="coo")
    return M


def build_distributed(comm, M, n):
    """Distribute COO entries round-robin over the setter ranks: every
    entry is staged exactly once, usually far from its owner."""
    lay = Layout(comm.size, n)
    A = AIJMat(comm, lay)
    idx = np.arange(len(M.data))
    mine = idx % comm.size == comm.rank
    A.set_values(M.row[mine], M.col[mine], M.data[mine])
    return lay, A


@pytest.mark.parametrize("nranks", [1, 3])
def test_mult_transpose_matches_scipy(nranks):
    n = 30
    M = random_matrix(n, 0.15, seed=5)
    cluster = make_cluster(nranks)
    xg = np.random.default_rng(1).random(n)

    def main(comm):
        lay, A = build_distributed(comm, M, n)
        yield from A.assemble()
        x = Vec(comm, lay)
        start, end = x.owned_range
        x.local[:] = xg[start:end]
        y = Vec(comm, lay)
        yield from A.mult_transpose(x, y)
        return y.local.copy()

    got = np.concatenate(cluster.run(main))
    expect = M.tocsr().T @ xg
    assert np.allclose(got, expect)


def test_scale_and_shift():
    n = 12
    cluster = make_cluster(2)

    def main(comm):
        lay = Layout(comm.size, n)
        A = AIJMat(comm, lay)
        start, end = lay.start(comm.rank), lay.end(comm.rank)
        for i in range(start, end):
            A.set_value(i, (i + 1) % n, 2.0)
        yield from A.assemble()
        A.scale(3.0)
        A.shift(1.0)
        x = Vec(comm, lay)
        yield from x.set(1.0)
        y = Vec(comm, lay)
        yield from A.mult(x, y)
        return y.local.copy()

    got = np.concatenate(cluster.run(main))
    # each row: 2*3 off-diagonal + 1 diagonal = 7
    assert np.all(got == 7.0)


def test_shift_nonsquare_rejected():
    cluster = make_cluster(2)

    def main(comm):
        A = AIJMat(comm, Layout(comm.size, 4), Layout(comm.size, 6))
        yield from A.assemble()
        A.shift(1.0)

    with pytest.raises(PETScError):
        cluster.run(main)


def test_frobenius_norm():
    n = 16
    M = random_matrix(n, 0.2, seed=9)
    cluster = make_cluster(4)

    def main(comm):
        _lay, A = build_distributed(comm, M, n)
        yield from A.assemble()
        result = yield from A.norm_frobenius()
        return result

    got = cluster.run(main)[0]
    expect = np.sqrt((M.data**2).sum())
    assert got == pytest.approx(expect)
