"""Tests for the DMDA distributed structured grid."""

import numpy as np
import pytest

from repro.mpi import Cluster, MPIConfig
from repro.petsc import DMDA, PETScError
from repro.petsc.dmda import dims_create
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n):
    return Cluster(n, config=MPIConfig.optimized(), cost=QUIET, heterogeneous=False)


# -- dims_create ---------------------------------------------------------------

@pytest.mark.parametrize(
    "nranks,ndim,expect",
    [
        (1, 3, [1, 1, 1]),
        (8, 3, [2, 2, 2]),
        (128, 3, [4, 4, 8]),
        (12, 2, [3, 4]),
        (7, 2, [1, 7]),
        (16, 1, [16]),
        (60, 3, [3, 4, 5]),
    ],
)
def test_dims_create(nranks, ndim, expect):
    got = dims_create(nranks, ndim)
    assert got == expect
    assert int(np.prod(got)) == nranks


def test_dims_create_validation():
    with pytest.raises(PETScError):
        dims_create(0, 3)
    with pytest.raises(PETScError):
        dims_create(4, 4)


# -- geometry ----------------------------------------------------------------

def test_boxes_partition_the_grid():
    cluster = make_cluster(6)

    def main(comm):
        da = DMDA(comm, (8, 9), stencil_width=1)
        yield from comm.barrier()
        return da.owned_box(), da.local_shape

    results = cluster.run(main)
    # every cell owned exactly once
    seen = np.zeros((8, 9), dtype=int)
    for (lo, hi), _shape in results:
        seen[lo[1]:hi[1], lo[2]:hi[2]] += 1
    assert np.all(seen == 1)


def test_global_vec_size_matches_grid():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (10, 12), dof=3)
        v = da.create_global_vec()
        yield from comm.barrier()
        return v.global_size

    assert cluster.run(main) == [10 * 12 * 3] * 4


def test_natural_to_global_roundtrip():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (6, 8))
        v = da.create_global_vec()
        # stamp every owned cell with its natural id via the local view
        lo, hi = da.owned_box()
        arr = da.global_array(v)
        for j in range(lo[1], hi[1]):
            for i in range(lo[2], hi[2]):
                arr[0, j - lo[1], i - lo[2]] = j * 100 + i
        yield from comm.barrier()
        return v.local.copy()

    results = cluster.run(main)
    flat = np.concatenate(results)
    # check natural_to_global against the stamps (computable on any rank)
    cluster2 = make_cluster(4)

    def main2(comm):
        da = DMDA(comm, (6, 8))
        jj, ii = np.meshgrid(np.arange(8), np.arange(6), indexing="xy")
        gidx = da.natural_to_global(np.zeros_like(ii.ravel()), ii.ravel(), jj.ravel())
        yield from comm.barrier()
        return gidx

    gidx = cluster2.run(main2)[0]
    ii, jj = np.meshgrid(np.arange(6), np.arange(8), indexing="ij")
    expect = ii.ravel() * 100 + jj.ravel()
    assert np.array_equal(flat[gidx], expect.astype(np.float64))


@pytest.mark.parametrize("component", [-1, 2])
def test_natural_to_global_checks_component(component):
    da = DMDA(make_cluster(1).comm(0), (2, 2, 2), dof=2)
    assert da.natural_to_global(0, 0, [0, 1], component=1).tolist() == [1, 3]
    # component 2 of point (0, 0, 0) would alias field 0 of point (0, 0, 1)
    with pytest.raises(PETScError, match="component"):
        da.natural_to_global(0, 0, 0, component=component)


def test_stencil_width_too_large_rejected():
    cluster = make_cluster(4)

    def main(comm):
        DMDA(comm, (4, 4), stencil_width=3)
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)


def test_proc_grid_mismatch_rejected():
    cluster = make_cluster(4)

    def main(comm):
        DMDA(comm, (8, 8), proc_grid=(3, 2))
        yield from comm.barrier()

    with pytest.raises(PETScError):
        cluster.run(main)


# -- ghost exchange ----------------------------------------------------------------

def ghost_exchange_matches_numpy(nranks, dims, stencil, width, backend, dof=1):
    """Fill a global vec with natural ids, exchange ghosts, compare every
    rank's ghosted array against a numpy-slicing oracle."""
    cluster = make_cluster(nranks)

    def main(comm):
        da = DMDA(comm, dims, dof=dof, stencil=stencil, stencil_width=width)
        v = da.create_global_vec()
        lo, hi = da.owned_box()
        shape3 = tuple(hi[d] - lo[d] for d in range(3))
        z, y, x = np.meshgrid(
            np.arange(lo[0], hi[0]), np.arange(lo[1], hi[1]),
            np.arange(lo[2], hi[2]), indexing="ij",
        )
        natural = (z * 10000 + y * 100 + x).astype(np.float64)
        if dof > 1:
            stamped = natural[..., None] * 10 + np.arange(dof)
            v.local[:] = stamped.reshape(-1)
        else:
            v.local[:] = natural.reshape(-1)
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr, backend=backend)
        return da.ghosted_box(), larr

    results = cluster.run(main)
    owned = {}
    cluster_boxes = make_cluster(nranks)

    def boxes_main(comm):
        da = DMDA(comm, dims, dof=dof, stencil=stencil, stencil_width=width)
        yield from comm.barrier()
        return da.owned_box()

    owned_boxes = cluster_boxes.run(boxes_main)
    del owned
    # oracle: the full natural grid, zero-padded by the stencil width
    # (ghosted boxes extend past the physical boundary; those cells stay 0)
    dims3 = [1] * (3 - len(dims)) + list(dims)
    z, y, x = np.meshgrid(*[np.arange(s) for s in dims3], indexing="ij")
    full = (z * 10000 + y * 100 + x).astype(np.float64)
    if dof > 1:
        full = full[..., None] * 10 + np.arange(dof)
    pad = [(width, width) if s > 1 else (0, 0) for s in dims3]
    if dof > 1:
        pad.append((0, 0))
    full = np.pad(full, pad)
    off = [p[0] for p in pad[:3]]
    for rank, ((glo, ghi), larr) in enumerate(results):
        expect = full[
            glo[0] + off[0]:ghi[0] + off[0],
            glo[1] + off[1]:ghi[1] + off[1],
            glo[2] + off[2]:ghi[2] + off[2],
        ]
        got = larr.reshape(expect.shape)
        if stencil == "box":
            assert np.array_equal(got, expect)
            continue
        # star: only cells outside the owned range in at most ONE dimension
        # are exchanged; corner/edge ghosts legitimately stay zero
        lo, hi = owned_boxes[rank]
        coords = np.meshgrid(
            *[np.arange(glo[d], ghi[d]) for d in range(3)], indexing="ij"
        )
        outside = sum(
            ((coords[d] < lo[d]) | (coords[d] >= hi[d])).astype(int)
            for d in range(3)
        )
        mask = outside <= 1
        if dof > 1:
            mask = np.broadcast_to(mask[..., None], expect.shape)
        assert np.array_equal(got[mask], expect[mask])
        assert np.all(got[~mask] == 0.0)


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
def test_ghost_exchange_1d(backend):
    ghost_exchange_matches_numpy(4, (32,), "star", 1, backend)


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
@pytest.mark.parametrize("stencil", ["star", "box"])
def test_ghost_exchange_2d(backend, stencil):
    ghost_exchange_matches_numpy(6, (12, 10), stencil, 1, backend)


@pytest.mark.parametrize("backend", ["hand_tuned", "datatype"])
@pytest.mark.parametrize("stencil", ["star", "box"])
def test_ghost_exchange_3d(backend, stencil):
    ghost_exchange_matches_numpy(8, (8, 6, 10), stencil, 1, backend)


@pytest.mark.parametrize("stencil", ["star", "box"])
def test_ghost_exchange_width_2(stencil):
    ghost_exchange_matches_numpy(4, (12, 12), stencil, 2, "datatype")


def test_ghost_exchange_with_dof():
    ghost_exchange_matches_numpy(4, (8, 8), "star", 1, "datatype", dof=3)


def test_star_stencil_with_box_needed_leaves_corners_stale():
    """A star exchange must NOT fill corner ghosts (they stay zero)."""
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (8, 8), stencil="star", stencil_width=1, proc_grid=(2, 2))
        v = da.create_global_vec()
        v.local[:] = 1.0
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr)
        return comm.rank, larr

    for rank, larr in cluster.run(main):
        arr = larr.reshape(larr.shape[-2], larr.shape[-1])
        # the corner pointing to the diagonal neighbour must be untouched
        if rank == 0:  # owns top-left block; diagonal corner is bottom-right
            assert arr[-1, -1] == 0.0
            assert arr[-1, -2] == 1.0  # face ghost filled
            assert arr[-2, -1] == 1.0


def test_box_stencil_fills_corners():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (8, 8), stencil="box", stencil_width=1, proc_grid=(2, 2))
        v = da.create_global_vec()
        v.local[:] = 1.0
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr)
        return comm.rank, larr

    for rank, larr in cluster.run(main):
        arr = larr.reshape(larr.shape[-2], larr.shape[-1])
        if rank == 0:
            assert arr[-1, -1] == 1.0


def test_box_stencil_volume_nonuniformity():
    """Box-stencil corner messages are much smaller than face messages --
    the nonuniform-volume pattern of Fig. 3."""
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (16, 16), stencil="box", stencil_width=1, proc_grid=(2, 2))
        sc = da.ghost_scatter()
        yield from comm.barrier()
        return {p: v.size for p, v in sc.send_map.items()}

    sizes = cluster.run(main)[0]
    assert len(sizes) == 3  # two faces + one corner
    assert sorted(sizes.values()) == [1, 8, 8]


def test_local_to_global_roundtrip():
    cluster = make_cluster(4)

    def main(comm):
        da = DMDA(comm, (8, 8))
        v = da.create_global_vec()
        v.local[:] = np.arange(v.local_size, dtype=np.float64) + comm.rank * 1000
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr)
        w = da.create_global_vec()
        yield from da.local_to_global(larr, w)
        return np.array_equal(v.local, w.local)

    assert all(cluster.run(main))


def test_ghost_exchange_backends_agree():
    for backend in ("hand_tuned", "datatype"):
        ghost_exchange_matches_numpy(6, (9, 7, 11), "box", 1, backend)


def test_serial_dmda_no_neighbours():
    cluster = make_cluster(1)

    def main(comm):
        da = DMDA(comm, (5, 5), stencil="box", stencil_width=1)
        v = da.create_global_vec()
        v.local[:] = 7.0
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr)
        return larr

    larr = cluster.run(main)[0]
    # the boundary pad exists but stays zero (Dirichlet ring)
    assert larr.shape == (1, 7, 7)
    assert np.all(larr[0, 1:-1, 1:-1] == 7.0)
    assert larr[0, 0, :].sum() == 0 and larr[0, :, 0].sum() == 0
    assert larr[0, -1, :].sum() == 0 and larr[0, :, -1].sum() == 0


def _box_gather_reference(da, lo, hi):
    """``box_gather_scatter``'s maps by evaluating every rank's box."""
    def box(r):
        c = da._coords_of(r)
        return (tuple(int(lo[d][c[d]]) for d in range(3)),
                tuple(int(hi[d][c[d]]) for d in range(3)))

    rank, owned = da.comm.rank, da.owned_box()
    send, recv, local = {}, {}, (np.empty(0), np.empty(0))
    for peer in range(da.comm.size):
        region = da._region_toward(da.owned_box(peer), box(rank))
        if region is not None:
            dst = da._box_offsets_in(region, box(rank))
            if peer == rank:
                local = (da._box_offsets_in(region, owned), dst)
            else:
                recv[peer] = dst
        region = da._region_toward(owned, box(peer))
        if region is not None and peer != rank:
            send[peer] = da._box_offsets_in(region, owned)
    return send, recv, local


def test_box_gather_scatter_matches_the_all_ranks_reference():
    """Per-dimension interval overlap finds exactly the peers, in the same
    order and with the same offsets, as evaluating every rank's box --
    also for requests MG never makes (arbitrary, overlapping and empty)."""
    nranks, dims, grid = 12, (7, 9, 10), (2, 2, 3)
    cluster = make_cluster(nranks)
    # owned slabs: z [0,4) [4,7); y [0,5) [5,9); x [0,4) [4,7) [7,10).
    # Requests straddle slab boundaries (x [0,5) by one cell), and x
    # coordinate 1 asks nothing
    lo = [np.array([2, 0]), np.array([3, 6]), np.array([0, 5, 9])]
    hi = [np.array([6, 7]), np.array([8, 9]), np.array([5, 5, 10])]
    for rank in range(nranks):
        da = DMDA(cluster.comm(rank), dims, proc_grid=grid)
        sc = da.box_gather_scatter(lo, hi)
        send, recv, (local_src, local_dst) = _box_gather_reference(da, lo, hi)
        for got, want in ((sc.send_map, send), (sc.recv_map, recv)):
            assert list(got) == list(want)
            assert all(np.array_equal(got[p], want[p]) for p in want)
        assert np.array_equal(sc.local_src, local_src)
        assert np.array_equal(sc.local_dst, local_dst)
    with pytest.raises(PETScError, match="interval"):
        da.box_gather_scatter(lo[:2] + [lo[2][:2]], hi)
