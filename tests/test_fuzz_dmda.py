"""Property-based fuzzing of DMDA ghost exchanges over random
configurations (dims, process grid, stencil, width, dof) under
both MPI configurations, checked against a numpy padding oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import Cluster, MPIConfig
from repro.petsc import DMDA
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


@st.composite
def dmda_config(draw):
    ndim = draw(st.integers(1, 3))
    width = draw(st.integers(1, 2))
    nranks = draw(st.sampled_from([1, 2, 3, 4, 6]))
    # choose dims large enough for any balanced split to fit the width
    # (smallest part of n over p is >= n//p, so n >= p*(width+1))
    lo = nranks * (width + 1)
    dims = [draw(st.integers(lo, lo + 8)) for _ in range(ndim)]
    stencil = draw(st.sampled_from(["star", "box"]))
    dof = draw(st.sampled_from([1, 2]))
    return nranks, dims, stencil, width, dof


@given(dmda_config(), st.sampled_from(["datatype", "hand_tuned"]),
       st.sampled_from([MPIConfig.baseline, MPIConfig.optimized]))
@settings(max_examples=40, deadline=None)
def test_ghost_exchange_matches_oracle(config, backend, mpi_config):
    nranks, dims, stencil, width, dof = config
    cluster = Cluster(nranks, config=mpi_config(), cost=QUIET,
                      heterogeneous=False)

    def main(comm):
        da = DMDA(comm, dims, dof=dof, stencil=stencil, stencil_width=width)
        v = da.create_global_vec()
        lo, hi = da.owned_box()
        z, y, x = np.meshgrid(
            np.arange(lo[0], hi[0]), np.arange(lo[1], hi[1]),
            np.arange(lo[2], hi[2]), indexing="ij",
        )
        stamp = (z * 1_000_000 + y * 1000 + x).astype(np.float64)
        if dof > 1:
            stamp = stamp[..., None] * 10 + np.arange(dof)
        v.local[:] = stamp.reshape(-1)
        larr = da.create_local_array()
        yield from da.global_to_local(v, larr, backend=backend)
        return da.owned_box(), da.ghosted_box(), larr

    results = cluster.run(main)

    dims3 = [1] * (3 - len(dims)) + list(dims)
    z, y, x = np.meshgrid(*[np.arange(s) for s in dims3], indexing="ij")
    full = (z * 1_000_000 + y * 1000 + x).astype(np.float64)
    if dof > 1:
        full = full[..., None] * 10 + np.arange(dof)
    pad = [(width, width) if s > 1 else (0, 0) for s in dims3]
    padded = full
    for axis in range(3):
        p = [(0, 0)] * (3 + (1 if dof > 1 else 0))
        p[axis] = pad[axis]
        padded = np.pad(padded, p, mode="constant")
    off = [p[0] for p in pad]

    for rank, ((lo, hi), (glo, ghi), larr) in enumerate(results):
        expect = padded[
            glo[0] + off[0]:ghi[0] + off[0],
            glo[1] + off[1]:ghi[1] + off[1],
            glo[2] + off[2]:ghi[2] + off[2],
        ]
        got = larr.reshape(expect.shape)
        coords = np.meshgrid(
            *[np.arange(glo[d], ghi[d]) for d in range(3)], indexing="ij"
        )
        outside = sum(
            ((coords[d] < lo[d]) | (coords[d] >= hi[d])).astype(int)
            for d in range(3)
        )
        mask = (outside <= 1) if stencil == "star" else (outside >= 0)
        if dof > 1:
            mask = np.broadcast_to(mask[..., None], expect.shape)
        assert np.array_equal(got[mask], expect[mask]), (rank, config)
