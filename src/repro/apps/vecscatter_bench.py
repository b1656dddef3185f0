"""The PETSc vector-scatter benchmark (paper section 5.4, Fig. 16).

Two 1-D grids are laid out in parallel over all ranks (constant elements
per process -- weak scaling).  Each process scatters its portion of the
first vector into a *unique portion* of the second vector: the portion
owned by its ring successor, interleaved with stride P inside that portion
(so the receive side is noncontiguous).  Per-rank communication volumes are
maximally nonuniform -- everything to one rank, zero to the rest -- which is
exactly the pattern PETSc generates for grid applications.

Three implementations are compared, as in the paper:

- ``hand-tuned``             : explicit pack + point-to-point (PETSc default),
- ``MVAPICH2-0.9.5``         : MPI datatypes + Alltoallw over the baseline MPI,
- ``MVAPICH2-New``           : the same code path over the optimised MPI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mpi import Cluster, MPIConfig
from repro.petsc import GeneralIS, Layout, Vec, VecScatter
from repro.util.costmodel import CostModel

#: doubles owned by each process (weak scaling)
PER_PROCESS = 2048


@dataclass
class VecScatterResult:
    nprocs: int
    backend: str
    config_name: str
    latency: float
    correct: bool


def _pattern(nprocs: int, per: int):
    """(src_idx, dst_idx): rank p's block -> rank (p+1)'s block, interleaved.

    Within the destination block the elements land with stride P' (the
    largest divisor of ``per`` <= nprocs), making the receive side
    noncontiguous whenever nprocs > 1.
    """
    stride = 1
    for s in range(min(nprocs, per), 0, -1):
        if per % s == 0:
            stride = s
            break
    m = per // stride
    k = np.arange(per, dtype=np.int64)
    # block-transpose permutation within the destination block
    sigma = (k % m) * stride + k // m
    src = np.concatenate([p * per + k for p in range(nprocs)])
    dst = np.concatenate(
        [((p + 1) % nprocs) * per + sigma for p in range(nprocs)]
    )
    return src, dst


def vecscatter_benchmark(
    nprocs: int,
    backend: str,
    config: MPIConfig,
    cost: Optional[CostModel] = None,
    per_process: int = PER_PROCESS,
    seed: int = 0,
) -> VecScatterResult:
    cluster = Cluster(nprocs, config=config, cost=cost, seed=seed)
    src_idx, dst_idx = _pattern(nprocs, per_process)
    gsize = nprocs * per_process
    shared_layout = Layout(nprocs, gsize)
    shared_owners = (
        shared_layout.owners(src_idx), shared_layout.owners(dst_idx)
    )

    def main(comm):
        lay = Layout(comm.size, gsize)
        x = Vec(comm, lay)
        y = Vec(comm, lay)
        start, end = x.owned_range
        x.local[:] = np.arange(start, end, dtype=np.float64)
        sc = VecScatter.from_index_sets(
            comm, lay, GeneralIS(src_idx), lay, GeneralIS(dst_idx),
            owners=shared_owners,
        )
        yield from comm.barrier()
        t0 = comm.engine.now
        yield from sc.scatter(x, y, backend=backend)
        elapsed = comm.engine.now - t0
        return elapsed, y.local.copy()

    outcomes = cluster.run(main)
    latencies = [t for t, _ in outcomes]
    got = np.concatenate([part for _, part in outcomes])
    expect = np.zeros(gsize)
    expect[dst_idx] = src_idx.astype(np.float64)
    correct = bool(np.array_equal(got, expect))
    return VecScatterResult(
        nprocs, backend, config.name, float(np.mean(latencies)), correct
    )
