"""The nearest-neighbour Alltoallw microbenchmark (section 5.3, Fig. 15).

Processes form a logical ring; each exchanges a 10x10 matrix of doubles
with its successor and predecessor and *nothing* with anyone else.  The
paper ran this across its two heterogeneous clusters without adding
artificial skew -- "some skew is bound to be present"; runs that straddle
both simulated clusters (> 32 ranks) are heterogeneous here too, matching
the jump in baseline latency past 32 processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datatypes import DOUBLE, TypedBuffer
from repro.mpi import Cluster, MPIConfig
from repro.util.costmodel import CostModel

MATRIX_DOUBLES = 100  # a 10x10 matrix of doubles


@dataclass
class AlltoallwResult:
    nprocs: int
    latency: float
    correct: bool


def alltoallw_ring_benchmark(
    nprocs: int,
    config: MPIConfig,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    heterogeneous: Optional[bool] = None,
) -> AlltoallwResult:
    cluster = Cluster(
        nprocs, config=config, cost=cost, seed=seed, heterogeneous=heterogeneous
    )
    n = nprocs
    checks = []

    def main(comm):
        succ = (comm.rank + 1) % n
        pred = (comm.rank - 1) % n
        sendbuf = np.full((n, MATRIX_DOUBLES), float(comm.rank))
        recvbuf = np.zeros((n, MATRIX_DOUBLES))
        sendspecs = [None] * n
        recvspecs = [None] * n
        for peer in {succ, pred}:
            off = peer * MATRIX_DOUBLES * 8
            sendspecs[peer] = TypedBuffer(sendbuf, DOUBLE, MATRIX_DOUBLES, offset_bytes=off)
            recvspecs[peer] = TypedBuffer(recvbuf, DOUBLE, MATRIX_DOUBLES, offset_bytes=off)
        yield from comm.barrier()
        start = comm.engine.now
        yield from comm.alltoallw(sendspecs, recvspecs)
        elapsed = comm.engine.now - start
        checks.append((comm.rank, recvbuf))
        return elapsed

    latencies = cluster.run(main)
    correct = True
    for rank, recvbuf in checks:
        succ, pred = (rank + 1) % n, (rank - 1) % n
        if not (np.all(recvbuf[succ] == succ) and np.all(recvbuf[pred] == pred)):
            correct = False
    return AlltoallwResult(nprocs, float(np.mean(latencies)), correct)
