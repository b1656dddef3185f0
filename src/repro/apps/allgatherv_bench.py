"""The nonuniform Allgatherv microbenchmark (paper section 5.3, Fig. 14).

Rank 0 contributes ``big_doubles`` doubles while every other rank
contributes a single double -- the outlier pattern that serialises the ring
algorithm (Fig. 8).  Measures average latency across ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.mpi import Cluster, MPIConfig
from repro.util.costmodel import CostModel


@dataclass
class AllgathervResult:
    nprocs: int
    big_doubles: int
    latency: float
    correct: bool


def allgatherv_benchmark(
    nprocs: int,
    big_doubles: int,
    config: MPIConfig,
    cost: Optional[CostModel] = None,
    seed: int = 0,
    fault_plan: Optional[Any] = None,
    observe: Optional[Callable[[Cluster], None]] = None,
) -> AllgathervResult:
    """Latency of one Allgatherv call.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects faults;
    ``observe`` receives the freshly built cluster before the ranks run
    (the chaos harness uses it to attach instrumentation).
    """
    cluster = Cluster(nprocs, config=config, cost=cost, seed=seed,
                      fault_plan=fault_plan)
    if observe is not None:
        observe(cluster)
    counts = [1] * nprocs
    counts[0] = big_doubles
    total = sum(counts)
    displs = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(int).tolist()
    checks = []

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank + 1))
        recv = np.zeros(total)
        yield from comm.barrier()
        start = comm.engine.now
        yield from comm.allgatherv(send, recv, counts, displs)
        elapsed = comm.engine.now - start
        checks.append(recv)
        return elapsed

    latencies = cluster.run(main)
    expect = np.concatenate(
        [np.full(c, float(r + 1)) for r, c in enumerate(counts)]
    )
    correct = all(np.array_equal(r, expect) for r in checks)
    return AllgathervResult(
        nprocs, big_doubles, float(np.mean(latencies)), correct
    )
