"""Simulator-driven autotuning: measure candidates, emit a tuning table.

``python -m repro.bench autotune`` drives :func:`autotune` over a grid of
collective scenarios (communicator sizes x volume profiles), times every
applicable registered algorithm in the simulator, and records the winner
per bucket key in a :class:`repro.mpi.algorithms.tuning.TuningTable`.
:func:`compare_policies` then replays the paper's nonuniform benches
(fig14-style outlier Allgatherv, fig15-style ring-neighbour Alltoallw)
under the baseline, optimised and autotuned configs so CI can assert the
table ties-or-beats both fixed configurations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.algorithms.registry import REGISTRY, SelectionContext
from repro.mpi.algorithms.tuning import TuningTable, bucket_key
from repro.mpi.config import MPIConfig
from repro.util.costmodel import CostModel

#: communicator sizes the sweep trains (quick keeps the suite CI-sized)
PROCS = (4, 6, 8, 16, 32, 64)
PROCS_QUICK = (4, 8, 16, 32, 64)

DOUBLE_BYTES = 8

#: ``body(comm)`` allocates one rank's buffers and returns
#: ``call(algorithm)``, the collective generator the sweep times
Body = Callable[[Any], Callable[[str], Any]]

#: one sweep point: (collective, label, nprocs, rank 0's wire volumes in
#: bytes, body)
Scenario = Tuple[str, str, int, List[int], Body]


def _allgatherv(label: str, counts: List[int]) -> Scenario:
    """Per-rank ``counts`` of doubles gathered to every rank."""
    displs = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(int).tolist()
    total = int(np.sum(counts))

    def body(comm):
        send = np.full(counts[comm.rank], float(comm.rank + 1))
        recv = np.zeros(total)
        return lambda algorithm: comm.allgatherv(
            send, recv, list(counts), displs, algorithm=algorithm)

    volumes = [c * DOUBLE_BYTES for c in counts]
    return ("allgatherv", label, len(counts), volumes, body)


def _alltoallw(label: str, n: int, dense: bool) -> Scenario:
    """The fig15 10x10 matrix of doubles to both ring neighbours, or to
    every other rank when ``dense``."""
    count = 100

    def body(comm):
        from repro.datatypes import DOUBLE, TypedBuffer

        sendbuf = np.full((n, count), float(comm.rank))
        recvbuf = np.zeros((n, count))
        if dense:
            peers = {p for p in range(n) if p != comm.rank}
        else:
            peers = {(comm.rank + 1) % n, (comm.rank - 1) % n}
        sendspecs = [None] * n
        recvspecs = [None] * n
        for peer in peers:
            off = peer * count * DOUBLE_BYTES
            sendspecs[peer] = TypedBuffer(sendbuf, DOUBLE, count, offset_bytes=off)
            recvspecs[peer] = TypedBuffer(recvbuf, DOUBLE, count, offset_bytes=off)
        return lambda algorithm: comm.alltoallw(
            sendspecs, recvspecs, algorithm=algorithm)

    if dense:
        volumes = [0] + [count * DOUBLE_BYTES] * (n - 1)  # self carries none
    else:
        volumes = [0] * n
        volumes[1 % n] = volumes[-1 % n] = count * DOUBLE_BYTES
    return ("alltoallw", label, n, volumes, body)


def _sparse(label: str, n: int, mixed: bool) -> Scenario:
    """NBX sparse exchange: one medium message to the next rank (the
    assembly halo), or when ``mixed`` a tiny one to the next and a large
    one to the previous rank, the shape the binned variant reorders."""

    def body(comm):
        right, left = (comm.rank + 1) % n, (comm.rank - 1) % n
        if mixed:
            payloads = {right: np.full(4, float(comm.rank)),
                        left: np.full(4096, float(comm.rank))}
        else:
            payloads = {right: np.full(64, float(comm.rank))}
        payloads = {p: v for p, v in payloads.items() if p != comm.rank}
        return lambda algorithm: comm.sparse_alltoall(
            payloads, algorithm=algorithm)

    volumes = [0] * n
    if mixed:
        volumes[1 % n] = 4 * DOUBLE_BYTES
        volumes[-1 % n] = 4096 * DOUBLE_BYTES
    else:
        volumes[1 % n] = 64 * DOUBLE_BYTES
    return ("sparse_alltoall", label, n, volumes, body)


def scenarios(procs: Sequence[int]) -> List[Scenario]:
    """The sweep grid: allgatherv, then alltoallw, then sparse, each in
    ``procs`` order.  :meth:`TuningTable.record` sums latencies per
    bucket, so the order decides ties.

    Both sparse shapes fold into the collective's single rank-uniform
    bucket per size (``UNIFORM_BUCKET_COLLECTIVES``: volume-derived keys
    could diverge across ranks), so the winner reflects the mix.
    """
    grid: List[Scenario] = []
    for n in procs:
        grid.append(_allgatherv("uniform-small", [16] * n))
        grid.append(_allgatherv("uniform-large", [4096] * n))
        # the paper's 32 KB outlier
        grid.append(_allgatherv("outlier", [4096] + [1] * (n - 1)))
    for n in procs:
        grid.append(_alltoallw("ring-neighbour", n, dense=False))
        if n <= 16:
            grid.append(_alltoallw("dense-uniform", n, dense=True))
    for n in procs:
        if n >= 2:
            grid.append(_sparse("neighbour", n, mixed=False))
            grid.append(_sparse("mixed", n, mixed=True))
    return grid


def _measure(n: int, body: Body, algorithm: str, config: MPIConfig,
             cost: Optional[CostModel]) -> float:
    """Mean per-rank simulated seconds of one collective call, timed
    from a barrier."""
    from repro.mpi.comm import Cluster

    cluster = Cluster(n, config=config, cost=cost, heterogeneous=False)

    def main(comm):
        call = body(comm)
        yield from comm.barrier()
        start = comm.engine.now
        yield from call(algorithm)
        return comm.engine.now - start

    return float(np.mean(cluster.run(main)))


def autotune(quick: bool = False, cost: Optional[CostModel] = None,
             procs: Optional[Sequence[int]] = None,
             verbose: bool = False) -> TuningTable:
    """Measure every applicable candidate per scenario; return the table."""
    cost = cost or CostModel(cpu_noise=0.0)
    procs = tuple(procs) if procs is not None else (PROCS_QUICK if quick else PROCS)
    config = MPIConfig.optimized()  # engine flags on; selection is forced below
    table = TuningTable(cost_model={
        "alpha": cost.alpha, "beta": cost.beta, "copy_byte": cost.copy_byte,
    })
    for collective, label, n, volumes, body in scenarios(procs):
        ctx = SelectionContext(collective=collective, size=n,
                               volumes=tuple(volumes), dtype_size=DOUBLE_BYTES,
                               cost=cost)
        key = bucket_key(ctx)
        latencies: Dict[str, float] = {
            algorithm.name: _measure(n, body, algorithm.name, config, cost)
            for algorithm in REGISTRY.candidates(collective, ctx)
        }
        table.record(key, latencies)
        if verbose:
            winner = min(latencies, key=latencies.get)
            print(f"  {collective:<15} {label:>14} N={n:<3} -> "
                  f"{winner:<18} ({key})")
    return table


def compare_policies(table_path: str, quick: bool = False,
                     cost: Optional[CostModel] = None):
    """Replay the nonuniform benches under baseline/optimised/autotuned.

    Returns a :class:`repro.bench.harness.FigureData` with one row per
    (bench, procs); the ``autotuned`` column must tie-or-beat both fixed
    configurations on every row (asserted by the CLI / CI).
    """
    from repro.apps.allgatherv_bench import allgatherv_benchmark
    from repro.apps.alltoallw_bench import alltoallw_ring_benchmark
    from repro.bench.harness import FigureData

    # noise-free by default: the adaptive policy's detection pass draws from
    # the per-rank noise RNG, so a fair three-way comparison must not let
    # RNG phase differences swamp the (deterministic) algorithmic deltas
    cost = cost or CostModel(cpu_noise=0.0)
    base = MPIConfig.baseline()
    opt = MPIConfig.optimized()
    auto = MPIConfig.optimized().with_(
        tuning_table=table_path, name="MVAPICH2-Autotuned",
    )
    procs = (8, 16, 32) if quick else (8, 16, 32, 64)

    fig = FigureData(
        "Autotune", "Autotuned policy vs fixed configs (usec)",
        ["bench", "procs", "MVAPICH2-0.9.5", "MVAPICH2-New",
         "MVAPICH2-Autotuned"],
    )
    for p in procs:
        rb = allgatherv_benchmark(p, 4096, base, cost=cost)
        ro = allgatherv_benchmark(p, 4096, opt, cost=cost)
        ra = allgatherv_benchmark(p, 4096, auto, cost=cost)
        assert rb.correct and ro.correct and ra.correct
        fig.add_row("allgatherv-outlier", p,
                    rb.latency * 1e6, ro.latency * 1e6, ra.latency * 1e6)
    for p in procs:
        rb = alltoallw_ring_benchmark(p, base, cost=cost)
        ro = alltoallw_ring_benchmark(p, opt, cost=cost)
        ra = alltoallw_ring_benchmark(p, auto, cost=cost)
        assert rb.correct and ro.correct and ra.correct
        fig.add_row("alltoallw-ring", p,
                    rb.latency * 1e6, ro.latency * 1e6, ra.latency * 1e6)
    return fig


def check_ties_or_beats(fig, tolerance: float = 1e-9) -> List[str]:
    """Rows where the autotuned column loses to a fixed config."""
    problems = []
    for row in fig.rows:
        bench, procs, base_t, opt_t, auto_t = row
        limit = min(base_t, opt_t) * (1.0 + tolerance)
        if auto_t > limit:
            problems.append(
                f"{bench} N={procs}: autotuned {auto_t:.3f} us loses to "
                f"fixed min {min(base_t, opt_t):.3f} us"
            )
    return problems
