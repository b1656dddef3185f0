"""Repeated sparse Vec assembly: discovery cost vs plan reuse.

The PETSc pattern behind ``VecSetValues``/``VecAssemblyBegin``: every
rank contributes entries to a handful of *other* ranks' rows (a halo),
and the same sparsity pattern repeats every time step.  Three strategies
are compared over ``rounds`` identical assemblies:

- ``dense discovery``  : every round rediscovers the pattern with the
  dense counts-alltoall protocol (the baseline MPI configuration's
  ``mpich`` policy selects it),
- ``NBX discovery``    : every round rediscovers with the nonblocking
  consensus (the optimised configuration's ``adaptive`` policy),
- ``NBX + plan``       : ``VEC_SUBSET_OFF_PROC_ENTRIES`` -- one NBX
  discovery, then guarded cached point-to-point for every later round.

Discovery costs a full membership agreement per round (counts exchange
or consensus barrier); the cached plan replaces it with one fingerprint
agreement plus exactly the data messages, so its advantage grows with
the number of rounds the pattern is reused.

:func:`assembly_figure` is the ``python -m repro.bench assembly`` gate:
plan reuse must be byte-identical to rediscovery and put strictly fewer
messages on the wire at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.bench.harness import FigureData
from repro.mpi import Cluster, MPIConfig
from repro.petsc import Layout, Vec
from repro.prof import Profiler

#: vector entries owned by each process (weak scaling)
PER_PROCESS = 256

#: off-rank peers each rank scatters entries into
PEERS = 2

#: entries contributed per peer per assembly round
PER_PEER = 8


@dataclass
class AssemblyResult:
    nprocs: int
    strategy: str
    rounds: int
    latency: float        # simulated seconds, all rounds
    messages: int         # messages put on the wire, all rounds
    checksum: float       # global sum after the last round (correctness)


def _targets(rank: int, nprocs: int) -> np.ndarray:
    """The global indices rank contributes to: PER_PEER spread-out slots
    in each of PEERS successor blocks."""
    idx = []
    for k in range(1, PEERS + 1):
        peer = (rank + k) % nprocs
        base = peer * PER_PROCESS
        idx.extend(base + np.arange(PER_PEER) * (PER_PROCESS // PER_PEER))
    return np.unique(np.asarray(idx, dtype=np.int64))


def run_assembly(nprocs: int, strategy: str,
                 rounds: int = 8) -> AssemblyResult:
    """Run ``rounds`` identical-pattern assemblies under ``strategy``
    (``dense`` / ``nbx`` / ``plan``)."""
    config = MPIConfig.baseline() if strategy == "dense" \
        else MPIConfig.optimized()
    cluster = Cluster(nprocs, config=config, heterogeneous=False)
    Profiler.attach(cluster)

    def main(comm):
        lay = Layout(comm.size, nprocs * PER_PROCESS)
        v = Vec(comm, lay)
        if strategy == "plan":
            v.set_option("subset_off_proc_entries")
        idx = _targets(comm.rank, comm.size)
        yield from comm.barrier()
        start = comm.engine.now
        for rnd in range(rounds):
            vals = np.full(idx.size, float(comm.rank + 1) * (rnd + 1))
            v.set_values(idx, vals, mode="add")
            yield from v.assemble()
        elapsed = comm.engine.now - start
        total = yield from v.sum()
        return elapsed, total

    outcomes = cluster.run(main)
    latency = float(np.mean([t for t, _ in outcomes]))
    return AssemblyResult(
        nprocs=nprocs, strategy=strategy, rounds=rounds, latency=latency,
        messages=int(cluster.net.messages_on_wire),
        checksum=float(outcomes[0][1]),
    )


def assembly_figure(quick: bool = False) -> Tuple[FigureData, List[str]]:
    """The three strategies side by side, plus the gate's violations."""
    procs = (4, 8, 16) if quick else (4, 8, 16, 32)
    # the plan's one-time fingerprint agreement amortises after ~4-5
    # cached rounds; run well past break-even so the gate is meaningful
    rounds = 8 if quick else 12
    fig = FigureData(
        name="assembly",
        title=f"Repeated sparse Vec assembly x{rounds} "
              "(latency s / wire messages)",
        columns=["P", "dense (s)", "NBX (s)", "NBX+plan (s)",
                 "dense msgs", "NBX msgs", "plan msgs"],
        notes=["dense/NBX rediscover the pattern every round; NBX+plan "
               "caches it (VEC_SUBSET_OFF_PROC_ENTRIES) after round 0"],
    )
    problems = []
    for n in procs:
        res = {s: run_assembly(n, s, rounds=rounds)
               for s in ("dense", "nbx", "plan")}
        fig.add_row(n, res["dense"].latency, res["nbx"].latency,
                    res["plan"].latency, res["dense"].messages,
                    res["nbx"].messages, res["plan"].messages)
        if not (res["dense"].checksum == res["nbx"].checksum
                == res["plan"].checksum):
            problems.append(
                f"P={n}: strategies disagree on the assembled vector "
                f"(dense {res['dense'].checksum}, nbx {res['nbx'].checksum},"
                f" plan {res['plan'].checksum})")
        for other in ("dense", "nbx"):
            if res["plan"].messages >= res[other].messages:
                problems.append(
                    f"P={n}: cached plan sent {res['plan'].messages} "
                    f"message(s), not fewer than {other}'s "
                    f"{res[other].messages}")
    return fig, problems
