"""Failure propagation: crashes surface uniformly, never as deadlocks.

The crash invariant (docs/FAULTS.md): an injected crash during any
registered collective algorithm raises :class:`RankFailedError` naming the
dead rank on *every* surviving rank.  Plus ULFM-style recovery:
``revoke`` / ``shrink`` / ``agree``.
"""

import numpy as np
import pytest

from repro.datatypes import DOUBLE, TypedBuffer
from repro.faults import FaultPlan
from repro.mpi import (
    Cluster,
    CommRevokedError,
    MPIConfig,
    RankFailedError,
)
from repro.mpi.algorithms import REGISTRY
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def _survivor_errors(outcomes, victim):
    for rank, out in enumerate(outcomes):
        assert isinstance(out, RankFailedError), \
            f"rank {rank}: expected RankFailedError, got {out!r}"
        assert out.rank == victim


@pytest.mark.parametrize("algorithm", REGISTRY.names("allgatherv"))
def test_crash_during_allgatherv_propagates(algorithm):
    n = 8  # power of two: every algorithm applies
    victim = 3
    plan = FaultPlan(seed=4).crash(victim, at_op=3)
    cluster = Cluster(n, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)
    counts = [2] * n
    counts[0] = 300
    total = sum(counts)

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank))
        recv = np.zeros(total)
        for _ in range(4):
            yield from comm.allgatherv(send, recv, counts,
                                       algorithm=algorithm)
        return recv

    outcomes = cluster.run(main, return_exceptions=True)
    _survivor_errors(outcomes, victim)
    assert victim in cluster.failed_ranks


@pytest.mark.parametrize("algorithm", REGISTRY.names("alltoallw"))
def test_crash_during_alltoallw_propagates(algorithm):
    n = 6
    victim = 2
    plan = FaultPlan(seed=4).crash(victim, at_op=4)
    cluster = Cluster(n, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        count = 16
        sendbuf = np.full((n, count), float(comm.rank))
        recvbuf = np.zeros((n, count))
        sendspecs = [TypedBuffer(sendbuf, DOUBLE, count,
                                 offset_bytes=p * count * 8)
                     for p in range(n)]
        recvspecs = [TypedBuffer(recvbuf, DOUBLE, count,
                                 offset_bytes=p * count * 8)
                     for p in range(n)]
        for _ in range(4):
            yield from comm.alltoallw(sendspecs, recvspecs,
                                      algorithm=algorithm)
        return recvbuf

    outcomes = cluster.run(main, return_exceptions=True)
    _survivor_errors(outcomes, victim)


@pytest.mark.parametrize("backend", ["datatype", "hand_tuned"])
@pytest.mark.parametrize("config", ["baseline", "optimized"])
def test_crash_during_vecscatter_propagates(config, backend):
    """Both VecScatter backends fail fast: the datatype path through
    ``Comm.alltoallw``, the hand-tuned exchange as its own collective
    instance (``repro.mpi.collectives.instance``)."""
    from repro.petsc.scatter import VecScatter

    n, victim, width = 6, 2, 8
    plan = FaultPlan().crash(victim, at_time=1e-9)
    cluster = Cluster(n, config=getattr(MPIConfig, config)(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        offs = np.arange(width)
        scatter = VecScatter(comm, {(comm.rank + 1) % n: offs},
                             {(comm.rank - 1) % n: offs},
                             (np.empty(0, dtype=np.int64),) * 2)
        src, dst = np.full(width, float(comm.rank)), np.zeros(width)
        for _ in range(4):
            yield from scatter.scatter(src, dst, backend=backend)
        return dst

    outcomes = cluster.run(main, return_exceptions=True)
    _survivor_errors(outcomes, victim)


def _io_collective(write):
    from repro.datatypes import Vector
    from repro.mpi.io import File

    def main(comm):
        fh = yield from File.open(comm, "sweep.bin")
        fh.set_view(comm.rank * 8, Vector(64, 1, 4, DOUBLE))
        buf = np.full(64, float(comm.rank))
        if write:
            yield from fh.write_all(buf)
        else:
            yield from fh.read_all(buf)
        return True
    return main


def _cached_assembly(comm):
    """One discovering assembly, then two replays of the cached plan."""
    from repro.petsc.vec import Layout, Vec

    g = 64
    v = Vec(comm, Layout(comm.size, g))
    v.set_option("subset_off_proc_entries")
    target = ((comm.rank + 1) % comm.size) * (g // comm.size) + 1
    for _ in range(3):
        v.set_values([target], [1.0], mode="add")
        yield from v.assemble()
    return True


@pytest.mark.parametrize("at_op", range(1, 17))
@pytest.mark.parametrize("exchange", ["write_all", "read_all",
                                      "cached_assembly"])
def test_crash_during_library_exchange_is_uniform(exchange, at_op):
    """Library exchanges that run as one collective instance (MPI-IO
    two-phase, ``Vec``'s cached assembly replay) fail like a collective:
    every survivor returns or raises ``RankFailedError`` naming the
    victim -- never ``CommRevokedError``, never a deadlock.  A survivor
    that never exchanges with the victim may return normally."""
    main = {"write_all": _io_collective(True),
            "read_all": _io_collective(False),
            "cached_assembly": _cached_assembly}[exchange]
    victim = 3
    cluster = Cluster(4, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=FaultPlan(seed=1).crash(victim, at_op=at_op))
    outcomes = cluster.run(main, return_exceptions=True)
    for rank, out in enumerate(outcomes[:victim]):
        if out is True:
            continue
        assert isinstance(out, RankFailedError), \
            f"rank {rank}: expected RankFailedError, got {out!r}"
        assert out.rank == victim


def test_crash_during_barrier_and_allreduce():
    victim = 1
    plan = FaultPlan(seed=0).crash(victim, at_time=1e-7)
    cluster = Cluster(4, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        for _ in range(20):
            yield from comm.barrier()
            yield from comm.allreduce(1, op=lambda a, b: a + b)
        return True

    outcomes = cluster.run(main, return_exceptions=True)
    _survivor_errors(outcomes, victim)


def test_send_to_failed_rank_raises():
    plan = FaultPlan(seed=0).crash(1, at_time=0.0)
    cluster = Cluster(3, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        yield from comm.cpu(1e-6)  # let the crash land first
        if comm.rank == 0:
            yield from comm.send(np.ones(4), dest=1)
        return True

    outcomes = cluster.run(main, return_exceptions=True)
    assert isinstance(outcomes[0], RankFailedError)
    assert isinstance(outcomes[1], RankFailedError)  # the victim itself
    assert outcomes[2] is True  # uninvolved rank unaffected


def test_recv_from_failed_rank_raises():
    plan = FaultPlan(seed=0).crash(2, at_time=0.0)
    cluster = Cluster(3, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        yield from comm.cpu(1e-6)
        if comm.rank == 0:
            buf = np.zeros(4)
            yield from comm.recv(buf, source=2)
        return True

    outcomes = cluster.run(main, return_exceptions=True)
    assert isinstance(outcomes[0], RankFailedError)


def test_shrink_then_continue():
    """Survivors shrink and keep doing collectives on the new comm."""
    victim = 2
    plan = FaultPlan(seed=0).crash(victim, at_op=2)
    cluster = Cluster(5, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        try:
            for _ in range(10):
                yield from comm.barrier()
        except RankFailedError:
            comm = yield from comm.shrink()
            assert comm.size == 4
            total = yield from comm.allreduce(1, op=lambda a, b: a + b)
            return total
        return "no failure seen"

    outcomes = cluster.run(main, return_exceptions=True)
    for rank, out in enumerate(outcomes):
        if rank == victim:
            assert isinstance(out, RankFailedError)
        else:
            assert out == 4


def test_agree_after_failure():
    victim = 1
    plan = FaultPlan(seed=0).crash(victim, at_op=2)
    cluster = Cluster(4, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        try:
            for _ in range(10):
                yield from comm.barrier()
        except RankFailedError:
            flag = yield from comm.agree(comm.rank != 0)
            return flag
        return None

    outcomes = cluster.run(main, return_exceptions=True)
    for rank, out in enumerate(outcomes):
        if rank != victim:
            assert out is False  # logical AND across survivors


def test_revoked_comm_rejects_new_operations():
    cluster = Cluster(3, config=MPIConfig.optimized(), cost=QUIET)

    def main(comm):
        if comm.rank == 0:
            comm.revoke()
        yield from comm.cpu(1e-6)
        try:
            yield from comm.barrier()
        except (CommRevokedError, RankFailedError) as exc:
            return type(exc).__name__
        return "not revoked"

    outcomes = cluster.run(main)
    assert outcomes == ["CommRevokedError"] * 3


def test_hang_with_detector_upgrades_to_failure():
    plan = FaultPlan(seed=0).hang(1, at_time=1e-6, detect_after=1e-4)
    cluster = Cluster(3, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)

    def main(comm):
        for _ in range(50):
            yield from comm.barrier()
        return True

    outcomes = cluster.run(main, return_exceptions=True)
    assert isinstance(outcomes[0], RankFailedError)
    assert outcomes[0].rank == 1
    assert isinstance(outcomes[2], RankFailedError)
    assert 1 in cluster.failed_ranks


def test_rank_failures_metric_counts():
    from repro.prof import Profiler

    plan = FaultPlan(seed=0).crash(1, at_time=1e-7)
    cluster = Cluster(3, config=MPIConfig.optimized(), cost=QUIET,
                      fault_plan=plan)
    prof = Profiler.attach(cluster)

    def main(comm):
        for _ in range(5):
            yield from comm.barrier()
        return True

    cluster.run(main, return_exceptions=True)
    assert prof.metrics.counter("repro_rank_failures_total").total == 1
    assert prof.metrics.counter("repro_faults_injected_total").total >= 1
