"""The host-time hot path simulates exactly what the path it replaced did.

Every scenario below pins ``(engine.now, events_fired, messages_on_wire,
bytes_on_wire, CRC32 of the received bytes, ranks that ended in
RankFailedError)`` to the values recorded on the commit before the
closure-free engine / frame-lean ``Comm`` delivery path landed: a host-side
optimisation may change what an event *costs*, never which events fire,
when, or what they carry.  Run this file as a script to print the tuples of
the current tree.
"""

import zlib

import numpy as np
import pytest

from repro.datatypes import DOUBLE, DatatypeError, TypedBuffer, Vector
from repro.faults import FaultPlan
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    Cluster,
    MessageTrace,
    MPIConfig,
    RankFailedError,
    TransportError,
)
from repro.mpi.pack import mpi_pack, mpi_unpack
from repro.mpi.rma import Win
from repro.prof import Profiler

RELIABLE = MPIConfig.optimized().with_(reliable_transport=True)


def _crc(*arrays) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).view(np.uint8), crc)
    return crc


def _pair(count, tag=7):
    """Rank 0 sends ``count`` doubles to rank 1."""
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(count, dtype=np.float64), dest=1,
                                 tag=tag)
            return None
        buf = np.zeros(count)
        yield from comm.recv(buf, source=0, tag=tag)
        return buf
    return main


def _strided(comm):
    """A 64 KiB noncontiguous column payload: pack stages, pipelined
    chunks and a receiver-side unpack."""
    n = 8192
    if comm.rank == 0:
        m = np.arange(4 * n, dtype=np.float64).reshape(n, 4)
        yield from comm.send(TypedBuffer(m, Vector(n, 1, 4, DOUBLE),
                                         offset_bytes=8), dest=1)
        return None
    m = np.zeros((n, 2))
    yield from comm.recv(TypedBuffer(m, Vector(n, 1, 2, DOUBLE)), source=0)
    return m


def _self_send(comm):
    out = np.zeros(32)
    req = yield from comm.isend(np.arange(32.0) + comm.rank, dest=comm.rank,
                                tag=3)
    yield from comm.recv(out, source=comm.rank, tag=3)
    yield from req.wait()
    return out


def _wildcards(comm):
    if comm.rank != 0:
        yield from comm.cpu(1e-6 * comm.rank)
        yield from comm.send(np.full(4, float(comm.rank)), dest=0,
                             tag=comm.rank * 10)
        return None
    got = np.zeros((3, 4))
    order = []
    for i in range(3):
        status = yield from comm.recv(got[i], source=ANY_SOURCE, tag=ANY_TAG)
        order.append((status.source, status.tag))
    return np.concatenate([got.ravel(), np.array(order, float).ravel()])


def _probes(comm):
    if comm.rank == 0:
        yield from comm.send(np.arange(6.0), dest=1, tag=5)
        yield from comm.send(np.arange(3.0), dest=1, tag=6)
        return None
    assert comm.iprobe(source=0, tag=99) is None
    status = yield from comm.probe(source=ANY_SOURCE, tag=6)
    first = np.zeros(status.nbytes // 8)
    yield from comm.recv(first, source=status.source, tag=status.tag)
    while comm.iprobe(source=0, tag=5) is None:
        yield from comm.cpu(1e-7)
    second = np.zeros(6)
    yield from comm.recv(second, source=0, tag=5)
    return np.concatenate([first, second])


def _ring_sendrecv(comm):
    recv = np.zeros(16)
    for step in range(3):
        yield from comm.sendrecv(np.arange(16.0) + comm.rank + step,
                                 (comm.rank + 1) % comm.size, recv,
                                 (comm.rank - 1) % comm.size, sendtag=step)
    return recv


def _objects(comm):
    if comm.rank == 0:
        for dest in (1, 2):
            comm.isend_obj({"to": dest}, dest, tag=11, nbytes=48)
        total = 0
        for _ in (1, 2):
            total += yield from comm.recv_obj(ANY_SOURCE, tag=12)
        return np.array([float(total)])
    msg = yield from comm.recv_obj(0, tag=11)
    comm.isend_obj(msg["to"] * 100, 0, tag=12)
    return np.array([float(msg["to"])])


def _crash_mid_message(comm):
    """Rank 1 dies while rank 0's rendezvous payload is on the wire."""
    if comm.rank == 0:
        yield from comm.send(np.arange(4096.0), dest=1, tag=1)
        return np.zeros(1)
    if comm.rank == 1:
        buf = np.zeros(4096)
        yield from comm.recv(buf, source=0, tag=1)
        return buf
    buf = np.zeros(8)
    yield from comm.recv(buf, source=1, tag=2)   # poisoned by the sweep
    return buf


def _reliable_ring(comm):
    recv = np.zeros(64)
    req = yield from comm.isend(np.arange(64.0) + comm.rank * 1000,
                                dest=(comm.rank + 1) % comm.size, tag=7)
    yield from comm.recv(recv, source=(comm.rank - 1) % comm.size, tag=7)
    yield from req.wait()
    big = np.zeros(4096)
    yield from comm.sendrecv(np.arange(4096.0) * (comm.rank + 1),
                             (comm.rank + 1) % comm.size, big,
                             (comm.rank - 1) % comm.size, sendtag=8)
    return np.concatenate([recv, big])


def _hung_rendezvous(comm):
    """Rank 1 hangs before posting its receive: rank 0's reliable
    rendezvous send runs out of liveness polls."""
    if comm.rank == 0:
        try:
            yield from comm.send(np.arange(4096.0), dest=1, tag=2)
        except TransportError:
            return np.full(1, -1.0)
        return np.zeros(1)
    yield from comm.cpu(1e-3)
    buf = np.zeros(4096)
    yield from comm.recv(buf, source=0, tag=2)
    return buf


def _collectives(comm):
    """Nonuniform collectives on top of the p2p path (obj + typed, NBX
    probes, tag windows)."""
    yield from comm.barrier()
    counts = [1 + 40 * (r == 2) for r in range(comm.size)]
    gathered = np.zeros(sum(counts))
    yield from comm.allgatherv(np.full(counts[comm.rank], float(comm.rank)),
                               gathered, counts)
    total = yield from comm.allreduce(comm.rank)
    got = yield from comm.sparse_alltoall(
        {(comm.rank + 2) % comm.size: np.arange(3.0) + comm.rank})
    parts = [gathered, np.array([float(total)])]
    parts += [got[src] for src in sorted(got)]
    return np.concatenate(parts)


def _offset_views(comm):
    """``isend``, ``MPI_Pack`` and a multi-RDMA ``put``, each over a sparse
    column layout that starts ``offset_bytes`` into its buffer: the cost
    engines, the pack charge and the per-block RDMA loop all walk
    ``TypedBuffer.blocks``."""
    n, nput = 8192, 256
    col = Vector(n, 1, 4, DOUBLE)
    local = np.zeros(4 * nput)
    win = yield from Win.create(comm, local)
    tb = TypedBuffer(np.arange(4.0 * n) + comm.rank, col, offset_bytes=8)
    got = np.zeros(n)
    if comm.rank == 0:
        req = yield from comm.isend(tb, dest=1, tag=1)
        yield from req.wait()
        yield from win.put(np.arange(nput, dtype=np.float64), 1,
                           Vector(nput, 1, 4, DOUBLE), 1,
                           target_offset_bytes=16, method="multi_rdma")
    else:
        yield from comm.recv(got, source=0, tag=1)
    packed = np.zeros(col.size, dtype=np.uint8)
    yield from mpi_pack(comm, tb, None, None, packed, 0)
    yield from win.fence()
    return np.concatenate([got, packed.view(np.float64), local])


def _data_path(comm):
    """The typed-payload moves ``offset_views`` leaves out: a ``pack`` put
    from and into sparse columns (origin engine, target unpack), a ``get``
    into a sparse origin, an ``accumulate``, ``MPI_Unpack`` into a sparse
    layout, and a short message into a sparse receive (the prefix fill)."""
    n = 512
    col = Vector(n, 1, 4, DOUBLE)
    peer = 1 - comm.rank
    local = np.arange(4.0 * n) + 1000 * comm.rank
    win = yield from Win.create(comm, local)
    origin = TypedBuffer(np.arange(4.0 * n) - comm.rank, col, offset_bytes=8)
    yield from win.put(origin, peer, col, 1, method="pack")
    yield from win.fence()
    got = np.zeros(4 * n)
    yield from win.get(TypedBuffer(got, col, offset_bytes=24), peer, col, 1,
                       target_offset_bytes=8)
    yield from win.fence()
    yield from win.accumulate(np.full(n, 0.5), peer, col, 1,
                              target_offset_bytes=16)
    yield from win.fence()
    unpacked = np.zeros(4 * n)
    yield from mpi_unpack(comm, np.arange(float(n)) * 2, 0,
                          TypedBuffer(unpacked, col, offset_bytes=16))
    short = np.full(4 * n, -1.0)
    if comm.rank == 0:
        yield from comm.send(np.arange(n // 2, dtype=np.float64), dest=1, tag=4)
    else:
        status = yield from comm.recv(TypedBuffer(short, col), source=0, tag=4)
        assert status.nbytes == 4 * n
    return np.concatenate([local, got, unpacked, short])


def _counts(comm):
    return [1 + 3 * (r == comm.size - 1) + r for r in range(comm.size)]


def _coll_barrier(comm):
    yield from comm.barrier()
    return None


def _coll_bcast(comm):
    root = comm.size - 1
    value = yield from comm.bcast(7.5 if comm.rank == root else None, root)
    return np.array([value])


def _coll_allreduce(comm):
    total = yield from comm.allreduce(comm.rank + 1)
    top = yield from comm.allreduce(comm.rank, op=max)
    return np.array([total, top], dtype=np.float64)


def _coll_gather_obj(comm):
    got = yield from comm.gather_obj(3.0 * comm.rank)
    return None if got is None else np.array(got)


def _coll_gatherv(comm):
    counts = _counts(comm)
    root = comm.size - 1
    recv = np.zeros(sum(counts)) if comm.rank == root else None
    got = yield from comm.gatherv(np.full(counts[comm.rank], comm.rank + 0.5),
                                  recv, counts, root=root)
    return got


def _coll_scatterv(comm):
    counts = _counts(comm)
    send = np.arange(float(sum(counts))) if comm.rank == 0 else None
    got = yield from comm.scatterv(send, counts, recvbuf=np.zeros(
        counts[comm.rank]))
    return got


def _coll_allgather(comm):
    recv = np.zeros(2 * comm.size)
    yield from comm.allgather(np.full(2, float(comm.rank)), recv)
    return recv


def _coll_alltoall(comm):
    recv = np.zeros(2 * comm.size)
    got = yield from comm.alltoall(np.arange(2.0 * comm.size) + 10 * comm.rank,
                                   recv, 2)
    return got


def _coll_reduce(comm):
    got = yield from comm.reduce(np.arange(4.0) + comm.rank)
    return got


def _coll_allreduce_array(comm):
    got = yield from comm.allreduce_array(np.arange(4.0) * (comm.rank + 1))
    return got


def _coll_scan(comm):
    got = yield from comm.scan(np.arange(4.0) + comm.rank)
    return got


def _coll_allgatherv(comm):
    counts = [1 + 40 * (r == comm.size - 1) for r in range(comm.size)]
    recv = np.zeros(sum(counts))
    yield from comm.allgatherv(np.full(counts[comm.rank], float(comm.rank)),
                               recv, counts)
    return recv


def _coll_alltoallw(comm):
    n = comm.size
    sendbuf = np.arange(4.0 * n) + 100 * comm.rank
    recvbuf = np.zeros(4 * n)
    # rank r sends (r + p) % 3 doubles to p: zero, small and odd-sized pairs
    sendspecs = [TypedBuffer(sendbuf, DOUBLE, (comm.rank + p) % 3,
                             offset_bytes=32 * p) for p in range(n)]
    recvspecs = [TypedBuffer(recvbuf, DOUBLE, (p + comm.rank) % 3,
                             offset_bytes=32 * p) for p in range(n)]
    yield from comm.alltoallw(sendspecs, recvspecs)
    return recvbuf


def _coll_sparse_alltoall(comm):
    payloads = {(comm.rank + 1) % comm.size: np.arange(comm.rank + 1.0),
                comm.rank: np.full(2, float(comm.rank))}
    got = yield from comm.sparse_alltoall(payloads)
    return np.concatenate([got[src] for src in sorted(got)])


#: every public collective, one small nonuniform call each
COLLECTIVE_PROGRAMS = {
    name[len("_coll_"):]: fn for name, fn in list(globals().items())
    if name.startswith("_coll_")}

#: name -> (ranks, program, Cluster kwargs)
SCENARIOS = {
    "eager": (2, _pair(64), {}),
    "rendezvous": (2, _pair(4096), {}),
    "pipelined": (2, _pair(3 * 16 * 1024 // 8 + 5), {}),
    "pipelined_strided": (2, _strided, {}),
    "self_send": (2, _self_send, {}),
    "wildcards": (4, _wildcards, {}),
    "probes": (2, _probes, {}),
    "sendrecv_ring": (5, _ring_sendrecv, {}),
    "objects": (3, _objects, {}),
    "baseline_strided": (2, _strided, {"config": MPIConfig.baseline()}),
    "collectives": (6, _collectives, {}),
    "offset_views": (2, _offset_views, {}),
    "data_path": (2, _data_path, {}),
    "baseline_offset_views": (2, _offset_views,
                              {"config": MPIConfig.baseline()}),
    "crash_mid_message": (3, _crash_mid_message, {
        "fault_plan": lambda: FaultPlan(seed=1).crash(1, at_time=3e-6)}),
    "reliable": (4, _reliable_ring, {"config": RELIABLE}),
    "reliable_faulty": (4, _reliable_ring, {
        "config": RELIABLE,
        "fault_plan": lambda: (FaultPlan(seed=5).drop(nth=2)
                               .corrupt(nth=5)
                               .delay_spike(delay=1e-4, nth=9))}),
    # the 2nd and 6th transfers are middle chunks of the 1st and 2nd
    # attempts: one dropped attempt, one that fails the checksum
    "reliable_pipelined_faulty": (2, _pair(3 * 16 * 1024 // 8 + 5), {
        "config": RELIABLE,
        "fault_plan": lambda: FaultPlan(seed=5).drop(nth=2).corrupt(nth=6)}),
    "reliable_hung_rendezvous": (2, _hung_rendezvous, {
        "config": RELIABLE,
        "fault_plan": lambda: FaultPlan(seed=1).hang(1, at_time=1e-6)}),
    # every attempt is lost; the destination dies between retransmits
    "reliable_crash_mid_retransmit": (2, _pair(64), {
        "config": RELIABLE,
        "fault_plan": lambda: (FaultPlan(seed=1).drop(min_bytes=1)
                               .crash(1, at_time=5e-4))}),
}
for _name, _program in COLLECTIVE_PROGRAMS.items():
    for _config in ("baseline", "optimized"):
        for _ranks in (1, 3):
            SCENARIOS[f"{_name}_{_config}_n{_ranks}"] = (
                _ranks, _program, {"config": getattr(MPIConfig, _config)()})

#: recorded at commit 24af8d3 (the parent of the hot-path change); the two
#: ``offset_views`` rows at 49568dd (the parent of the one-datatype-path
#: change, when every offset buffer still carried its own shifted block list)
PINNED = {
    "baseline_offset_views": (0.0005724096007493675, 287, 264, 67584,
                              3147344861, []),
    "baseline_strided": (0.00026351439544956856, 14, 4, 65536, 2856121149, []),
    "collectives": (6.107581092160212e-05, 345, 72, 2176, 2699767113, []),
    "crash_mid_message": (3.1405714285714284e-05, 11, 2, 32768, 1696784233,
                          [1, 2]),
    "eager": (4.3657142857142855e-06, 6, 1, 512, 1609984094, []),
    "objects": (1.2125714285714286e-05, 17, 4, 224, 1916446317, []),
    "offset_views": (0.0005416464675435553, 286, 264, 67584, 3147344861, []),
    # recorded at 52fd388 (the parent of the one-data-path change), with
    # and without a profiler attached
    "data_path": (6.783803622474274e-05, 66, 15, 26624, 4251424330, []),
    "pipelined": (5.113714285714285e-05, 10, 4, 49192, 33400267, []),
    "pipelined_strided": (0.00023236026763646543, 13, 4, 65536, 2856121149, []),
    "probes": (8.05142857142857e-06, 13, 2, 72, 3975108231, []),
    "reliable": (4.3771428571428574e-05, 58, 20, 133120, 2831585439, []),
    "reliable_faulty": (0.0010083657142857143, 67, 23, 134144, 2831585439, []),
    # recorded at a347c20 (the parent of the one-conduit change)
    "reliable_crash_mid_retransmit": (0.0006087314285714286, 12, 2, 1024, 0,
                                      [1]),
    "reliable_hung_rendezvous": (0.009000000000000001, 24, 0, 0, 708874441,
                                 []),
    "reliable_pipelined_faulty": (0.0007574114285714287, 23, 13, 147576,
                                  33400267, []),
    "rendezvous": (3.1405714285714284e-05, 8, 2, 32768, 2825176521, []),
    "self_send": (1.024e-07, 10, 2, 512, 3415135844, []),
    "sendrecv_ring": (1.2274285714285714e-05, 65, 15, 1920, 3244592032, []),
    "wildcards": (1.3073330721113268e-05, 21, 3, 96, 899757474, []),
    # every public collective at N=1 and N=3: recorded at 9e55482 (the
    # parent of the one-dispatcher change)
    'allgather_baseline_n1': (6.430459472267762e-09, 2, 0, 0, 3971697493, []),
    'allgather_baseline_n3': (8.029326804197982e-06, 32, 6, 96, 1727084673, []),
    'allgather_optimized_n1': (6.430459472267762e-09, 2, 0, 0, 3971697493, []),
    'allgather_optimized_n3': (8.029326804197982e-06, 32, 6, 96, 1727084673, []),
    'allgatherv_baseline_n1': (1.3182441918148913e-07, 2, 0, 0, 3046287943, []),
    'allgatherv_baseline_n3': (8.600742190928452e-06, 33, 6, 688, 2158355595, []),
    'allgatherv_optimized_n1': (1.3182441918148913e-07, 2, 0, 0, 3046287943, []),
    'allgatherv_optimized_n3': (8.600742190928452e-06, 33, 6, 688, 2158355595, []),
    'allreduce_array_baseline_n1': (0.0, 1, 0, 0, 3790501801, []),
    'allreduce_array_baseline_n3': (1.206857142857143e-05, 20, 4, 128, 679555675, []),
    'allreduce_array_optimized_n1': (0.0, 1, 0, 0, 3790501801, []),
    'allreduce_array_optimized_n3': (1.206857142857143e-05, 20, 4, 128, 679555675, []),
    'allreduce_baseline_n1': (0.0, 1, 0, 0, 226478287, []),
    'allreduce_baseline_n3': (2.406857142857143e-05, 30, 8, 128, 209256805, []),
    'allreduce_optimized_n1': (0.0, 1, 0, 0, 226478287, []),
    'allreduce_optimized_n3': (2.406857142857143e-05, 30, 8, 128, 209256805, []),
    'alltoall_baseline_n1': (6.430459472267762e-09, 2, 0, 0, 1315014613, []),
    'alltoall_baseline_n3': (8.029326804197982e-06, 32, 6, 96, 3399088399, []),
    'alltoall_optimized_n1': (6.430459472267762e-09, 2, 0, 0, 1315014613, []),
    'alltoall_optimized_n3': (8.029326804197982e-06, 32, 6, 96, 3399088399, []),
    'alltoallw_baseline_n1': (0.0, 1, 0, 0, 420107693, []),
    'alltoallw_baseline_n3': (8.024289490373106e-06, 34, 6, 48, 2732525282, []),
    'alltoallw_optimized_n1': (0.0, 1, 0, 0, 420107693, []),
    'alltoallw_optimized_n3': (8.023612518483695e-06, 23, 4, 48, 2732525282, []),
    'barrier_baseline_n1': (0.0, 1, 0, 0, 0, []),
    'barrier_baseline_n3': (8e-06, 21, 6, 0, 0, []),
    'barrier_optimized_n1': (0.0, 1, 0, 0, 0, []),
    'barrier_optimized_n3': (8e-06, 21, 6, 0, 0, []),
    'bcast_baseline_n1': (0.0, 1, 0, 0, 3351224614, []),
    'bcast_baseline_n3': (8.022857142857143e-06, 10, 2, 32, 2355178838, []),
    'bcast_optimized_n1': (0.0, 1, 0, 0, 3351224614, []),
    'bcast_optimized_n3': (8.022857142857143e-06, 10, 2, 32, 2355178838, []),
    'gather_obj_baseline_n1': (0.0, 1, 0, 0, 1696784233, []),
    'gather_obj_baseline_n3': (8.022857142857143e-06, 10, 2, 32, 2588102682, []),
    'gather_obj_optimized_n1': (0.0, 1, 0, 0, 1696784233, []),
    'gather_obj_optimized_n3': (8.022857142857143e-06, 10, 2, 32, 2588102682, []),
    'gatherv_baseline_n1': (1.2860918944535524e-08, 2, 0, 0, 2449483445, []),
    'gatherv_baseline_n3': (8.017142857142858e-06, 13, 2, 24, 3665090163, []),
    'gatherv_optimized_n1': (1.2860918944535524e-08, 2, 0, 0, 2449483445, []),
    'gatherv_optimized_n3': (8.017142857142858e-06, 13, 2, 24, 3665090163, []),
    'reduce_baseline_n1': (0.0, 1, 0, 0, 3790501801, []),
    'reduce_baseline_n3': (8.045714285714286e-06, 12, 2, 64, 755059672, []),
    'reduce_optimized_n1': (0.0, 1, 0, 0, 3790501801, []),
    'reduce_optimized_n3': (8.045714285714286e-06, 12, 2, 64, 755059672, []),
    'scan_baseline_n1': (0.0, 1, 0, 0, 3790501801, []),
    'scan_baseline_n3': (8.045714285714286e-06, 16, 3, 96, 2635497622, []),
    'scan_optimized_n1': (0.0, 1, 0, 0, 3790501801, []),
    'scan_optimized_n3': (8.045714285714286e-06, 16, 3, 96, 2635497622, []),
    'scatterv_baseline_n1': (1.2860918944535524e-08, 2, 0, 0, 3790501801, []),
    'scatterv_baseline_n3': (8.045714285714286e-06, 13, 2, 64, 4246596504, []),
    'scatterv_optimized_n1': (1.2860918944535524e-08, 2, 0, 0, 3790501801, []),
    'scatterv_optimized_n3': (8.045714285714286e-06, 13, 2, 64, 4246596504, []),
    'sparse_alltoall_baseline_n1': (3.215229736133881e-09, 2, 0, 0, 3971697493, []),
    'sparse_alltoall_baseline_n3': (1.2031806259241847e-05, 44, 9, 96, 2636808251, []),
    'sparse_alltoall_optimized_n1': (0.0, 5, 0, 0, 3971697493, []),
    'sparse_alltoall_optimized_n3': (1.2017142857142857e-05, 52, 9, 48, 2636808251, []),
}


def run_scenario(name, profiled=False):
    ranks, program, kw = SCENARIOS[name]
    kw = dict(kw)
    if "fault_plan" in kw:
        kw["fault_plan"] = kw["fault_plan"]()
    cluster = Cluster(ranks, seed=3, **kw)
    if profiled:
        Profiler.attach(cluster)
    results = cluster.run(program, return_exceptions=True)
    failed = sorted(r for r, res in enumerate(results)
                    if isinstance(res, RankFailedError))
    arrays = [res for res in results if isinstance(res, np.ndarray)]
    return (cluster.engine.now, cluster.engine.events_fired,
            cluster.net.messages_on_wire, cluster.net.bytes_on_wire,
            _crc(*arrays), failed)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_parent_commit(name):
    assert run_scenario(name) == PINNED[name]


@pytest.mark.parametrize("name", ["data_path", "offset_views",
                                  "pipelined_strided"])
def test_profiler_moves_no_typed_payload_differently(name):
    """The timed pack/unpack movers only observe: a profiled run simulates
    exactly what an unprofiled one does."""
    assert run_scenario(name, profiled=True) == PINNED[name]


def test_wildcard_posted_first_takes_the_first_arrival():
    """A wildcard receive posted before a specific one must match the first
    message to arrive, even though the specific one also accepts it."""
    cluster = Cluster(2, seed=0)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.full(2, 1.0), dest=1, tag=4)
            yield from comm.send(np.full(2, 2.0), dest=1, tag=4)
            return None
        wild, exact = np.zeros(2), np.zeros(2)
        r_wild = comm.irecv(wild, source=ANY_SOURCE, tag=ANY_TAG)
        r_exact = comm.irecv(exact, source=0, tag=4)
        yield from r_wild.wait()
        yield from r_exact.wait()
        return wild[0], exact[0]

    assert cluster.run(main)[1] == (1.0, 2.0)


def test_specific_receives_keep_post_order_behind_a_wildcard():
    """Unexpected messages are consumed in arrival order whichever receive
    shape (specific, ANY_TAG, ANY_SOURCE) asks for them."""
    cluster = Cluster(3, seed=0)

    def main(comm):
        if comm.rank != 0:
            for k in range(3):
                yield from comm.send(np.full(1, 10.0 * comm.rank + k),
                                     dest=0, tag=k)
            return None
        yield from comm.cpu(1e-3)     # everything is queued unexpected
        seen = []
        buf = np.zeros(1)
        for source, tag in ((1, ANY_TAG), (ANY_SOURCE, 0), (ANY_SOURCE, ANY_TAG),
                            (2, 2), (ANY_SOURCE, ANY_TAG), (1, 2)):
            status = yield from comm.recv(buf, source=source, tag=tag)
            seen.append((status.source, status.tag, buf[0]))
        return seen

    seen = cluster.run(main)[0]
    # every message is seen exactly once, and each receive shape takes the
    # oldest queued message it accepts (per-source order is never overtaken)
    assert sorted(seen) == sorted(
        (r, k, 10.0 * r + k) for r in (1, 2) for k in range(3))
    assert seen[0] == (1, 0, 10.0)          # first from rank 1 is its tag 0
    assert seen[1][1] == 0                  # first tag-0 still queued
    assert seen[3] == (2, 2, 22.0) and seen[5] == (1, 2, 12.0)


@pytest.mark.parametrize("attach", ["observer", "trace", "profiler"])
def test_late_attached_observers_see_every_transfer(attach):
    """The cluster subscribes to the wire on the first ``add_observer``,
    which may come long after ``Cluster(...)``."""
    cluster = Cluster(3, seed=0)
    cluster.run(_ring_sendrecv)          # unobserved traffic first
    before = cluster.net.messages_on_wire
    events = []

    class Obs:
        def on_transfer(self, event):
            events.append(event)

    cluster.add_observer(Obs())
    trace = prof = None
    if attach == "trace":
        trace = MessageTrace.attach(cluster)
    elif attach == "profiler":
        prof = Profiler.attach(cluster)
    cluster.run(_ring_sendrecv)
    sent = cluster.net.messages_on_wire - before
    assert sent == 9 and len(events) == sent
    assert all(e.sig is not None and e.msg_id is not None for e in events)
    assert len({e.msg_id for e in events}) == sent
    assert all(e.t_end > e.t_start for e in events)
    if trace is not None:
        assert len(trace.records) == sent
        assert {r.msg_id for r in trace.records} == {e.msg_id for e in events}
    if prof is not None:
        assert [e.msg_id for e in prof.transfers] == [e.msg_id for e in events]


def test_offset_typedbuffer_reads_the_plans_own_blocklist():
    """No per-buffer shifted copy: ``blocks`` is the shared plan's stream,
    relative to ``offset_bytes`` (the ``offset_views`` pins above hold the
    simulated time of everything that walks it)."""
    col = Vector(8, 1, 4, DOUBLE)
    at0 = TypedBuffer(np.zeros(40), col)
    at8 = TypedBuffer(np.zeros(40), col, offset_bytes=8)
    assert at8.plan is at0.plan
    assert at8.blocks is at8.plan.blocks is at0.blocks
    assert int(at8.blocks.offsets[0]) == 0


def test_typedbuffer_offset_past_the_end_still_raises():
    buf = np.zeros(10)
    with pytest.raises(DatatypeError) as info:
        TypedBuffer(buf, DOUBLE, count=10, offset_bytes=8)
    assert str(info.value) == (
        "buffer too small: datatype needs 88 bytes, buffer has 80")
    with pytest.raises(DatatypeError) as info:
        TypedBuffer(buf, Vector(3, 1, 4, DOUBLE), offset_bytes=16)
    assert str(info.value) == (
        "buffer too small: datatype needs 88 bytes, buffer has 80")
    assert TypedBuffer(buf, DOUBLE, count=9, offset_bytes=8).nbytes == 72


if __name__ == "__main__":
    for scenario in sorted(SCENARIOS):
        print(f"    {scenario!r}: {run_scenario(scenario)!r},")
