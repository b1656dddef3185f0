"""Typed gather/scatter collectives: gatherv, scatterv, allgather, alltoall.

The uniform-volume counterparts of the paper's headline collectives,
implemented with the standard MPICH2 algorithms and registered with
:data:`repro.mpi.algorithms.REGISTRY`:

- ``gatherv`` / ``scatterv``: linear to/from the root (MPICH2 uses a
  binomial tree only for the uniform gather; the v-variants are linear),
- ``allgather``: delegates to the Allgatherv machinery with uniform counts
  (so the ring/recursive-doubling/dissemination selection logic applies),
- ``alltoall``: pairwise-exchange algorithm for uniform volumes.

Counts/displacement validation is shared with the other v-collectives via
:func:`repro.mpi.algorithms.validation.normalize_counts_displs`.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import Datatype, primitive_for
from repro.mpi.algorithms import REGISTRY, Algorithm, SelectionContext
from repro.mpi.algorithms.validation import normalize_counts_displs
from repro.mpi.collectives import run
from repro.mpi.comm import Comm, MPIError
from repro.mpi.request import Request


def gatherv(
    comm: Comm,
    sendbuf,
    recvbuf=None,
    counts: Optional[Sequence[int]] = None,
    displs: Optional[Sequence[int]] = None,
    root: int = 0,
    datatype: Optional[Datatype] = None,
) -> Generator:
    """Gather varying-size contributions at ``root``."""
    if not 0 <= root < comm.size:
        raise MPIError(f"invalid root {root}")
    result = yield from run(
        comm, "gatherv", None,
        (sendbuf, recvbuf, counts, displs, root, datatype),
        detail=root, root=root)
    return result


def _gatherv_linear(comm, sendbuf, recvbuf, counts, displs, root, datatype,
                    base) -> Generator:
    """Linear gatherv: every contributing rank sends straight to the root."""
    send = np.asarray(sendbuf)
    if comm.rank != root:
        if send.size:  # zero contributions send nothing (no root recv)
            req = yield from comm.isend(send, root, base)
            yield from req.wait()
        return None
    if counts is None or recvbuf is None:
        raise MPIError("root must supply counts and recvbuf")
    counts, displs = normalize_counts_displs(comm.size, counts, displs)
    recv = np.asarray(recvbuf)
    dt = datatype or primitive_for(recv.dtype)
    requests = []
    for src in range(comm.size):
        if src == root or counts[src] == 0:
            continue
        tb = TypedBuffer(recv, dt, counts[src],
                         offset_bytes=displs[src] * dt.extent)
        requests.append(comm.irecv(tb, src, base))
    # own contribution
    if counts[root]:
        own = TypedBuffer(recv, dt, counts[root],
                          offset_bytes=displs[root] * dt.extent)
        own.unpack(TypedBuffer(send, dt, counts[root]).pack())
        yield from comm.cpu(counts[root] * dt.size * comm.cost.copy_byte,
                            "pack")
    yield from Request.waitall(requests)
    return recv


def scatterv(
    comm: Comm,
    sendbuf=None,
    counts: Optional[Sequence[int]] = None,
    displs: Optional[Sequence[int]] = None,
    recvbuf=None,
    root: int = 0,
    datatype: Optional[Datatype] = None,
) -> Generator:
    """Scatter varying-size pieces from ``root``."""
    if not 0 <= root < comm.size:
        raise MPIError(f"invalid root {root}")
    if recvbuf is None:
        raise MPIError("every rank must supply recvbuf")
    result = yield from run(
        comm, "scatterv", None,
        (sendbuf, counts, displs, recvbuf, root, datatype),
        detail=root, root=root)
    return result


def _scatterv_linear(comm, sendbuf, counts, displs, recvbuf, root, datatype,
                     base) -> Generator:
    """Linear scatterv: the root sends each piece straight to its rank."""
    recv = np.asarray(recvbuf)
    if comm.rank != root:
        if recv.size:  # zero pieces are never sent by the root
            yield from comm.recv(recv, root, base)
        return recv
    if counts is None or sendbuf is None:
        raise MPIError("root must supply counts and sendbuf")
    counts, displs = normalize_counts_displs(comm.size, counts, displs)
    send = np.asarray(sendbuf)
    dt = datatype or primitive_for(send.dtype)
    requests = []
    for dst in range(comm.size):
        if dst == root or counts[dst] == 0:
            continue
        tb = TypedBuffer(send, dt, counts[dst],
                         offset_bytes=displs[dst] * dt.extent)
        requests.append((yield from comm.isend(tb, dst, base)))
    if counts[root]:
        own = TypedBuffer(send, dt, counts[root],
                          offset_bytes=displs[root] * dt.extent)
        TypedBuffer(recv, dt, counts[root]).unpack(own.pack())
        yield from comm.cpu(counts[root] * dt.size * comm.cost.copy_byte,
                            "pack")
    yield from Request.waitall(requests)
    return recv


def allgather(
    comm: Comm,
    sendbuf,
    recvbuf,
    count: Optional[int] = None,
    datatype: Optional[Datatype] = None,
) -> Generator:
    """Uniform allgather: every rank contributes ``count`` elements."""
    from repro.mpi.collectives.allgatherv import allgatherv

    send = np.asarray(sendbuf)
    if count is None:
        count = send.size
    yield from allgatherv(comm, send, recvbuf, [count] * comm.size,
                          datatype=datatype)


def alltoall(
    comm: Comm,
    sendbuf,
    recvbuf,
    count: int,
    datatype: Optional[Datatype] = None,
) -> Generator:
    """Uniform all-to-all (pairwise-exchange algorithm)."""
    send = np.asarray(sendbuf)
    recv = np.asarray(recvbuf)
    dt = datatype or primitive_for(recv.dtype)
    n = comm.size
    if send.size < n * count or recv.size < n * count:
        raise MPIError("alltoall buffers too small for count*size elements")
    ctx = SelectionContext.for_comm(
        comm, "alltoall", volumes=[count * dt.size] * n,
        dtype_size=dt.size, contiguous=dt.is_contiguous(),
    )
    yield from run(comm, "alltoall", ctx, (send, recv, count, dt),
                   detail=count, count=count)
    return recv


def _alltoall_pairwise(comm, send, recv, count, dt, base) -> Generator:
    """Pairwise exchange: in step k, rank r exchanges with rank ``r XOR k``
    (power-of-two sizes) or with ``(r + k) % N`` / ``(r - k) % N``."""
    n, rank = comm.size, comm.rank

    def block(arr, idx):
        return TypedBuffer(arr, dt, count, offset_bytes=idx * count * dt.extent)

    # local block
    block(recv, rank).unpack(block(send, rank).pack())
    yield from comm.cpu(count * dt.size * comm.cost.copy_byte, "pack")
    pow2 = n & (n - 1) == 0
    for k in range(1, n):
        if pow2:
            peer = rank ^ k
            sdst = rdst = peer
        else:
            sdst = (rank + k) % n
            rdst = (rank - k) % n
        rreq = comm.irecv(block(recv, rdst), rdst, base + k)
        sreq = yield from comm.isend(block(send, sdst), sdst, base + k)
        yield from rreq.wait()
        yield from sreq.wait()


# -- registry entries ---------------------------------------------------------

REGISTRY.register(Algorithm("gatherv", "linear", _gatherv_linear))
REGISTRY.register(Algorithm("scatterv", "linear", _scatterv_linear))
REGISTRY.register(Algorithm("alltoall", "pairwise", _alltoall_pairwise))
