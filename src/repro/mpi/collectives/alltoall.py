"""Uniform all-to-all: the pairwise-exchange algorithm, registered with
:data:`repro.mpi.algorithms.REGISTRY` as ``alltoall/pairwise``.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import Datatype, primitive_for
from repro.mpi.algorithms import REGISTRY, Algorithm
from repro.mpi.collectives import run
from repro.mpi.comm import Comm, MPIError


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
    yield from run(comm, "alltoall", None, (send, recv, count, dt),
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

REGISTRY.register(Algorithm("alltoall", "pairwise", _alltoall_pairwise))
