"""Explicit packing API (``MPI_Pack`` / ``MPI_Unpack`` / ``MPI_Pack_size``).

The alternative the paper mentions to sending derived datatypes directly:
"the programmer [can] explicitly pack the noncontiguous data into a
contiguous buffer then send that buffer".  These functions provide that
path over the same typed-buffer machinery, charging the same pack-loop CPU
costs, so applications can be written either way and compared.

Positions are byte offsets into the packing buffer, threaded through calls
exactly like MPI's ``position`` argument::

    pos = 0
    pos = yield from mpi_pack(comm, m, column_type, 1, outbuf, pos)
    pos = yield from mpi_pack(comm, hdr, INT, 4, outbuf, pos)
    yield from comm.send(outbuf[:pos], dest=1)

Byte movement executes the copy program compiled by
:mod:`repro.datatypes.ir` -- explicit pack/unpack of a datatype shares the
same cached plan (and gather indices) the direct-send path uses.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.datatypes.engine import copy_seconds
from repro.datatypes.typemap import Datatype
from repro.mpi.comm import Comm, MPIError, as_typed, timed_pack, timed_unpack

__all__ = ["pack_size", "mpi_pack", "mpi_unpack"]


def pack_size(count: int, datatype: Datatype) -> int:
    """Upper bound on the packed size of ``count`` items (``MPI_Pack_size``)."""
    if count < 0:
        raise MPIError(f"negative count {count}")
    return count * datatype.size


def mpi_pack(
    comm: Comm,
    inbuf,
    datatype: Optional[Datatype],
    count: Optional[int],
    outbuf: np.ndarray,
    position: int,
) -> Generator:
    """Pack ``count`` items of ``inbuf`` into ``outbuf`` at ``position``;
    returns the new position.  CPU time is charged as a pack loop."""
    tb = as_typed(inbuf, datatype, count)
    out = np.asarray(outbuf).reshape(-1).view(np.uint8)
    if position < 0 or position + tb.nbytes > out.size:
        raise MPIError(
            f"outbuf overflow: position {position} + payload {tb.nbytes} "
            f"exceeds {out.size} bytes"
        )
    out[position:position + tb.nbytes] = timed_pack(comm.cluster.profiler, tb)
    yield from comm.cpu(copy_seconds(tb, comm.cost), "pack")
    return position + tb.nbytes


def mpi_unpack(
    comm: Comm,
    inbuf: np.ndarray,
    position: int,
    outbuf,
    datatype: Optional[Datatype] = None,
    count: Optional[int] = None,
) -> Generator:
    """Unpack from ``inbuf`` at ``position`` into the typed ``outbuf``;
    returns the new position."""
    tb = as_typed(outbuf, datatype, count)
    src = np.asarray(inbuf).reshape(-1).view(np.uint8)
    if position < 0 or position + tb.nbytes > src.size:
        raise MPIError(
            f"inbuf underflow: position {position} + payload {tb.nbytes} "
            f"exceeds {src.size} bytes"
        )
    timed_unpack(comm.cluster.profiler, tb, src[position:position + tb.nbytes])
    yield from comm.cpu(copy_seconds(tb, comm.cost), "pack")
    return position + tb.nbytes
