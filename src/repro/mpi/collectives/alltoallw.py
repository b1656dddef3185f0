"""``MPI_Alltoallw`` algorithms (paper sections 3.2 and 4.2.2).

``alltoallw`` is the fully general collective: every pair of ranks may
exchange a different amount of data described by a different datatype --
including zero.  PETSc's ``VecScatter`` maps onto exactly this operation
(nearest-neighbour patterns with zero volume to almost everyone).

Two algorithms register with :data:`repro.mpi.algorithms.REGISTRY`:

``round_robin``
    Baseline (MPICH2 / MVAPICH2-0.9.5 behaviour per section 3.2): every
    process posts a receive from and a send to *every* rank -- even
    zero-byte pairs, which adds a pure synchronisation step per non-partner
    -- and processes the sends in round-robin rank order, so a large
    noncontiguous message that happens to come first delays every small
    message behind its datatype-processing time.

``binned``
    Optimised (section 4.2.2): each destination is placed in one of three
    bins -- **zero** (completely exempted: no message, no synchronisation),
    **small** (below ``cost.small_message_threshold``) and **large**.
    Small messages are processed and sent before large ones, so
    lightly-coupled neighbours are released without waiting behind heavy
    datatype processing.

Which algorithm a call gets is decided by the selection rule the one
dispatcher, :func:`repro.mpi.collectives.run`, consults
(:func:`repro.mpi.algorithms.decide`: ``binned`` when
``config.binned_alltoallw`` is on, ``round_robin`` when it is off); an
implementation is ``impl(comm, sendspecs, recvspecs, base)``.

Per-pair datatype processing (the cost the binning hides) rides on
``comm.isend``, whose engines read each TypedBuffer's block structure from
the shared :mod:`repro.datatypes.ir` compile cache -- a VecScatter reusing
the same per-peer layouts every application pays compilation once.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import BYTE
from repro.mpi.algorithms import REGISTRY, Algorithm, SelectionContext
from repro.mpi.algorithms.validation import check_spec_lengths
from repro.mpi.collectives import run
from repro.mpi.comm import Comm, MPIError
from repro.mpi.request import Request


def _spec_nbytes(spec: Optional[TypedBuffer]) -> int:
    return 0 if spec is None else spec.nbytes


def alltoallw(
    comm: Comm,
    sendspecs: Sequence[Optional[TypedBuffer]],
    recvspecs: Sequence[Optional[TypedBuffer]],
    algorithm: Optional[str] = None,
) -> Generator:
    """General all-to-all with per-peer typed buffers.

    ``sendspecs[i]`` / ``recvspecs[i]`` describe the data exchanged with
    rank ``i`` (``None`` or a zero-count buffer means no data).
    ``algorithm`` forces a specific algorithm (for microbenchmarks); by
    default the configuration's selection rule runs
    (:func:`repro.mpi.algorithms.decide`).
    """
    check_spec_lengths(comm.size, sendspecs, recvspecs)
    volumes = [_spec_nbytes(s) for s in sendspecs]
    ctx = SelectionContext.for_comm(comm, "alltoallw", volumes=volumes)
    yield from run(comm, "alltoallw", ctx, (sendspecs, recvspecs),
                   algorithm=algorithm, send_bytes=sum(volumes))


def _local_copy(comm: Comm, sendspecs, recvspecs) -> Generator:
    """Self-exchange: a straight memory copy."""
    stb, rtb = sendspecs[comm.rank], recvspecs[comm.rank]
    sn, rn = _spec_nbytes(stb), _spec_nbytes(rtb)
    if sn != rn:
        raise MPIError(f"self-exchange size mismatch on rank {comm.rank}: {sn} != {rn}")
    if sn:
        rtb.unpack(stb.pack())
        yield from comm.cpu(2 * sn * comm.cost.copy_byte, "pack")


def _round_robin(comm: Comm, sendspecs, recvspecs, base: int) -> Generator:
    """Baseline: message to every rank, zero-byte included, in rank order."""
    n, rank = comm.size, comm.rank
    prof = comm.cluster.profiler
    yield from _local_copy(comm, sendspecs, recvspecs)
    requests: list[Request] = []
    # post all receives up front (MPICH2 posts irecvs first), including
    # zero-byte receives from non-partners
    for i in range(1, n):
        src = (rank - i) % n
        rtb = recvspecs[src]
        if rtb is not None and rtb.count > 0:
            requests.append(comm.irecv(rtb, src, base))
        else:
            requests.append(comm.irecv(_zero_buffer(), src, base))
    # sends in round-robin rank order; datatype processing happens at isend
    # time, so a large noncontiguous peer stalls everyone after it
    for i in range(1, n):
        dst = (rank + i) % n
        stb = sendspecs[dst]
        if stb is not None and stb.count > 0:
            requests.append((yield from comm.isend(stb, dst, base)))
        else:
            requests.append((yield from comm.isend(_zero_buffer(), dst, base)))
    yield from Request.waitall(requests)
    if prof.enabled:
        # baseline sends a (possibly zero-byte) message to every peer
        zeros = sum(1 for s in sendspecs if _spec_nbytes(s) == 0) - \
            (1 if _spec_nbytes(sendspecs[rank]) == 0 else 0)
        prof.observe("repro_alltoallw_zero_bin_size", zeros)


def _binned(comm: Comm, sendspecs, recvspecs, base: int) -> Generator:
    """Optimised: zero bin exempted; small bin processed before large."""
    n, rank = comm.size, comm.rank
    prof = comm.cluster.profiler
    threshold = comm.cost.small_message_threshold
    yield from _local_copy(comm, sendspecs, recvspecs)
    requests: list[Request] = []
    for i in range(1, n):
        src = (rank - i) % n
        rtb = recvspecs[src]
        if rtb is not None and rtb.count > 0:
            requests.append(comm.irecv(rtb, src, base))
    small: list[int] = []
    large: list[int] = []
    zeros = 0
    for i in range(1, n):
        dst = (rank + i) % n
        nbytes = _spec_nbytes(sendspecs[dst])
        if nbytes == 0:
            zeros += 1
            continue  # the zero bin: completely exempted
        (small if nbytes < threshold else large).append(dst)
    if prof.enabled:
        prof.count("repro_zero_byte_elided_total", zeros)
        prof.observe("repro_alltoallw_zero_bin_size", zeros)
        prof.observe("repro_alltoallw_small_bin_size", len(small))
        prof.observe("repro_alltoallw_large_bin_size", len(large))
    if small:
        with prof.span("phase", "small_bin", comm.grank, peers=len(small)):
            for dst in small:
                requests.append((yield from comm.isend(sendspecs[dst], dst, base)))
    if large:
        with prof.span("phase", "large_bin", comm.grank, peers=len(large)):
            for dst in large:
                requests.append((yield from comm.isend(sendspecs[dst], dst, base)))
    yield from Request.waitall(requests)


def _zero_buffer() -> TypedBuffer:
    return TypedBuffer(np.empty(0, dtype=np.uint8), BYTE, count=0)


# -- registry entries ---------------------------------------------------------

REGISTRY.register(Algorithm("alltoallw", "round_robin", _round_robin))
REGISTRY.register(Algorithm("alltoallw", "binned", _binned))
