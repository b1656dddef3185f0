"""``MPI_Allgatherv`` algorithms (paper sections 3.2 and 4.2.1).

Three algorithms register with :data:`repro.mpi.algorithms.REGISTRY`:

``ring``
    MPICH2's large-message algorithm: N-1 steps around a logical ring, each
    rank forwarding the block it received in the previous step.  Optimal for
    *uniform* volumes (fully pipelined, every link busy) but serialises a
    single large block behind N-1 sequential hops (Fig. 8).

``recursive_doubling``
    log2(N) pairwise exchange phases, power-of-two N only (Fig. 10).  A
    large block travels a binomial tree: after it first moves, two ranks
    forward it simultaneously, then four, ...

``dissemination``
    ceil(log2 N) phases for arbitrary N (Fig. 11, Han & Finkel): in phase p
    rank i sends everything it holds to rank i + 2^p and receives from rank
    i - 2^p.

*Which* algorithm a call gets is no longer decided here: the entry function
hands the call to :func:`repro.mpi.collectives.run`, the one dispatcher,
so the baseline thresholds (``mpich`` rule) and the paper's section 4.2.1
outlier rule (``adaptive`` rule, Floyd-Rivest k-select over the volume
set) share one observable decision point.  An implementation is
``impl(comm, recvbuffer, datatype, counts, displs, base)``.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import Datatype, HIndexed, primitive_for
from repro.mpi.algorithms import REGISTRY, Algorithm, SelectionContext
from repro.mpi.algorithms.validation import normalize_counts_displs
from repro.mpi.collectives import run
from repro.mpi.comm import Comm, MPIError, as_typed


def _normalize(comm, sendbuffer, recvbuffer, counts, displs, datatype):
    recvbuffer = np.asarray(recvbuffer)
    if datatype is None:
        datatype = primitive_for(recvbuffer.dtype)
    counts, displs = normalize_counts_displs(comm.size, counts, displs)
    return recvbuffer, datatype, counts, displs


def _block_tb(recvbuffer, datatype, counts, displs, block) -> Optional[TypedBuffer]:
    """TypedBuffer covering one rank's contribution region of recvbuffer.

    Rebuilt per call, but cheap: the (datatype, count) pair resolves in the
    :mod:`repro.datatypes.ir` compile cache, so every ring step reuses the
    same plan and ``BlockList`` (the per-rank regions differ only in their
    ``offset_bytes``, which the copy program applies at execution).
    """
    if counts[block] == 0:
        return None
    return TypedBuffer(
        recvbuffer, datatype, count=counts[block],
        offset_bytes=displs[block] * datatype.extent,
    )


def _blocks_tb(recvbuffer, datatype, counts, displs, blocks) -> Optional[TypedBuffer]:
    """TypedBuffer covering several contribution regions, in ``blocks`` order."""
    nz = [b for b in blocks if counts[b] > 0]
    if not nz:
        return None
    if len(nz) == 1:
        return _block_tb(recvbuffer, datatype, counts, displs, nz[0])
    if not datatype.is_contiguous():
        raise MPIError("allgatherv over non-contiguous element types not supported")
    dt = HIndexed(
        [counts[b] for b in nz],
        [displs[b] * datatype.extent for b in nz],
        datatype,
    )
    return TypedBuffer(recvbuffer, dt)


def _copy_own(comm, sendbuffer, recvbuffer, datatype, counts, displs) -> Generator:
    """Place this rank's contribution into its own recvbuffer region."""
    own = _block_tb(recvbuffer, datatype, counts, displs, comm.rank)
    if own is None:
        return
    stb = as_typed(sendbuffer, datatype, counts[comm.rank])
    if stb.nbytes != own.nbytes:
        raise MPIError(
            f"rank {comm.rank}: send payload {stb.nbytes}B != declared "
            f"count {counts[comm.rank]}"
        )
    own.unpack(stb.pack())
    yield from comm.cpu(stb.nbytes * comm.cost.copy_byte, "pack")


def allgatherv(
    comm: Comm,
    sendbuffer,
    recvbuffer,
    counts: Sequence[int],
    displs: Optional[Sequence[int]] = None,
    datatype: Optional[Datatype] = None,
    algorithm: Optional[str] = None,
) -> Generator:
    """Gather varying-size contributions from every rank onto every rank.

    ``algorithm`` forces a specific algorithm (for microbenchmarks); by
    default the configuration's selection rule runs
    (:func:`repro.mpi.algorithms.decide`).
    """
    recvbuffer, datatype, counts, displs = _normalize(
        comm, sendbuffer, recvbuffer, counts, displs, datatype
    )
    # the own block is copied before selection and its detection charge
    yield from _copy_own(comm, sendbuffer, recvbuffer, datatype, counts,
                         displs)
    ctx = SelectionContext.for_comm(
        comm, "allgatherv",
        volumes=[c * datatype.size for c in counts],
        dtype_size=datatype.size,
        contiguous=datatype.is_contiguous(),
    )
    yield from run(comm, "allgatherv", ctx,
                   (recvbuffer, datatype, counts, displs),
                   detail=counts, algorithm=algorithm,
                   solo=None, total_bytes=sum(counts) * datatype.size)


def _ring(comm, recvbuffer, datatype, counts, displs, base) -> Generator:
    """N-1 hop logical ring (MPICH2 long-message algorithm)."""
    n, rank = comm.size, comm.rank
    prof = comm.cluster.profiler
    right = (rank + 1) % n
    left = (rank - 1) % n
    for step in range(n - 1):
        send_block = (rank - step) % n
        recv_block = (rank - step - 1) % n
        stb = _block_tb(recvbuffer, datatype, counts, displs, send_block)
        rtb = _block_tb(recvbuffer, datatype, counts, displs, recv_block)
        with prof.span("phase", "ring_hop", comm.grank, step=step,
                       send_block=send_block, recv_block=recv_block):
            yield from _exchange(comm, stb, right, rtb, left, base + step)


def _recursive_doubling(comm, recvbuffer, datatype, counts, displs,
                        base) -> Generator:
    """log2(N) pairwise exchanges; power-of-two, contiguous types."""
    n, rank = comm.size, comm.rank
    if n & (n - 1):
        raise MPIError("recursive doubling requires a power-of-two size")
    mask = 1
    phase = 0
    while mask < n:
        partner = rank ^ mask
        my_group = rank & ~(mask - 1)
        partner_group = partner & ~(mask - 1)
        send_blocks = range(my_group, my_group + mask)
        recv_blocks = range(partner_group, partner_group + mask)
        stb = _blocks_tb(recvbuffer, datatype, counts, displs, send_blocks)
        rtb = _blocks_tb(recvbuffer, datatype, counts, displs, recv_blocks)
        with comm.cluster.profiler.span("phase", "rd_step", comm.grank,
                                        phase=phase, partner=partner):
            yield from _exchange(comm, stb, partner, rtb, partner, base + phase)
        mask <<= 1
        phase += 1


def _dissemination(comm, recvbuffer, datatype, counts, displs,
                   base) -> Generator:
    """ceil(log2 N) Han-Finkel phases; contiguous element types."""
    n, rank = comm.size, comm.rank
    dist = 1
    phase = 0
    while dist < n:
        dst = (rank + dist) % n
        src = (rank - dist) % n
        nblocks = min(dist, n - dist)
        send_blocks = [(rank - j) % n for j in range(nblocks)]
        recv_blocks = [(src - j) % n for j in range(nblocks)]
        stb = _blocks_tb(recvbuffer, datatype, counts, displs, send_blocks)
        rtb = _blocks_tb(recvbuffer, datatype, counts, displs, recv_blocks)
        with comm.cluster.profiler.span("phase", "dissemination_phase",
                                        comm.grank, phase=phase,
                                        dst=dst, src=src):
            yield from _exchange(comm, stb, dst, rtb, src, base + phase)
        dist <<= 1
        phase += 1


def _exchange(comm, stb, dst, rtb, src, tag) -> Generator:
    """Pairwise sendrecv where either side may be empty.

    Each request is created and completed on the same control-flow path
    (rather than `x = .. if cond else None` + a correlated `if x` wait)
    so the REQ1xx lifetime analysis can verify every wait statically.
    """
    if stb is not None and rtb is not None:
        rreq = comm.irecv(rtb, src, tag)
        sreq = yield from comm.isend(stb, dst, tag)
        yield from rreq.wait()
        yield from sreq.wait()
    elif rtb is not None:
        rreq = comm.irecv(rtb, src, tag)
        yield from rreq.wait()
    elif stb is not None:
        sreq = yield from comm.isend(stb, dst, tag)
        yield from sreq.wait()


# -- registry entries ---------------------------------------------------------

REGISTRY.register(Algorithm("allgatherv", "ring", _ring))
REGISTRY.register(Algorithm("allgatherv", "recursive_doubling",
                            _recursive_doubling))
REGISTRY.register(Algorithm("allgatherv", "dissemination", _dissemination))
