"""Control-plane collectives: barrier, bcast, allreduce, gather.

These operate on small python values (``isend_obj``/``recv_obj``), use the
standard MPICH2 algorithms, and charge normal wire time for their small
messages.  Each collective call draws a fresh tag window from the calling
communicator so that back-to-back collectives never cross-match (MPI
guarantees collective ordering per communicator; ranks must invoke
collectives in the same order, which these tags also verify implicitly).

Each collective registers its (single) MPICH2 algorithm with
:data:`repro.mpi.algorithms.REGISTRY` -- ``dissemination`` barrier,
``binomial`` bcast, ``recursive_doubling`` allreduce, ``linear``
gather_obj -- and dispatches through :func:`repro.mpi.collectives.run`,
which calls ``impl(comm, *args, base)``, so the decision is observable
(and overridable) like every other collective, even though
:func:`repro.mpi.algorithms.decide` always picks the sole candidate.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generator, List, Optional

from repro.mpi.algorithms import REGISTRY, Algorithm
from repro.mpi.collectives import run
from repro.mpi.comm import Comm

#: nominal wire size of a control-plane value (a scalar + envelope)
_CTRL_BYTES = 16


def barrier(comm: Comm) -> Generator:
    """Synchronise all ranks (ceil(log2 N) zero-payload rounds)."""
    yield from run(comm, "barrier", None, (), solo=None)


def _barrier_dissemination(comm: Comm, base: int) -> Generator:
    """Dissemination barrier: ceil(log2 N) rounds of zero-payload messages."""
    n, rank = comm.size, comm.rank
    k = 0
    dist = 1
    while dist < n:
        dst = (rank + dist) % n
        src = (rank - dist) % n
        comm.isend_obj(None, dst, base + k, nbytes=0)
        yield from comm.recv_obj(src, base + k)
        dist <<= 1
        k += 1


def bcast(comm: Comm, value: Any, root: int = 0, nbytes: int = _CTRL_BYTES) -> Generator:
    """Broadcast a python value from ``root``; returns it on every rank."""
    if not 0 <= root < comm.size:
        raise ValueError(f"invalid root {root}")
    value = yield from run(comm, "bcast", None, (value, root, nbytes),
                           detail=root, solo=value, root=root)
    return value


def _bcast_binomial(comm: Comm, value: Any, root: int, nbytes: int,
                    base: int) -> Generator:
    """Binomial-tree broadcast."""
    n, rank = comm.size, comm.rank
    rel = (rank - root) % n
    # walk up: receive from the parent that owns my lowest set bit
    mask = 1
    while mask < n:
        if rel & mask:
            parent = (rank - mask) % n
            value = yield from comm.recv_obj(parent, base)
            break
        mask <<= 1
    # walk down: forward to children at decreasing bit distances
    mask >>= 1
    while mask > 0:
        if rel + mask < n:
            child = (rank + mask) % n
            comm.isend_obj(value, child, base, nbytes=nbytes)
        mask >>= 1
    return value


def allreduce(
    comm: Comm,
    value: Any,
    op: Optional[Callable[[Any, Any], Any]] = None,
    nbytes: int = _CTRL_BYTES,
) -> Generator:
    """Allreduce a python value over a commutative-associative ``op``."""
    if op is None:
        op = operator.add
    value = yield from run(comm, "allreduce", None, (value, op, nbytes),
                           solo=value)
    return value


def _allreduce_recursive_doubling(comm: Comm, value: Any, op: Callable,
                                  nbytes: int, base: int) -> Generator:
    """Recursive-doubling allreduce; non-power-of-two sizes use the
    standard pre/post folding step."""
    n, rank = comm.size, comm.rank
    p2 = 1
    while p2 * 2 <= n:
        p2 *= 2
    extra = n - p2
    acc = value
    # fold the surplus ranks into the power-of-two core
    if rank < 2 * extra:
        if rank % 2 == 0:
            comm.isend_obj(acc, rank + 1, base, nbytes=nbytes)
            newrank = -1  # idle during the core exchange
        else:
            other = yield from comm.recv_obj(rank - 1, base)
            acc = op(acc, other)
            newrank = rank // 2
    else:
        newrank = rank - extra
    # recursive doubling among p2 effective ranks
    if newrank >= 0:
        mask = 1
        k = 1
        while mask < p2:
            partner_new = newrank ^ mask
            partner = (partner_new * 2 + 1 if partner_new < extra
                       else partner_new + extra)
            comm.isend_obj(acc, partner, base + k, nbytes=nbytes)
            other = yield from comm.recv_obj(partner, base + k)
            acc = op(acc, other)
            mask <<= 1
            k += 1
    # hand the result back to the folded-out ranks
    if rank < 2 * extra:
        if rank % 2 == 0:
            acc = yield from comm.recv_obj(rank + 1, base + 60)
        else:
            comm.isend_obj(acc, rank - 1, base + 60, nbytes=nbytes)
    return acc


def gather_obj(comm: Comm, value: Any, root: int = 0,
               nbytes: int = _CTRL_BYTES) -> Generator:
    """Gather python values at ``root``; returns the list there, None elsewhere."""
    result = yield from run(comm, "gather_obj", None, (value, root, nbytes),
                            detail=root, root=root)
    return result


def _gather_obj_linear(comm: Comm, value: Any, root: int, nbytes: int,
                       base: int) -> Generator:
    """Linear gather: every rank sends straight to the root."""
    n, rank = comm.size, comm.rank
    if rank == root:
        out: List[Any] = [None] * n
        out[root] = value
        for src in range(n):
            if src != root:
                out[src] = yield from comm.recv_obj(src, base)
        return out
    comm.isend_obj(value, root, base, nbytes=nbytes)
    return None


# -- registry entries ---------------------------------------------------------

REGISTRY.register(Algorithm("barrier", "dissemination", _barrier_dissemination))
REGISTRY.register(Algorithm("bcast", "binomial", _bcast_binomial))
REGISTRY.register(Algorithm("allreduce", "recursive_doubling",
                            _allreduce_recursive_doubling))
REGISTRY.register(Algorithm("gather_obj", "linear", _gather_obj_linear))
