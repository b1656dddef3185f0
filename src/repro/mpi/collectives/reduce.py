"""Reduction collectives on typed numpy data: reduce, allreduce-array, scan.

These complement the control-plane object collectives in
:mod:`repro.mpi.collectives.basic` with array reductions used by solvers
and assembly (e.g. summing overlapping matrix contributions).  Algorithms
are the standard MPICH2 ones, registered with
:data:`repro.mpi.algorithms.REGISTRY`:

- ``reduce``: ``binomial`` tree (message size constant per hop),
- ``allreduce_array``: ``recursive_doubling`` with the non-power-of-two
  pre/post fold,
- ``scan``: inclusive prefix reduction, sequential-``doubling`` pattern.

All operate elementwise on float64 arrays with a commutative-associative
numpy ufunc (``np.add`` by default).
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from repro.mpi.algorithms import REGISTRY, Algorithm, SelectionContext
from repro.mpi.collectives import run
from repro.mpi.comm import Comm, MPIError


def _check_buf(buf) -> np.ndarray:
    arr = np.asarray(buf, dtype=np.float64)
    if arr.ndim != 1:
        raise MPIError("reduction buffers must be 1-D float64 arrays")
    return arr


def _deliver(result: np.ndarray, recvbuf) -> np.ndarray:
    """The result, copied into ``recvbuf`` when the caller supplied one."""
    if recvbuf is None:
        return result
    out = _check_buf(recvbuf)
    out[:] = result
    return out


def _ctx(comm: Comm, collective: str, send: np.ndarray) -> SelectionContext:
    return SelectionContext.for_comm(
        comm, collective, volumes=[send.nbytes] * comm.size,
        dtype_size=send.itemsize,
    )


def reduce(comm: Comm, sendbuf, recvbuf=None, op: Callable = np.add,
           root: int = 0) -> Generator:
    """Elementwise reduction to ``root``.

    On ``root``, ``recvbuf`` receives the result (a fresh array is returned
    if not supplied); other ranks return None.
    """
    if not 0 <= root < comm.size:
        raise MPIError(f"invalid root {root}")
    send = _check_buf(sendbuf)
    acc = yield from run(comm, "reduce", _ctx(comm, "reduce", send),
                         (send, op, root), detail=root, root=root,
                         nbytes=send.nbytes)
    return _deliver(acc, recvbuf) if comm.rank == root else None


def _reduce_binomial(comm, send, op, root, base) -> Generator:
    """Binomial-tree reduction; returns the accumulator (root only)."""
    n, rank = comm.size, comm.rank
    rel = (rank - root) % n
    acc = send.copy()
    mask = 1
    while mask < n:
        if rel & mask:
            parent = (rank - mask) % n
            req = yield from comm.isend(acc, parent, base)
            yield from req.wait()
            acc = None
            break
        # receive from the child at distance `mask`, if it exists
        if rel + mask < n:
            child = (rank + mask) % n
            incoming = np.empty_like(send)
            yield from comm.recv(incoming, child, base)
            acc = op(acc, incoming)
        mask <<= 1
    return acc


def allreduce_array(comm: Comm, sendbuf, recvbuf=None,
                    op: Callable = np.add) -> Generator:
    """Elementwise allreduce over float64 arrays."""
    send = _check_buf(sendbuf)
    acc = yield from run(comm, "allreduce_array",
                         _ctx(comm, "allreduce_array", send), (send, op),
                         solo=send.copy(), nbytes=send.nbytes)
    return _deliver(acc, recvbuf)


def _allreduce_rd_array(comm, send, op, base) -> Generator:
    """Recursive doubling with the non-power-of-two pre/post fold."""
    n, rank = comm.size, comm.rank
    acc = send.copy()
    p2 = 1
    while p2 * 2 <= n:
        p2 *= 2
    extra = n - p2
    if rank < 2 * extra:
        if rank % 2 == 0:
            req = yield from comm.isend(acc, rank + 1, base)
            yield from req.wait()
            newrank = -1
        else:
            incoming = np.empty_like(acc)
            yield from comm.recv(incoming, rank - 1, base)
            acc = op(acc, incoming)
            newrank = rank // 2
    else:
        newrank = rank - extra
    if newrank >= 0:
        mask = 1
        k = 1
        while mask < p2:
            partner_new = newrank ^ mask
            partner = (partner_new * 2 + 1 if partner_new < extra
                       else partner_new + extra)
            incoming = np.empty_like(acc)
            rreq = comm.irecv(incoming, partner, base + k)
            sreq = yield from comm.isend(acc, partner, base + k)
            yield from rreq.wait()
            yield from sreq.wait()
            acc = op(acc, incoming)
            mask <<= 1
            k += 1
    if rank < 2 * extra:
        if rank % 2 == 0:
            acc = np.empty_like(send)
            yield from comm.recv(acc, rank + 1, base + 60)
        else:
            req = yield from comm.isend(acc, rank - 1, base + 60)
            yield from req.wait()
    return acc


def scan(comm: Comm, sendbuf, recvbuf=None, op: Callable = np.add) -> Generator:
    """Inclusive prefix reduction: rank r gets op(send_0, ..., send_r)."""
    send = _check_buf(sendbuf)
    prefix = yield from run(comm, "scan", _ctx(comm, "scan", send),
                            (send, op), nbytes=send.nbytes)
    return _deliver(prefix, recvbuf)


def _scan_doubling(comm, send, op, base) -> Generator:
    """Standard doubling scan: in phase p, rank r sends its *total* so far
    to rank r + 2^p and folds what it receives from rank r - 2^p into both
    its prefix and its total."""
    n, rank = comm.size, comm.rank
    prefix = send.copy()
    total = send.copy()
    dist = 1
    phase = 0
    while dist < n:
        reqs = []
        if rank + dist < n:
            reqs.append((yield from comm.isend(total, rank + dist,
                                               base + phase)))
        if rank - dist >= 0:
            incoming = np.empty_like(send)
            yield from comm.recv(incoming, rank - dist, base + phase)
            prefix = op(incoming, prefix)
            total = op(incoming, total)
        for req in reqs:
            yield from req.wait()
        dist <<= 1
        phase += 1
    return prefix


# -- registry entries ---------------------------------------------------------

REGISTRY.register(Algorithm("reduce", "binomial", _reduce_binomial))
REGISTRY.register(Algorithm("allreduce_array", "recursive_doubling",
                            _allreduce_rd_array))
REGISTRY.register(Algorithm("scan", "doubling", _scan_doubling))
