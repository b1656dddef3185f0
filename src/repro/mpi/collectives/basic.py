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
gather_obj -- and dispatches through :func:`repro.mpi.algorithms.select`
so the decision is observable (and overridable) like every other
collective, even though today every policy short-circuits on the sole
candidate.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Generator, List, Optional

from repro.mpi.algorithms import REGISTRY, SelectionContext, select
from repro.mpi.comm import Comm, _COLLECTIVE_TAG_BASE

#: nominal wire size of a control-plane value (a scalar + envelope)
_CTRL_BYTES = 16


def _tag_window(comm: Comm, width: int = 64, op: str = "collective",
                detail: Any = None) -> int:
    """Reserve a tag range for one collective invocation.

    ``op`` names the collective (``"barrier"``, ``"bcast"``, ...) and
    ``detail`` carries call arguments that must agree across ranks (root,
    counts, ...).  Both are reported to cluster observers so the runtime
    verifier can check that every rank of the communicator entered the
    *same* collective, in the same order, with consistent arguments
    (rules COL001/COL002).
    """
    seq = getattr(comm, "_coll_seq", 0)
    comm._coll_seq = seq + 1
    if comm.cluster._observers:
        comm.cluster._notify("collective", comm.grank, comm.ctx, seq, op,
                             detail)
    return _COLLECTIVE_TAG_BASE + seq * width


def barrier(comm: Comm) -> Generator:
    """Synchronise all ranks (ceil(log2 N) zero-payload rounds)."""
    base = _tag_window(comm, op="barrier")
    if comm.size == 1:
        return
    decision = select(comm, "barrier", SelectionContext.for_comm(comm, "barrier"))
    with comm.cluster.profiler.span("collective", "barrier", comm.grank,
                                    algorithm=decision.algorithm,
                                    policy=decision.policy):
        impl = REGISTRY.implementation("barrier", decision.algorithm)
        yield from impl(comm, base)


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
    base = _tag_window(comm, op="bcast", detail=root)
    if not 0 <= root < comm.size:
        raise ValueError(f"invalid root {root}")
    if comm.size == 1:
        return value
    decision = select(comm, "bcast", SelectionContext.for_comm(comm, "bcast"))
    with comm.cluster.profiler.span("collective", "bcast", comm.grank,
                                    root=root, algorithm=decision.algorithm,
                                    policy=decision.policy):
        impl = REGISTRY.implementation("bcast", decision.algorithm)
        value = yield from impl(comm, value, root, base, nbytes)
    return value


def _bcast_binomial(comm: Comm, value: Any, root: int, base: int,
                    nbytes: int) -> Generator:
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
    base = _tag_window(comm, op="allreduce")
    if comm.size == 1:
        return value
    decision = select(comm, "allreduce",
                      SelectionContext.for_comm(comm, "allreduce"))
    with comm.cluster.profiler.span("collective", "allreduce", comm.grank,
                                    algorithm=decision.algorithm,
                                    policy=decision.policy):
        impl = REGISTRY.implementation("allreduce", decision.algorithm)
        value = yield from impl(comm, value, op, base, nbytes)
    return value


def _allreduce_recursive_doubling(comm: Comm, value: Any, op: Callable,
                                  base: int, nbytes: int) -> Generator:
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
    base = _tag_window(comm, op="gather_obj", detail=root)
    decision = select(comm, "gather_obj",
                      SelectionContext.for_comm(comm, "gather_obj"))
    impl = REGISTRY.implementation("gather_obj", decision.algorithm)
    result = yield from impl(comm, value, root, base, nbytes)
    return result


def _gather_obj_linear(comm: Comm, value: Any, root: int, base: int,
                       nbytes: int) -> Generator:
    """Linear gather: every rank sends straight to the root."""
    n, rank = comm.size, comm.rank
    if rank == root:
        with comm.cluster.profiler.span("collective", "gather_obj",
                                        comm.grank, root=root):
            out: List[Any] = [None] * n
            out[root] = value
            for src in range(n):
                if src != root:
                    out[src] = yield from comm.recv_obj(src, base)
        return out
    comm.isend_obj(value, root, base, nbytes=nbytes)
    return None


# -- registry entries (alpha-beta estimates are advisory priors) --------------

def _phases(n: int) -> int:
    return math.ceil(math.log2(max(n, 2)))


def _est_log_alpha(ctx: SelectionContext) -> float:
    return _phases(ctx.size) * (ctx.cost.alpha + ctx.cost.beta * _CTRL_BYTES)


def _est_linear_alpha(ctx: SelectionContext) -> float:
    return (ctx.size - 1) * (ctx.cost.alpha + ctx.cost.beta * _CTRL_BYTES)


REGISTRY.register_fn(
    "barrier", "dissemination", estimator=_est_log_alpha,
    description="ceil(log2 N) zero-payload dissemination rounds",
)(_barrier_dissemination)
REGISTRY.register_fn(
    "bcast", "binomial", estimator=_est_log_alpha,
    description="binomial-tree broadcast of a python value",
)(_bcast_binomial)
REGISTRY.register_fn(
    "allreduce", "recursive_doubling", estimator=_est_log_alpha,
    description="recursive doubling with non-power-of-two pre/post fold",
)(_allreduce_recursive_doubling)
REGISTRY.register_fn(
    "gather_obj", "linear", estimator=_est_linear_alpha,
    description="every rank sends straight to the root",
)(_gather_obj_linear)
