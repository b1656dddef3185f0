"""Sparse dynamic data exchange: the NBX nonblocking-consensus alltoall.

The dense exchanges of this library (``alltoall``/``alltoallw``) assume
every rank knows the full communication matrix -- each rank posts a
receive (or a counts slot) for every peer.  Assembly-style workloads
(``Vec.set_values`` on rows you don't own, AMR ghost exchange) violate
that: a rank knows *whom it sends to* but not *who sends to it*, and the
pattern is sparse -- most peer pairs exchange nothing.

This module implements the dynamic-sparse-data-exchange algorithms of
"A More Scalable Sparse Dynamic Data Exchange" (Geyko et al., PAPERS.md)
as ``sparse_alltoall`` registry algorithms:

``dense``
    The legacy personalized exchange: an ``alltoall`` of per-peer counts
    followed by point-to-point transfers.  Requires two full sweeps of
    the communicator regardless of sparsity; kept as the baseline and the
    byte-identity oracle.

``nbx``
    The NBX nonblocking consensus: post the (known) sends, discover
    incoming messages by probing, and enter a nonblocking barrier
    (:func:`ibarrier`) once the local sends complete.  When the barrier
    completes, every rank has both posted all its sends and observed that
    every other rank has too -- so one final probe drain terminates the
    exchange.  Total cost: one message per nonzero pair plus two
    dissemination sweeps of control traffic, independent of the dense
    communicator size.

``nbx_binned``
    NBX with a locality-aware send schedule: destinations ordered by ring
    distance from the sender, small messages (below the cost model's
    ``small_message_threshold``) issued before large ones so eager
    traffic is not stuck behind rendezvous transfers.

**Wire-protocol compatibility.**  ``nbx`` and ``nbx_binned`` differ only
in local send order and interoperate freely -- different ranks of one
exchange may pick either.  ``dense`` uses an incompatible protocol (it
begins with a collective counts exchange every rank must join), so the
dense-vs-NBX decision must be *rank-uniform*: the selection policies and
the tuning-table bucket key only consult rank-uniform inputs (size,
config) when crossing that boundary, never the per-rank volume set.  The
``detail`` reported to the runtime verifier carries the protocol family,
so a divergent selection trips COL002 instead of deadlocking silently.

Payloads are dicts ``{destination rank: numpy array | TypedBuffer}`` with
byte sizes divisible by 8; results are ``{source rank: float64 array}``
of the raw received bytes.  Zero-byte payloads are elided (sparsity means
never touching silent pairs); a self-entry is copied locally.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.datatypes.packing import TypedBuffer
from repro.mpi.algorithms import REGISTRY, SelectionContext, select
from repro.mpi.collectives.basic import (_CTRL_BYTES, _barrier_dissemination,
                                         _tag_window)
from repro.mpi.comm import (ANY_SOURCE, Comm, MPIError, _first_of,
                            _RecvRecord)
from repro.mpi.request import Request

#: tag offset of the consensus barrier inside the collective's tag window
#: (the data messages use the window base; dissemination needs
#: ceil(log2 N) consecutive tags, which fits the remaining half)
_BARRIER_TAG_OFFSET = 32


def _payload_nbytes(payload: Any) -> int:
    if isinstance(payload, TypedBuffer):
        return payload.nbytes
    return int(np.asarray(payload).nbytes)


def _as_f64(payload: Any) -> np.ndarray:
    """A payload's wire bytes reinterpreted as the float64 array the
    receiver would have produced (used for the local self-copy)."""
    if isinstance(payload, TypedBuffer):
        raw = payload.pack().tobytes()
    else:
        raw = np.ascontiguousarray(payload).tobytes()
    return np.frombuffer(raw, dtype=np.float64).copy()


def ibarrier(comm: Comm, base: int) -> "Any":
    """Nonblocking barrier: run the dissemination barrier as its own
    simulated process; the returned future resolves when it completes
    (or carries the failure that aborted it)."""
    fut = comm.engine.future(("ibarrier@%s", comm.grank))

    def _run() -> Generator:
        try:
            yield from _barrier_dissemination(comm, base)
        except BaseException as exc:  # crash/revoke poison -> the waiter
            if not fut.done:
                fut.set_exception(exc)
        else:
            if not fut.done:
                fut.set_result(None)

    comm.engine.spawn(_run(), ("ibarrier@%s", comm.grank))
    return fut


def sparse_alltoall(comm: Comm, payloads: Dict[int, Any],
                    algorithm: Optional[str] = None) -> Generator:
    """Exchange payloads with only the peers named in ``payloads``.

    Every rank contributes the messages it wants to *send*; which ranks
    send to *me* is discovered by the algorithm.  Returns ``{source rank:
    float64 array}`` with one entry per nonzero received payload.
    """
    n = comm.size
    out: Dict[int, Any] = {}
    for dst, payload in payloads.items():
        dst = int(dst)
        if not 0 <= dst < n:
            raise MPIError(
                f"sparse_alltoall: invalid destination rank {dst} "
                f"(communicator size {n})")
        nbytes = _payload_nbytes(payload)
        if nbytes % 8:
            raise MPIError(
                f"sparse_alltoall: payload for rank {dst} is {nbytes} bytes; "
                f"payloads must be a whole number of float64 words")
        if nbytes:
            out[dst] = payload
    volumes = [0] * n
    for dst, payload in out.items():
        volumes[dst] = _payload_nbytes(payload)
    contiguous = all(
        p.is_contiguous() if isinstance(p, TypedBuffer) else True
        for p in out.values())
    ctx = SelectionContext.for_comm(comm, "sparse_alltoall", volumes=volumes,
                                    dtype_size=8, contiguous=contiguous)
    decision = select(comm, "sparse_alltoall", ctx, algorithm=algorithm)
    family = "dense" if decision.algorithm == "dense" else "nbx"
    base = _tag_window(comm, op="sparse_alltoall", detail=family)
    if decision.detect_seconds:
        yield from comm.cpu(decision.detect_seconds, "detect")
    prof = comm.cluster.profiler
    with prof.span("collective", "sparse_alltoall", comm.grank,
                   peers=len(out), algorithm=decision.algorithm,
                   policy=decision.policy):
        impl = REGISTRY.implementation("sparse_alltoall", decision.algorithm)
        result = yield from impl(comm, out, base)
    return result


# -- implementations ----------------------------------------------------------

def _sparse_dense(comm: Comm, payloads: Dict[int, Any],
                  base: int) -> Generator:
    """Counts ``alltoall`` then point-to-point: the legacy dense protocol.

    Every rank participates in the counts exchange whether or not it has
    anything to say -- which is exactly what NBX avoids."""
    n, rank = comm.size, comm.rank
    out_counts = np.zeros(n, dtype=np.float64)
    for dst, payload in payloads.items():
        if dst != rank:
            out_counts[dst] = _payload_nbytes(payload) // 8
    in_counts = np.zeros(n, dtype=np.float64)
    yield from comm.alltoall(out_counts, in_counts, 1)
    result: Dict[int, np.ndarray] = {}
    requests: List[Request] = []
    for src in range(n):
        count = int(in_counts[src])
        if src == rank or count == 0:
            continue
        buf = np.empty(count, dtype=np.float64)
        result[src] = buf
        requests.append(comm.irecv(buf, src, base))
    for dst in sorted(payloads):
        if dst != rank:
            requests.append((yield from comm.isend(payloads[dst], dst, base)))
    yield from Request.waitall(requests)
    local = payloads.get(rank)
    if local is not None:
        result[rank] = _as_f64(local)
    return result


def _send_schedule(comm: Comm, payloads: Dict[int, Any],
                   binned: bool) -> List[int]:
    """Destination order: ring distance from the sender; the binned
    variant additionally issues small (eager) messages before large
    (rendezvous) ones."""
    ring = sorted((d for d in payloads if d != comm.rank),
                  key=lambda d: (d - comm.rank) % comm.size)
    if not binned:
        return ring
    threshold = comm.cost.small_message_threshold
    small = [d for d in ring if _payload_nbytes(payloads[d]) < threshold]
    large = [d for d in ring if _payload_nbytes(payloads[d]) >= threshold]
    return small + large


def _nbx_exchange(comm: Comm, payloads: Dict[int, Any], base: int,
                  binned: bool) -> Generator:
    """The NBX event loop shared by ``nbx`` and ``nbx_binned``."""
    rank = comm.rank
    engine = comm.engine
    prof = comm.cluster.profiler
    result: Dict[int, np.ndarray] = {}

    send_reqs: List[Request] = []
    for dst in _send_schedule(comm, payloads, binned):
        send_reqs.append((yield from comm.isend(payloads[dst], dst, base)))

    # completion of the local sends, tracked off the critical path so a
    # rendezvous send never blocks discovery (the classic NBX deadlock)
    all_sent = engine.future(("nbx-sent@%s", comm.grank))

    def _drain_sends() -> Generator:
        try:
            yield from Request.waitall(send_reqs)
        except BaseException as exc:
            if not all_sent.done:
                all_sent.set_exception(exc)
        else:
            if not all_sent.done:
                all_sent.set_result(None)

    engine.spawn(_drain_sends(), ("nbx-sends@%s", comm.grank))

    barrier_done = None  # the consensus future, once the barrier starts
    recv_reqs: List[Request] = []
    rounds = 0

    def _drain_probes() -> None:
        while True:
            st = comm.iprobe(tag=base)
            if st is None:
                return
            buf = np.empty(st.nbytes // 8, dtype=np.float64)
            result[st.source] = buf
            recv_reqs.append(comm.irecv(buf, st.source, base))

    while True:
        rounds += 1
        _drain_probes()
        if barrier_done is not None and barrier_done.done:
            barrier_done.value  # re-raise a consensus failure
            break
        if barrier_done is None and all_sent.done:
            all_sent.value  # re-raise a send failure
            barrier_done = ibarrier(comm, base + _BARRIER_TAG_OFFSET)
            continue
        # sleep until an incoming message becomes probe-visible OR one of
        # the tracked futures fires, whichever happens first (the manual
        # probe waiter mirrors Comm.probe; crash sweeps poison it)
        waits = [f for f in (all_sent, barrier_done)
                 if f is not None and not f.done]
        probe_fut = engine.future(("nbx-probe@%s", comm.grank))
        entry = _RecvRecord(ANY_SOURCE, base, comm.ctx, None, probe_fut,
                            False, comm)
        waiters = comm.cluster._probe_waiters
        waiters.setdefault(comm.grank, []).append(entry)
        yield from _first_of(engine, probe_fut, *waits)
        pending = waiters.get(comm.grank, [])
        if entry in pending:
            pending.remove(entry)
        if probe_fut.done:
            probe_fut.value  # discard the record; re-raise crash poison

    # the barrier completed: every rank posted its sends before entering
    # it, and posting makes a message probe-visible instantly in this
    # simulator -- so one final drain observes everything outstanding
    _drain_probes()
    yield from Request.waitall(recv_reqs)
    if prof.enabled:
        prof.observe("repro_nbx_consensus_rounds", rounds)
    local = payloads.get(rank)
    if local is not None:
        result[rank] = _as_f64(local)
    return result


def _nbx(comm: Comm, payloads: Dict[int, Any], base: int) -> Generator:
    result = yield from _nbx_exchange(comm, payloads, base, binned=False)
    return result


def _nbx_binned(comm: Comm, payloads: Dict[int, Any], base: int) -> Generator:
    result = yield from _nbx_exchange(comm, payloads, base, binned=True)
    return result


# -- registry entries (alpha-beta estimates are advisory priors) --------------

def _consensus_sweeps(ctx: SelectionContext) -> float:
    rounds = math.ceil(math.log2(max(ctx.size, 2)))
    return 2 * rounds * (ctx.cost.alpha + ctx.cost.beta * _CTRL_BYTES)


def _est_dense(ctx: SelectionContext) -> float:
    c = ctx.cost
    # a full counts sweep (one word per peer) plus the nonzero transfers
    return ((ctx.size - 1) * (c.alpha + c.beta * 8)
            + ctx.nonzero * c.alpha + c.beta * ctx.total_bytes)


def _est_nbx(ctx: SelectionContext) -> float:
    c = ctx.cost
    return (_consensus_sweeps(ctx)
            + ctx.nonzero * c.alpha + c.beta * ctx.total_bytes)


def _est_nbx_binned(ctx: SelectionContext) -> float:
    c = ctx.cost
    # small-before-large shaves eager head-of-line blocking on mixed sets
    small = sum(1 for v in ctx.volumes
                if 0 < v < c.small_message_threshold)
    return _est_nbx(ctx) - 0.5 * small * c.alpha


def _needs_peers(ctx: SelectionContext) -> bool:
    return ctx.size >= 2


REGISTRY.register_fn(
    "sparse_alltoall", "dense", estimator=_est_dense,
    description="alltoall of per-peer counts then point-to-point (baseline)",
)(_sparse_dense)
REGISTRY.register_fn(
    "sparse_alltoall", "nbx", predicate=_needs_peers, estimator=_est_nbx,
    description="NBX nonblocking consensus: probe discovery + ibarrier",
)(_nbx)
REGISTRY.register_fn(
    "sparse_alltoall", "nbx_binned", predicate=_needs_peers,
    estimator=_est_nbx_binned,
    description="NBX with ring-ordered sends, small (eager) before large",
)(_nbx_binned)
