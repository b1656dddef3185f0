"""Cluster, communicator and point-to-point messaging.

Timing protocol (see DESIGN.md):

- **Datatype processing happens at send-call time on the sender's CPU**, as
  in MPICH2: ``send``/``isend`` charge the engine-planned look-ahead, search
  and pack costs before anything reaches the wire.  This is exactly why the
  baseline ``Alltoallw`` delays small-message peers behind large
  noncontiguous ones (paper section 3.2) -- the processing is serialised by
  the host processor.
- **Eager protocol** (payload <= ``eager_threshold``): the send completes as
  soon as the payload is packed; delivery proceeds in the background and
  does not require the receive to be posted first.
- **Rendezvous protocol** (larger payloads): the wire transfer starts only
  once the matching receive is posted, and the send completes when the last
  chunk has left the sender.
- **The wire** is the :class:`repro.simtime.network.NetworkModel`: every
  message (even zero-byte) pays ``alpha``; nodes have one send and one
  receive port, so concurrent messages through a node serialise.
- **Receiver-side unpack** is charged to the receiver after arrival; the
  receive completes after it.

Payload bytes genuinely move: the packed numpy bytes of the send buffer are
unpacked into the receive buffer's typed layout on delivery.
"""

from __future__ import annotations

import functools
import itertools
from time import perf_counter
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datatypes.engine import copy_seconds, engine_for
from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import Datatype, primitive_for, sig_crc
from repro.mpi.config import MPIConfig
from repro.mpi.errors import (
    CommRevokedError,
    FaultToleranceError,
    RankFailedError,
    TransportError,
)
from repro.mpi.request import Request, Status
from repro.prof import NULL_PROFILER
from repro.prof.session import attach_if_enabled
from repro.simtime.engine import Delay, Engine, SimFuture
from repro.simtime.network import NetworkModel
from repro.util.costmodel import CostLedger, CostModel

ANY_SOURCE = -1
ANY_TAG = -1

# -- reliable-transport timing (Comm._deliver) ---------------------------------

#: initial sender retransmit timeout (simulated seconds); multiplied by
#: BACKOFF_FACTOR per failed attempt, up to BACKOFF_CAP
RETRANSMIT_TIMEOUT = 2e-4
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 5e-3

#: attempts per message before the transport surfaces a TransportError;
#: also the rendezvous hang detector's poll budget for an unresponsive peer
MAX_RETRANSMITS = 8

#: how often a rendezvous sender re-checks its peer's liveness while
#: waiting for the matching receive (simulated seconds)
RENDEZVOUS_POLL = 1e-3


class MPIError(RuntimeError):
    """Erroneous use of the message-passing API."""


def _first_of(engine: Engine, *futures: SimFuture) -> Generator:
    """Yieldable: resume as soon as ANY of ``futures`` resolves.

    Unlike yielding a future directly, this does not retrieve results or
    raise stored exceptions -- the caller re-inspects the futures it cares
    about afterwards.  Used to race a rendezvous match against a liveness
    poll timer.
    """
    for fut in futures:
        if fut.done:
            return
    winner = engine.future("first-of")
    for fut in futures:
        fut.add_done_callback(winner._set_if_pending)
    yield winner


def _fail_where(queue: list, hit: Callable[[Any], bool],
                make_exc: Callable[[], BaseException]) -> None:
    """Fail (each with a fresh exception) and drop the records of ``queue``
    that ``hit`` selects; the rest keep their order."""
    keep = []
    for rec in queue:
        if hit(rec):
            rec.fail(make_exc())
        else:
            keep.append(rec)
    queue[:] = keep


class TruncationError(MPIError):
    """A message arrived that is larger than the posted receive buffer."""


def as_typed(
    buffer: Any,
    datatype: Optional[Datatype] = None,
    count: Optional[int] = None,
    offset_bytes: int = 0,
) -> TypedBuffer:
    """Normalise user buffer arguments into a :class:`TypedBuffer`.

    Accepts a ready-made ``TypedBuffer`` or a numpy array (datatype inferred
    from the array's dtype when not given; count defaults to the whole
    array).
    """
    if isinstance(buffer, TypedBuffer):
        return buffer
    arr = np.asarray(buffer)
    if datatype is None:
        datatype = primitive_for(arr.dtype)
    if count is None:
        room = arr.size * arr.itemsize - offset_bytes
        if room % datatype.extent:
            raise MPIError(
                f"buffer of {room} bytes does not hold a "
                f"whole number of {datatype!r} (extent {datatype.extent})"
            )
        count = room // datatype.extent
    return TypedBuffer(arr, datatype, count=count, offset_bytes=offset_bytes)


def timed_pack(prof: Any, tb: TypedBuffer) -> np.ndarray:
    """``tb``'s payload, packed by its copy program.  With a profiler
    attached the move is one ``repro_datatype_pack_exec_seconds`` sample
    and adds the program's ops to ``repro_datatype_pack_ops_total``."""
    if not prof.enabled:
        return tb.pack()
    t0 = perf_counter()
    data = tb.pack()
    _observe_move(prof, tb, perf_counter() - t0)
    return data


def timed_unpack(prof: Any, tb: TypedBuffer, data: np.ndarray) -> None:
    """Scatter packed ``data`` into ``tb``'s layout, profiled like
    :func:`timed_pack`."""
    if not prof.enabled:
        tb.unpack(data)
        return
    t0 = perf_counter()
    tb.unpack(data)
    _observe_move(prof, tb, perf_counter() - t0)


def _observe_move(prof: Any, tb: TypedBuffer, seconds: float) -> None:
    prof.observe("repro_datatype_pack_exec_seconds", seconds)
    if tb.plan is not None:
        prof.count("repro_datatype_pack_ops_total", tb.plan.program.num_ops)


class _SendRecord:
    """Bookkeeping for one in-flight message (ranks are cluster-global)."""

    __slots__ = (
        "src", "dst", "tag", "ctx", "data", "nbytes", "is_obj",
        "match_fut", "recv_rec", "sent_fut", "sig", "transport_exc", "msg_id",
    )

    def __init__(self, engine: Engine, src: int, dst: int, tag: int,
                 ctx: Any, data: Any, nbytes: int, is_obj: bool,
                 sig: Optional[int] = None, msg_id: Optional[int] = None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.ctx = ctx
        self.data = data
        self.nbytes = nbytes
        self.is_obj = is_obj
        self.sig = sig  # flattened typemap signature tuple (None for obj sends)
        #: cluster-unique causal id threaded through the wire events, the
        #: Request, the trace records and the profiler spans of this message
        self.msg_id = msg_id
        # lazy (format, *args) names: rendered only for a diagnostic
        self.match_fut = SimFuture(engine, ("match %s->%s tag=%s", src, dst, tag))
        self.recv_rec: Optional[_RecvRecord] = None
        self.sent_fut = SimFuture(engine, ("sent %s->%s tag=%s", src, dst, tag))
        #: terminal transport failure; poisons a late-binding receive
        self.transport_exc: Optional[BaseException] = None

    def fail(self, exc: BaseException) -> None:
        """Complete whatever is still pending on the send side with ``exc``."""
        if not self.match_fut.done:
            self.match_fut.set_exception(exc)
        if not self.sent_fut.done:
            self.sent_fut.set_exception(exc)


class _RecvRecord:
    """A posted receive or a waiting probe (``source`` is cluster-global
    or ANY_SOURCE; a probe has no ``tb`` and its future yields the matched
    :class:`_SendRecord`)."""

    __slots__ = ("source", "tag", "ctx", "tb", "future", "is_obj", "comm", "sig")

    def __init__(self, source: int, tag: int, ctx: Any,
                 tb: Optional[TypedBuffer], future: SimFuture, is_obj: bool,
                 comm: "Comm", sig: Optional[int] = None):
        self.source = source
        self.tag = tag
        self.ctx = ctx
        self.tb = tb
        self.future = future
        self.is_obj = is_obj
        self.comm = comm
        self.sig = sig  # expected signature tuple (None for obj receives)

    def fail(self, exc: BaseException) -> None:
        if not self.future.done:
            self.future.set_exception(exc)

    def matches(self, rec: _SendRecord) -> bool:
        return (
            self.ctx == rec.ctx
            and (self.source == ANY_SOURCE or self.source == rec.src)
            and (self.tag == ANY_TAG or self.tag == rec.tag)
            and self.is_obj == rec.is_obj
        )


class Cluster:
    """A simulated cluster running one MPI job.

    >>> cluster = Cluster(4, config=MPIConfig.optimized())
    >>> def main(comm):
    ...     yield from comm.barrier()
    ...     return comm.rank
    >>> cluster.run(main)
    [0, 1, 2, 3]
    """

    def __init__(
        self,
        nranks: int,
        config: Optional[MPIConfig] = None,
        cost: Optional[CostModel] = None,
        seed: int = 0,
        heterogeneous: Optional[bool] = None,
        fault_plan: Optional[Any] = None,
    ):
        self.nranks = nranks
        self.config = config or MPIConfig.optimized()
        self.cost = cost or CostModel()
        self.engine = Engine()
        self.net = NetworkModel(
            self.engine, nranks, cost=self.cost, seed=seed,
            heterogeneous=heterogeneous,
        )
        self.ledgers = [CostLedger() for _ in range(nranks)]
        self._posted: List[List[_RecvRecord]] = [[] for _ in range(nranks)]
        self._unexpected: List[List[_SendRecord]] = [[] for _ in range(nranks)]
        #: blocked probes per destination rank (:meth:`Comm.probe`, NBX)
        self._probe_waiters: dict = {}
        self._observers: List[Any] = []
        #: the instrumentation sink; NULL_PROFILER until a
        #: :class:`repro.prof.Profiler` is attached (no-op, near-zero cost)
        self.profiler = NULL_PROFILER
        # -- fault-tolerance state (inert unless faults are injected) -----
        #: cluster-global ranks declared failed (crash semantics)
        self.failed_ranks: set = set()
        #: cluster-global ranks that hang: silently stopped, not yet failed
        self.hung_ranks: set = set()
        #: revoked communicator contexts -> cause exception (or None)
        self._revoked: dict = {}
        #: grank -> main SimProcess (populated by :meth:`run`)
        self._rank_procs: dict = {}
        #: causal message ids (one per logical p2p message, all protocols)
        self._msg_ids = itertools.count(1)
        #: the attached :class:`repro.faults.injector.FaultInjector` (or None)
        self.fault_injector: Optional[Any] = None
        if fault_plan is not None:
            # imported lazily: repro.faults depends on repro.mpi.errors only,
            # but keeping the import out of module scope avoids any cycle
            from repro.faults.injector import FaultInjector
            self.fault_injector = FaultInjector(fault_plan, self)
            self.fault_injector.install()
        self._comms = [Comm(self, r) for r in range(nranks)]
        # a process-wide profiling session (repro.prof.session) auto-attaches
        attach_if_enabled(self)

    # -- instrumentation -----------------------------------------------------

    def add_observer(self, observer: Any) -> None:
        """Register an instrumentation observer.

        An observer is any object; for every event ``evt`` the cluster looks
        up an ``on_<evt>`` method and, when present, calls it.  Events:

        ==================  =====================================================
        ``send_posted``     ``(rec)`` -- a message entered the matching machinery
        ``recv_posted``     ``(grank, rrec)`` -- a receive was posted
        ``match``           ``(rec, rrec)`` -- a send/receive pair bound
        ``truncation``      ``(rec, rrec)`` -- a bind failed: message too large
        ``request``         ``(grank, req)`` -- a :class:`Request` was handed out
        ``collective``      ``(grank, ctx, seq, op, detail)`` -- collective entry
        ``transfer``        ``(event)`` -- a wire transfer completed
                            (:class:`repro.simtime.network.TransferEvent`)
        ==================  =====================================================

        Used by :class:`repro.analyze.runtime.RuntimeVerifier`,
        :class:`repro.mpi.trace.MessageTrace` and
        :class:`repro.prof.Profiler` -- all ordinary subscribers; nothing
        monkey-patches ``net.transfer`` anymore.
        """
        if not self._observers:
            # subscribing to the wire only with the first observer keeps an
            # unobserved run from building a TransferEvent per transfer
            self.net.add_transfer_listener(
                functools.partial(self._notify, "transfer"))
        self._observers.append(observer)

    def _notify(self, event: str, *args: Any) -> None:
        # call sites guard with ``if self._observers``: unobserved runs pay no call
        for obs in self._observers:
            fn = getattr(obs, "on_" + event, None)
            if fn is not None:
                fn(*args)

    def comm(self, rank: int) -> "Comm":
        return self._comms[rank]

    @property
    def elapsed(self) -> float:
        """Simulated seconds since the job started."""
        return self.engine.now

    def run(self, fn: Callable[..., Generator], *args: Any,
            return_exceptions: bool = False) -> List[Any]:
        """Spawn ``fn(comm, *args)`` on every rank; run; return rank results.

        With ``return_exceptions=True`` a rank that terminated with an
        exception (e.g. a :class:`RankFailedError` from an injected crash)
        contributes the exception object to the result list instead of
        re-raising it -- the fault-tolerant analogue of letting the job
        finish with some ranks dead.  The default re-raises the first
        failing rank's exception, exactly like ``Engine.run_all``.
        """
        procs = [
            self.engine.spawn(fn(self._comms[r], *args), f"rank{r}")
            for r in range(self.nranks)
        ]
        self._rank_procs = {r: procs[r] for r in range(self.nranks)}
        if return_exceptions:
            # register as a joiner on every rank so a failing rank parks
            # its exception for collection instead of aborting the engine
            for proc in procs:
                proc.add_done_callback(lambda _p: None)
        self.engine.run()
        results: List[Any] = []
        for proc in procs:
            if proc.exception is not None:
                if not return_exceptions:
                    raise proc.exception
                results.append(proc.exception)
            else:
                results.append(proc.result)
        return results

    def cpu(self, grank: int, seconds: float, category: str = "compute",
            name: Optional[str] = None, lane: str = "main",
            **attrs: Any) -> Generator:
        """Charge ``seconds`` of nominal CPU work on cluster rank ``grank``:
        scaled by the rank's speed and jitter, booked in its ledger under
        ``category``, and spent inside a ``cpu`` span named ``name`` (the
        category by default) on ``lane``.  Background processes (delivery
        unpack, RMA) charge on the ``io`` lane, so the rank's main track
        never holds two spans at once."""
        scaled = self.net.cpu_seconds(grank, seconds)
        self.ledgers[grank].charge(category, scaled)
        prof = self.profiler
        if not prof.enabled:
            # the hottest charge in the stack: skip building span arguments
            yield Delay(scaled)
            return
        with prof.span("cpu", name or category, grank, lane=lane, **attrs):
            yield Delay(scaled)

    def ledger_total(self, category: str) -> float:
        return sum(ledger.get(category) for ledger in self.ledgers)

    def utilization_report(self) -> dict:
        """Post-run statistics: wall (simulated) time, wire traffic, link
        occupancy and per-category CPU shares -- the numbers an MPI
        profiler would summarise.

        A zero-elapsed run (nothing ever advanced the clock) reports 0.0
        link utilization explicitly rather than dividing by a fake
        1-second wall time.
        """
        elapsed = self.elapsed
        send_busy = [p.busy_time for p in self.net.send_ports]
        recv_busy = [p.busy_time for p in self.net.recv_ports]
        categories = sorted({k for led in self.ledgers for k in led.totals})
        return {
            "elapsed": elapsed,
            "messages": self.net.messages_on_wire,
            "bytes": self.net.bytes_on_wire,
            "max_send_link_utilization": (
                max(send_busy) / elapsed if send_busy and elapsed > 0 else 0.0
            ),
            "max_recv_link_utilization": (
                max(recv_busy) / elapsed if recv_busy and elapsed > 0 else 0.0
            ),
            "cpu_seconds_by_category": {
                c: self.ledger_total(c) for c in categories
            },
        }

    # -- fault management (repro.faults; docs/FAULTS.md) ---------------------

    def fail_rank(self, grank: int, reason: str = "injected crash") -> None:
        """Crash cluster-global rank ``grank`` at the current simulated time.

        The rank's main process is killed with a :class:`RankFailedError`
        (its ``finally`` blocks run, releasing any held resources), and
        every pending operation a survivor could block on forever is
        poisoned with the same error:

        - receives posted by survivors naming ``grank`` as the source,
        - unmatched sends to or from ``grank`` (their conduits terminate),
        - probes waiting for a message from ``grank``.

        Messages that had already *matched* keep flowing -- the simulated
        network is store-and-forward -- so in-flight deliveries complete.
        Idempotent: failing an already-failed rank is a no-op.
        """
        if grank in self.failed_ranks:
            return
        if not 0 <= grank < self.nranks:
            raise ValueError(f"rank out of range: {grank}")
        self.failed_ranks.add(grank)
        self.hung_ranks.discard(grank)
        if self.profiler.enabled:
            self.profiler.count("repro_rank_failures_total")
        if self._observers:
            self._notify("rank_failed", grank, reason)
        proc = self._rank_procs.get(grank)
        if proc is not None:
            self.engine.kill(proc, RankFailedError(grank, reason))
        self._sweep_failed_rank(grank, reason)

    def hang_rank(self, grank: int, detect_after: Optional[float] = None,
                  reason: str = "injected hang") -> None:
        """Silently stop ``grank``'s main process (a hang, not a crash).

        No exception is delivered and no queues are swept: partners block
        exactly as they would on a real unresponsive peer, until either
        the reliable transport times out (:class:`TransportError`) or --
        when ``detect_after`` is given -- the failure detector declares
        the rank failed after that many simulated seconds and converts
        the hang into a crash via :meth:`fail_rank`.
        """
        if grank in self.failed_ranks or grank in self.hung_ranks:
            return
        if not 0 <= grank < self.nranks:
            raise ValueError(f"rank out of range: {grank}")
        self.hung_ranks.add(grank)
        if self._observers:
            self._notify("rank_hung", grank, reason)
        proc = self._rank_procs.get(grank)
        if proc is not None:
            self.engine.kill(proc, None)
        if detect_after is not None:
            self.engine.schedule(
                detect_after, self.fail_rank, grank,
                f"{reason} (declared failed by the detector)",
            )

    def revoke_ctx(self, ctx: Any, cause: Optional[BaseException] = None) -> None:
        """Revoke communicator context ``ctx`` (``MPI_Comm_revoke``).

        Every pending operation on the context is completed with a
        :class:`CommRevokedError` carrying ``cause`` (typically the
        :class:`RankFailedError` that triggered the revocation), and any
        operation posted on it afterwards fails immediately.  This is how
        the first rank to observe a failure inside a collective releases
        every other rank blocked in the same collective.  Idempotent.
        """
        if ctx in self._revoked:
            return
        self._revoked[ctx] = cause

        def on_ctx(rec: Any) -> bool:
            return rec.ctx == ctx

        revoked = functools.partial(CommRevokedError, ctx, cause)
        for dst in range(self.nranks):
            _fail_where(self._posted[dst], on_ctx, revoked)
            _fail_where(self._unexpected[dst], on_ctx, revoked)
        for probes in self._probe_waiters.values():
            _fail_where(probes, on_ctx, revoked)

    def _sweep_failed_rank(self, grank: int, reason: str) -> None:
        """Poison every pending operation that rank ``grank``'s crash
        orphaned (see :meth:`fail_rank` for the exact rules)."""
        def from_dead(rrec: _RecvRecord) -> bool:
            return rrec.source == grank

        failed = functools.partial(RankFailedError, grank, reason)
        # the dead rank's own receives and probes: nobody waits on them
        self._posted[grank].clear()
        self._probe_waiters.pop(grank, None)
        for posted in self._posted:
            _fail_where(posted, from_dead, failed)
        for dst, unexpected in enumerate(self._unexpected):
            _fail_where(unexpected,
                        lambda rec: dst == grank or rec.src == grank, failed)
        for probes in self._probe_waiters.values():
            _fail_where(probes, from_dead, failed)

    # -- matching ------------------------------------------------------------

    def pending(self) -> Tuple[List[_SendRecord],
                               List[Tuple[int, _RecvRecord]]]:
        """What the matching queues still hold: the sends no receive has
        matched (by destination rank) and the posted receives as
        ``(grank, record)`` pairs (by rank).  The one read of the queues
        outside the matching code (the runtime verifier, the trace)."""
        sends = [rec for queue in self._unexpected for rec in queue]
        recvs = [(rank, rrec) for rank, queue in enumerate(self._posted)
                 for rrec in queue]
        return sends, recvs

    def _post_send(self, rec: _SendRecord) -> None:
        if self._observers:
            self._notify("send_posted", rec)
        if self._revoked and rec.ctx in self._revoked:
            # the ctx was revoked while the sender was mid-call (e.g.
            # suspended in datatype-processing CPU charges): fail the send
            # here, the authoritative gate, so no record ever enters the
            # matching queues of a dead context
            rec.fail(CommRevokedError(rec.ctx, self._revoked[rec.ctx]))
            return
        if rec.dst in self.failed_ranks:
            # fail-fast: a send to a dead rank errors instead of buffering
            rec.fail(RankFailedError(rec.dst, "destination rank has failed"))
            return
        posted = self._posted[rec.dst]
        for i, rrec in enumerate(posted):
            if rrec.matches(rec):
                del posted[i]
                self._bind(rec, rrec)
                return
        self._unexpected[rec.dst].append(rec)
        probes = self._probe_waiters.get(rec.dst)
        if probes:
            for i, probe in enumerate(probes):
                if probe.matches(rec):
                    del probes[i]
                    probe.future.set_result(rec)
                    break

    def _post_recv(self, dst: int, rrec: _RecvRecord) -> None:
        if self._observers:
            self._notify("recv_posted", dst, rrec)
        if self._revoked and rrec.ctx in self._revoked:
            rrec.future.set_exception(
                CommRevokedError(rrec.ctx, self._revoked[rrec.ctx])
            )
            return
        if rrec.source != ANY_SOURCE and rrec.source in self.failed_ranks:
            # fail-fast: a receive naming a dead source can never complete
            rrec.future.set_exception(
                RankFailedError(rrec.source, "source rank has failed")
            )
            return
        unexpected = self._unexpected[dst]
        for i, rec in enumerate(unexpected):
            if rrec.matches(rec):
                del unexpected[i]
                self._bind(rec, rrec)
                return
        self._posted[dst].append(rrec)

    def _bind(self, rec: _SendRecord, rrec: _RecvRecord) -> None:
        if rec.transport_exc is not None:
            # the reliable transport already gave up on this message; a
            # receive binding to it late inherits the terminal failure
            rrec.future.set_exception(rec.transport_exc)
            return
        if not rec.is_obj:
            capacity = rrec.tb.nbytes if rrec.tb is not None else 0
            if rec.nbytes > capacity:
                if self._observers:
                    self._notify("truncation", rec, rrec)
                exc = TruncationError(
                    f"message {rec.src}->{rec.dst} tag={rec.tag} is "
                    f"{rec.nbytes} bytes but the receive holds {capacity}"
                )
                # MPI reports truncation at the receive; the send
                # completes, and its conduit ends on the failed match
                rrec.future.set_exception(exc)
                rec.match_fut.set_exception(exc)
                if not rec.sent_fut.done:
                    rec.sent_fut.set_result(None)
                return
        if self._observers:
            self._notify("match", rec, rrec)
        rec.recv_rec = rrec
        rec.match_fut.set_result(rrec)


class Comm:
    """A rank-bound communicator handle (what user generators receive).

    A communicator is a *group* of cluster-global ranks plus a matching
    context: messages only match within the same context, so subgroup
    communicators (from :meth:`dup`/:meth:`split`) never cross-talk with
    their parent.  ``rank``/``size`` are communicator-local; the global
    identity is :attr:`grank`.
    """

    def __init__(self, cluster: Cluster, rank: int,
                 group: Optional[Sequence[int]] = None, ctx: Any = 0):
        self.cluster = cluster
        self.group = list(group) if group is not None else list(range(cluster.nranks))
        self.ctx = ctx
        self.rank = rank                      # communicator-local
        self.grank = self.group[rank]         # cluster-global
        self.size = len(self.group)
        self.config = cluster.config
        self.cost = cluster.cost
        self.net = cluster.net
        self.engine = cluster.engine
        self._ctx_seq = 0
        #: collective instances opened on this handle (tag-window sequence)
        self._coll_seq = 0

    def _to_global(self, rank: int) -> int:
        return self.group[rank]

    def _to_local(self, grank: int) -> int:
        group = self.group
        if grank < len(group) and group[grank] == grank:
            return grank  # identity-mapped group (world, dup): no scan
        return group.index(grank)

    # -- derived communicators ----------------------------------------------------

    def _next_ctx(self) -> Any:
        """A fresh context id, deterministic per parent communicator (all
        group members derive the same id by calling in the same order, the
        usual MPI collective-ordering requirement)."""
        self._ctx_seq += 1
        return (self.ctx, self._ctx_seq)

    def dup(self) -> "Comm":
        """A communicator with the same group but an isolated context
        (``MPI_Comm_dup``).  Collective over the group."""
        return Comm(self.cluster, self.rank, self.group, self._next_ctx())

    def split(self, color: Optional[int], key: Optional[int] = None) -> Generator:
        """Partition the group by ``color`` (``MPI_Comm_split``).

        Ranks passing the same color form a new communicator, ordered by
        ``(key, old rank)``; ``color=None`` (MPI_UNDEFINED) returns None.
        Collective over the group -- the color/key exchange costs a real
        gather + broadcast round.
        """
        ctx = self._next_ctx()
        mine = (color, key if key is not None else self.rank, self.rank)
        entries = yield from self.gather_obj(mine, root=0)
        entries = yield from self.bcast(entries, root=0)
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in entries if c == color
        )
        group = [self._to_global(r) for _k, r in members]
        new_rank = [r for _k, r in members].index(self.rank)
        return Comm(self.cluster, new_rank, group, (ctx, color))

    # -- fault tolerance (ULFM-style; see docs/FAULTS.md) ---------------------

    def _check_revoked(self) -> None:
        """Raise :class:`CommRevokedError` if this context was revoked."""
        revoked = self.cluster._revoked
        if revoked and self.ctx in revoked:
            raise CommRevokedError(self.ctx, revoked[self.ctx])

    @property
    def revoked(self) -> bool:
        """True once :meth:`revoke` ran (here or on any rank) for this ctx."""
        return self.ctx in self.cluster._revoked

    def revoke(self, cause: Optional[BaseException] = None) -> None:
        """Revoke this communicator (``MPIX_Comm_revoke``): every pending
        and future operation on its context fails with
        :class:`CommRevokedError` on *every* rank.  Local call, global
        effect -- this is how one rank releases peers blocked on a dead
        process.  Idempotent."""
        self.cluster.revoke_ctx(self.ctx, cause)

    def _survivors(self) -> List[int]:
        """Cluster-global ranks of this group that are still alive."""
        cluster = self.cluster
        dead = cluster.failed_ranks | cluster.hung_ranks
        return [g for g in self.group if g not in dead]

    def shrink(self) -> Generator:
        """A new communicator over the surviving subgroup
        (``MPIX_Comm_shrink``).  Collective over the survivors and usable
        even when this communicator is revoked: the replacement gets a
        fresh context derived deterministically from the survivor set, so
        all survivors construct the same one without communicating over
        the broken context.  A barrier on the new communicator confirms
        everyone arrived."""
        survivors = self._survivors()
        if self.grank not in survivors:
            raise RankFailedError(self.grank, "shrinking rank is itself dead")
        self._ctx_seq += 1
        ctx = ("shrunk", self.ctx, self._ctx_seq, tuple(survivors))
        new = Comm(self.cluster, survivors.index(self.grank), survivors, ctx)
        yield from new.barrier()
        return new

    def agree(self, flag: bool = True) -> Generator:
        """Fault-tolerant agreement (``MPIX_Comm_agree``): the logical AND
        of ``flag`` across all surviving ranks, over an ephemeral
        survivor-only context so it completes even after failures or
        revocation."""
        survivors = self._survivors()
        if self.grank not in survivors:
            raise RankFailedError(self.grank, "agreeing rank is itself dead")
        self._ctx_seq += 1
        ctx = ("agree", self.ctx, self._ctx_seq, tuple(survivors))
        sc = Comm(self.cluster, survivors.index(self.grank), survivors, ctx)
        result = yield from sc.allreduce(
            bool(flag), lambda a, b: bool(a and b)
        )
        return result

    # -- CPU accounting --------------------------------------------------------

    def cpu(self, seconds: float, category: str = "compute") -> Generator:
        """Charge ``seconds`` of nominal CPU work on this rank."""
        yield from self.cluster.cpu(self.grank, seconds, category)

    # -- point-to-point --------------------------------------------------------

    def isend(
        self,
        buffer: Any,
        dest: int,
        tag: int = 0,
        datatype: Optional[Datatype] = None,
        count: Optional[int] = None,
        offset_bytes: int = 0,
    ) -> Generator:
        """Nonblocking typed send; returns a :class:`Request`.

        Datatype processing (look-ahead / search / pack) is charged inline,
        on this rank, before the call returns -- see the module docstring.
        """
        if not 0 <= dest < self.size:
            raise MPIError(f"invalid destination rank {dest}")
        self._check_revoked()
        tb = as_typed(buffer, datatype, count, offset_bytes)
        nbytes = tb.nbytes
        prof = self.cluster.profiler
        msg_id = next(self.cluster._msg_ids)

        # IR-plan attribution rides on the isend span (never as new "cpu"
        # span names, which would distort the pack/wait breakdown)
        plan_attrs = (tb.plan.info()
                      if prof.enabled and tb.plan is not None else {})
        with prof.span("p2p", "isend", self.grank,
                       dest=self._to_global(dest), tag=tag, nbytes=nbytes,
                       msg_id=msg_id, **plan_attrs):
            if prof.enabled:
                prof.count("repro_send_messages_total")
                prof.count("repro_send_bytes_total", nbytes)
                if nbytes == 0:
                    prof.count("repro_zero_byte_sends_total")
            # charge datatype processing (block structure read off the
            # compiled IR plan shared by every equal-structure send)
            if nbytes > 0 and not tb.is_contiguous():
                engine = engine_for(tb, self.cost,
                                    self.config.dual_context_engine)
                if prof.enabled:
                    self._count_pack_stages(prof, engine.stages, nbytes)
                for category, seconds in (("lookahead", engine.lookahead_s),
                                          ("search", engine.search_s),
                                          ("pack", engine.pack_s)):
                    if seconds:
                        yield from self.cpu(seconds, category)

            data = timed_pack(prof, tb)
            rec = _SendRecord(self.engine, self.grank, self._to_global(dest),
                              tag, self.ctx, data, nbytes, is_obj=False,
                              sig=tb.signature(), msg_id=msg_id)
            self.cluster._post_send(rec)
            self.engine.spawn(self._deliver(rec),
                              ("deliver %s->%s", self.rank, dest))
            if nbytes <= self.config.eager_threshold and not rec.sent_fut.done:
                # eager: the payload is buffered; the send is already
                # complete (unless _post_send already failed it fail-fast)
                rec.sent_fut.set_result(None)
            req = Request(rec.sent_fut, "send", profiler=prof, rank=self.grank,
                          msg_id=msg_id)
            if self.cluster._observers:
                self.cluster._notify("request", self.grank, req)
            return req

    def _count_pack_stages(self, prof, stages, nbytes: int) -> None:
        """Pack-engine metrics for one noncontiguous send plan."""
        dense = sum(1 for s in stages if s.dense)
        prof.count("repro_pack_stages_total", len(stages))
        prof.count("repro_lookahead_dense_total", dense)
        prof.count("repro_lookahead_sparse_total", len(stages) - dense)
        prof.count("repro_pack_bytes_total", nbytes)
        researches = [s for s in stages if s.search_s > 0]
        if researches:
            prof.count("repro_research_total", len(researches))
            for s in researches:
                prof.observe("repro_research_depth_blocks", s.search_blocks)

    def send(self, buffer: Any, dest: int, tag: int = 0,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             offset_bytes: int = 0) -> Generator:
        """Blocking typed send."""
        req = yield from self.isend(buffer, dest, tag, datatype, count, offset_bytes)
        yield from req.wait()

    def irecv(
        self,
        buffer: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        datatype: Optional[Datatype] = None,
        count: Optional[int] = None,
        offset_bytes: int = 0,
    ) -> Request:
        """Nonblocking typed receive; returns a :class:`Request` whose
        ``wait()`` yields a :class:`Status`."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise MPIError(f"invalid source rank {source}")
        self._check_revoked()
        tb = as_typed(buffer, datatype, count, offset_bytes)
        fut = SimFuture(self.engine, ("recv@%s tag=%s", self.rank, tag))
        gsource = source if source == ANY_SOURCE else self._to_global(source)
        rrec = _RecvRecord(gsource, tag, self.ctx, tb, fut, is_obj=False,
                           comm=self, sig=tb.signature())
        self.cluster._post_recv(self.grank, rrec)
        req = Request(fut, "recv", profiler=self.cluster.profiler,
                      rank=self.grank)
        if self.cluster._observers:
            self.cluster._notify("request", self.grank, req)
        return req

    def recv(self, buffer: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype: Optional[Datatype] = None, count: Optional[int] = None,
             offset_bytes: int = 0) -> Generator:
        """Blocking typed receive; returns a :class:`Status`."""
        req = self.irecv(buffer, source, tag, datatype, count, offset_bytes)
        status = yield from req.wait()
        return status

    # -- probing --------------------------------------------------------------

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking check for a pending (unexpected) message; returns a
        :class:`Status` without consuming it, or None."""
        gsource = source if source == ANY_SOURCE else self._to_global(source)
        probe_rrec = _RecvRecord(gsource, tag, self.ctx, None, None, False, self)
        for rec in self.cluster._unexpected[self.grank]:
            if not rec.is_obj and probe_rrec.matches(rec):
                return Status(self._to_local(rec.src), rec.tag, rec.nbytes)
        return None

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking probe: waits until a matching message is pending and
        returns its :class:`Status` (the message is NOT consumed)."""
        status = self.iprobe(source, tag)
        if status is not None:
            return status
        rec = yield from self._wait_probe(source, tag)
        return Status(self._to_local(rec.src), rec.tag, rec.nbytes)

    def _wait_probe(self, source: int, tag: int,
                    *others: SimFuture) -> Generator:
        """Register a probe waiter and block until a matching message is
        pending; returns its :class:`_SendRecord` (not consumed).  Given
        ``others``, also resume when one of them resolves first: the
        waiter is then withdrawn and the result is None.  Crash sweeps
        and revocation poison the waiter."""
        gsource = source if source == ANY_SOURCE else self._to_global(source)
        fut = self.engine.future(("probe@%s", self.grank))
        waiter = _RecvRecord(gsource, tag, self.ctx, None, fut, False, self)
        self.cluster._probe_waiters.setdefault(self.grank, []).append(waiter)
        if not others:
            rec = yield fut
            return rec
        yield from _first_of(self.engine, fut, *others)
        pending = self.cluster._probe_waiters.get(self.grank, [])
        if waiter in pending:
            pending.remove(waiter)
        return fut.value if fut.done else None

    def sendrecv(
        self,
        sendbuffer: Any,
        dest: int,
        recvbuffer: Any,
        source: int,
        sendtag: int = 0,
        recvtag: Optional[int] = None,
    ) -> Generator:
        """Simultaneous send and receive (deadlock-free pairwise exchange)."""
        if recvtag is None:
            recvtag = sendtag
        rreq = self.irecv(recvbuffer, source, recvtag)
        sreq = yield from self.isend(sendbuffer, dest, sendtag)
        status = yield from rreq.wait()
        yield from sreq.wait()
        return status

    # -- control-plane (python object) messages ---------------------------------

    def isend_obj(self, value: Any, dest: int, tag: int, nbytes: int = 64) -> Request:
        """Send a small python object (control plane); ``nbytes`` is its
        nominal wire size for timing purposes."""
        if not 0 <= dest < self.size:
            raise MPIError(f"invalid destination rank {dest}")
        self._check_revoked()
        rec = _SendRecord(self.engine, self.grank, self._to_global(dest), tag,
                          self.ctx, value, nbytes, is_obj=True,
                          msg_id=next(self.cluster._msg_ids))
        self.cluster._post_send(rec)
        self.engine.spawn(self._deliver(rec),
                          ("deliver-obj %s->%s", self.rank, dest))
        if not rec.sent_fut.done:
            rec.sent_fut.set_result(None)
        # control-plane sends complete eagerly; dropping the request is fine,
        # so it is exempt from leak tracking (kind "send_obj")
        return Request(rec.sent_fut, "send_obj")

    def recv_obj(self, source: int, tag: int) -> Generator:
        """Receive a python object; returns the value."""
        self._check_revoked()
        fut = SimFuture(self.engine, ("recv-obj@%s tag=%s", self.rank, tag))
        gsource = source if source == ANY_SOURCE else self._to_global(source)
        rrec = _RecvRecord(gsource, tag, self.ctx, None, fut, is_obj=True, comm=self)
        self.cluster._post_recv(self.grank, rrec)
        value = yield fut
        return value

    # -- delivery ------------------------------------------------------------------

    def _deliver(self, rec: _SendRecord) -> Generator:
        """The background process that moves ``rec`` to its receiver (one
        per message, either transport).

        A rendezvous payload waits for the match first.  An attempt puts
        the payload on the wire with one :meth:`NetworkModel.transfer` --
        in pipeline chunks when it is a packed one -- which ORs the
        injector's verdicts over the chunks: one lost or corrupted chunk
        spoils the message.  The best-effort transport makes one attempt
        and checks nothing, so a spoiled message is lost (the send
        completes, the receive never does).  Under ``reliable_transport`` the verdict stands in for the
        receiver's checksum: a clean arrival is acked by a zero-byte
        message riding the same faulty wire, and the sender retransmits on
        an :meth:`Engine.timeout` timer with capped exponential backoff
        (:data:`RETRANSMIT_TIMEOUT`, :data:`BACKOFF_FACTOR`,
        :data:`BACKOFF_CAP`) until :data:`MAX_RETRANSMITS` unacked attempts
        surface :class:`TransportError`.  Only the acked attempt reaches
        the receive, so delivery is exactly once.

        Ends quietly on a fault-tolerance exception (peer crash,
        revocation, retransmit exhaustion) or a truncated match: whoever
        raised it has already notified the endpoints through their own
        futures.
        """
        cluster = self.cluster
        engine = self.engine
        prof = cluster.profiler
        reliable = self.config.reliable_transport
        rendezvous = rec.nbytes > self.config.eager_threshold
        try:
            if rendezvous:
                t_posted = engine.now
                if reliable:
                    yield from self._reliable_await_match(rec)
                else:
                    yield rec.match_fut  # the wire waits for the receive
                if prof.enabled:
                    prof.observe("repro_rendezvous_stall_seconds",
                                 engine.now - t_posted)

            start = engine.now
            sig_meta = self._wire_sig(rec)
            chunk = None if rec.is_obj else self.cost.pipeline_chunk
            timeout = RETRANSMIT_TIMEOUT
            attempts = 0
            while True:
                attempts += 1
                if reliable:
                    if attempts > 1 and prof.enabled:
                        prof.count("repro_retransmits_total")
                    if rec.dst in cluster.failed_ranks:
                        self._fail_send(rec, RankFailedError(
                            rec.dst, "destination failed during delivery"))
                        return
                fault = yield from self.net.transfer(
                    rec.src, rec.dst, rec.nbytes, tag=rec.tag, sig=sig_meta,
                    msg_id=rec.msg_id, chunk=chunk)
                if not reliable:
                    break
                if (fault.drop or rec.dst in cluster.failed_ranks
                        or rec.dst in cluster.hung_ranks):
                    pass  # lost on the wire (or nobody home); await the timer
                elif fault.corrupt:
                    if prof.enabled:
                        prof.count("repro_checksum_failures_total")
                else:
                    ack = yield from self.net.transfer(
                        rec.dst, rec.src, 0, tag=rec.tag, msg_id=rec.msg_id)
                    if not (ack.drop or ack.corrupt):
                        break
                yield engine.timeout(timeout)
                if attempts == MAX_RETRANSMITS:
                    self._fail_send(rec, TransportError(rec.src, rec.dst,
                                                        rec.tag, attempts))
                    return
                timeout = min(timeout * BACKOFF_FACTOR, BACKOFF_CAP)

            cluster.ledgers[rec.src].charge("comm", engine.now - start)
            if rendezvous and not rec.sent_fut.done:
                rec.sent_fut.set_result(None)
            if not (fault.drop or fault.corrupt):
                yield from self._finish_delivery(rec)
        except (FaultToleranceError, TruncationError):
            pass

    def _wire_sig(self, rec: _SendRecord) -> Optional[int]:
        """The signature hash riding on ``rec``'s wire transfers -- only
        computed when somebody listens to the wire (a transfer already in
        flight when the first observer attaches reports ``sig=None``)."""
        if rec.sig is None or not self.net._transfer_listeners:
            return None
        return sig_crc(rec.sig)

    def _finish_delivery(self, rec: _SendRecord) -> Generator:
        """Receiver side of a delivery whose payload reached ``rec.dst``:
        wait for the match, charge the unpack, move the bytes, resolve the
        receive future.  Shared by both transports."""
        prof = self.cluster.profiler
        if not rec.match_fut.done:
            yield rec.match_fut
        rrec = rec.recv_rec
        if rrec is None:
            # the match was poisoned (peer crash / revocation) after the
            # payload was already on the wire; retrieve the stored
            # exception, which terminates this conduit
            yield rec.match_fut
            raise MPIError("matched send record lost its receive")

        if rec.is_obj:
            if not rrec.future.done:
                rrec.future.set_result(rec.data)
            return

        # receiver-side unpack: charged on the receiver's CPU.  The span
        # lives on the receiver's "io" lane -- several deliveries may
        # overlap the receiver's own flow (and each other)
        tb = rrec.tb
        if rec.nbytes > 0 and not tb.is_contiguous():
            if prof.enabled:
                prof.count("repro_unpack_bytes_total", rec.nbytes)
            yield from self.cluster.cpu(
                rec.dst, copy_seconds(tb, self.cost, rec.nbytes), "pack",
                name="unpack", lane="io", src=rec.src, nbytes=rec.nbytes,
                msg_id=rec.msg_id)

        # functional delivery
        if rec.nbytes == tb.nbytes:
            timed_unpack(prof, tb, rec.data)
        elif rec.nbytes > 0:
            # a shorter message (MPI allows it) fills the layout's prefix;
            # the rest of the receive buffer keeps its bytes
            staged = timed_pack(prof, tb)
            staged[:rec.nbytes] = np.ascontiguousarray(rec.data).reshape(-1).view(np.uint8)
            timed_unpack(prof, tb, staged)
        if not rrec.future.done:
            rrec.future.set_result(
                Status(rrec.comm._to_local(rec.src), rec.tag, rec.nbytes)
            )

    # -- reliable delivery (MPIConfig.reliable_transport) ---------------------

    def _reliable_await_match(self, rec: _SendRecord) -> Generator:
        """Rendezvous wait with a liveness poll: instead of blocking
        unconditionally on the match, re-check the peer every
        :data:`RENDEZVOUS_POLL` seconds so a hung receiver turns into a
        bounded :class:`TransportError` rather than a deadlock.  A crashed
        one needs no poll: the crash fails the unmatched send itself
        (``_post_send``'s fail-fast, ``Cluster._sweep_failed_rank``)."""
        cluster = self.cluster
        engine = self.engine
        polls = 0
        while not rec.match_fut.done:
            if rec.dst in cluster.hung_ranks:
                polls += 1
                if polls > MAX_RETRANSMITS:
                    exc = TransportError(
                        rec.src, rec.dst, rec.tag, polls,
                        reason="peer unresponsive during rendezvous",
                    )
                    self._fail_send(rec, exc)
                    raise exc
            timer = engine.timeout(RENDEZVOUS_POLL)
            yield from _first_of(engine, rec.match_fut, timer)
            timer.cancel()  # harmless if it already fired
        # retrieve a poisoned match (e.g. the context was revoked while
        # we waited); a clean match resumes with the receive record
        yield rec.match_fut

    def _fail_send(self, rec: _SendRecord, exc: BaseException) -> None:
        """Terminal transport failure for ``rec``: notify the sender, the
        matched receiver if any, and poison late-binding receives."""
        rec.transport_exc = exc
        if not rec.sent_fut.done:
            rec.sent_fut.set_exception(exc)
        rrec = rec.recv_rec
        if rrec is not None and not rrec.future.done:
            rrec.future.set_exception(exc)

    # -- collectives (implemented in repro.mpi.collectives) -------------------------
    #
    # Every collective instance opens through repro.mpi.collectives.instance,
    # which gives ALL registered algorithms and library exchanges uniform
    # ULFM failure semantics without each implementation knowing about faults.

    def barrier(self) -> Generator:
        from repro.mpi.collectives.basic import barrier
        yield from barrier(self)

    def bcast(self, value: Any, root: int = 0) -> Generator:
        from repro.mpi.collectives.basic import bcast
        result = yield from bcast(self, value, root)
        return result

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None) -> Generator:
        from repro.mpi.collectives.basic import allreduce
        result = yield from allreduce(self, value, op)
        return result

    def gather_obj(self, value: Any, root: int = 0) -> Generator:
        from repro.mpi.collectives.basic import gather_obj
        result = yield from gather_obj(self, value, root)
        return result

    def allgatherv(
        self,
        sendbuffer: Any,
        recvbuffer: np.ndarray,
        counts: Sequence[int],
        displs: Optional[Sequence[int]] = None,
        datatype: Optional[Datatype] = None,
        algorithm: Optional[str] = None,
    ) -> Generator:
        from repro.mpi.collectives.allgatherv import allgatherv
        yield from allgatherv(self, sendbuffer, recvbuffer, counts, displs,
                              datatype, algorithm=algorithm)

    def alltoallw(
        self,
        sendspecs: Sequence[Optional[TypedBuffer]],
        recvspecs: Sequence[Optional[TypedBuffer]],
        algorithm: Optional[str] = None,
    ) -> Generator:
        from repro.mpi.collectives.alltoallw import alltoallw
        yield from alltoallw(self, sendspecs, recvspecs, algorithm=algorithm)

    def alltoall(self, sendbuf, recvbuf, count: int, datatype=None) -> Generator:
        from repro.mpi.collectives.alltoall import alltoall
        result = yield from alltoall(self, sendbuf, recvbuf, count, datatype)
        return result

    def sparse_alltoall(self, payloads, algorithm: Optional[str] = None) -> Generator:
        """Sparse dynamic exchange: send ``{dest rank: payload}``; which
        ranks send to *me* is discovered by the algorithm (NBX consensus
        or the dense counts exchange).  Returns ``{source rank: float64
        array}`` of the received payloads."""
        from repro.mpi.collectives.sparse import sparse_alltoall
        result = yield from sparse_alltoall(self, payloads, algorithm=algorithm)
        return result
