"""Cluster network and CPU model.

Models the paper's testbed (section 5.1): two 32-node clusters -- Intel
EM64T 3.6 GHz and AMD Opteron 2.8 GHz -- joined by one InfiniBand DDR
switch.  The relevant properties for the reproduced experiments are:

- every node has one NIC: concurrent sends (or receives) at a node
  serialise (:class:`repro.simtime.resources.Port`),
- message time follows the alpha-beta model,
- the two halves of the machine run CPU-bound work at different speeds,
  which creates the natural skew the paper observes in Fig. 15
  ("we did not add any artificial skew ... some skew is bound to be
  present"), plus small seeded per-call jitter.

Rank-to-cluster mapping mirrors the paper: runs of <= 32 processes fit on
one (Opteron) cluster and are nearly homogeneous; larger runs straddle both
clusters and are heterogeneous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.simtime.engine import Delay, Engine
from repro.simtime.resources import Port
from repro.util.costmodel import CostModel

#: number of nodes per physical cluster in the paper's testbed
CLUSTER_NODES = 32


@dataclass(frozen=True)
class WireFault:
    """Verdict of a fault injector for ONE wire chunk.

    Produced by :meth:`repro.faults.injector.FaultInjector.on_wire`.
    :meth:`NetworkModel.transfer` applies the timing effects itself
    (``delay`` spike, ``scale`` NIC degradation) and returns the payload
    effects (``drop``, ``corrupt``) OR-ed over a message's chunks; they
    are read by ``Comm._deliver`` in :mod:`repro.mpi.comm`: they lose a
    best-effort message and cost a reliable one a retransmission.
    """

    drop: bool = False
    corrupt: bool = False
    delay: float = 0.0
    scale: float = 1.0


#: shared "nothing happened" verdict (avoids per-transfer allocation)
NO_FAULT = WireFault()


@dataclass(frozen=True)
class TransferEvent:
    """One completed wire transfer, reported to transfer listeners.

    ``t_start``/``t_end`` bracket the whole operation including port
    acquisition; ``sig`` is the flattened-datatype signature hash riding
    along as metadata (None for control-plane/raw transfers).
    """

    src: int
    dst: int
    nbytes: int
    tag: int
    sig: Optional[int]
    t_start: float
    t_end: float
    #: cluster-unique causal message id (:attr:`_SendRecord.msg_id`); every
    #: wire chunk of one logical message carries the same id, tying the
    #: send call, its transfers and the receive together (None for raw
    #: transfers issued outside the p2p layer, e.g. RMA)
    msg_id: Optional[int] = None


class NetworkModel:
    """Per-rank ports, transfer times and CPU-time scaling for one cluster."""

    def __init__(
        self,
        engine: Engine,
        nranks: int,
        cost: CostModel | None = None,
        seed: int = 0,
        heterogeneous: bool | None = None,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.engine = engine
        self.nranks = nranks
        self.cost = cost or CostModel()
        self._rng = random.Random(seed)
        # Heterogeneous iff the job does not fit on one 32-node cluster,
        # unless explicitly overridden.
        if heterogeneous is None:
            heterogeneous = nranks > CLUSTER_NODES
        self.heterogeneous = heterogeneous
        self.send_ports: List[Port] = [
            Port(engine, f"send[{r}]") for r in range(nranks)
        ]
        self.recv_ports: List[Port] = [
            Port(engine, f"recv[{r}]") for r in range(nranks)
        ]
        self._speed = [self._speed_factor(r) for r in range(nranks)]
        self.bytes_on_wire = 0
        self.messages_on_wire = 0
        #: called with a :class:`TransferEvent` after each completed transfer
        self._transfer_listeners: List[Callable[[TransferEvent], None]] = []
        #: optional fault injector (:class:`repro.faults.injector.FaultInjector`);
        #: consulted once per wire transfer when set.  None (the default)
        #: keeps the fault-free path byte- and schedule-identical.
        self.fault_injector: Optional[Any] = None

    def add_transfer_listener(self, fn: Callable[[TransferEvent], None]) -> None:
        """Register ``fn(event)`` to run after every completed transfer.

        This is the supported instrumentation point (used by the cluster to
        fan events out to its observers); wrapping/monkey-patching
        :meth:`transfer` is not, since multiple wrappers double-wrap the
        generator.
        """
        self._transfer_listeners.append(fn)

    def _speed_factor(self, rank: int) -> float:
        """CPU-time multiplier for ``rank`` (1.0 = fast Intel node)."""
        if not self.heterogeneous:
            return 1.0
        # First half on the Intel cluster, second half on the Opteron one.
        return 1.0 if rank < self.nranks // 2 else self.cost.hetero_factor

    def speed_factor(self, rank: int) -> float:
        return self._speed[rank]

    # -- CPU -------------------------------------------------------------

    def cpu_seconds(self, rank: int, seconds: float) -> float:
        """Scale nominal CPU ``seconds`` by rank speed and seeded jitter."""
        if seconds < 0:
            raise ValueError(f"negative cpu time: {seconds!r}")
        if seconds == 0:
            return 0.0
        jitter = 1.0 + self._rng.random() * self.cost.cpu_noise
        return seconds * self._speed[rank] * jitter

    # -- wire ------------------------------------------------------------

    def transfer(self, src: int, dst: int, nbytes: int,
                 latency: Optional[float] = None,
                 tag: int = -1, sig: Optional[int] = None,
                 msg_id: Optional[int] = None,
                 chunk: Optional[int] = None) -> Generator:
        """Yieldable: move ``nbytes`` from ``src`` to ``dst``, in pipeline
        chunks of ``chunk`` bytes (the last one shorter) when given.

        Each chunk holds the sender's send port and the receiver's receive
        port for its whole wire time, which serialises concurrent messages
        through a node -- the mechanism behind the ring algorithm's
        sequentialisation -- and interleaves contending messages' chunks
        in FIFO order.  Zero-byte messages still pay ``alpha`` (a pure
        synchronisation, the cost the optimised Alltoallw avoids by
        exempting the zero bin).  ``latency`` overrides the per-message
        alpha (e.g. the cheaper initiation cost of a raw RDMA operation).

        ``tag``, ``sig`` and ``msg_id`` (the message tag, the flattened
        datatype signature hash and the causal message id assigned by the
        p2p layer) are pure metadata: the wire ignores them, but transfer
        listeners such as :class:`repro.mpi.trace.MessageTrace`
        (subscribed through the cluster observer API) record them, one
        :class:`TransferEvent` per chunk.

        The injector judges each chunk; a delay spike or NIC degradation
        is applied to the chunk it hit.  Returns the chunks' ``drop`` and
        ``corrupt`` verdicts OR-ed into one :class:`WireFault` (the shared
        :data:`NO_FAULT` when none fired); whether they lose the payload
        is the caller's to decide.
        """
        if not (0 <= src < self.nranks and 0 <= dst < self.nranks):
            raise ValueError(f"rank out of range: {src}->{dst}")
        engine = self.engine
        cost = self.cost
        injector = self.fault_injector
        send_port = self.send_ports[src]
        recv_port = self.recv_ports[dst]
        dropped = corrupted = False
        left = nbytes
        priced = None  # the chunk size ``wire`` holds the wire time of
        while True:
            part = left if chunk is None or left <= chunk else chunk
            left -= part
            t_start = engine.now
            scale = 1.0
            if injector is not None:
                fault = injector.on_wire(src, dst, part, tag, t_start)
                dropped |= fault.drop
                corrupted |= fault.corrupt
                scale = fault.scale
                if fault.delay > 0.0:
                    # delay spike: the packet sits in the NIC before the wire
                    yield Delay(fault.delay)
            if part != priced:
                priced = part
                if latency is None:
                    wire = cost.transfer_time(part)
                else:
                    wire = latency + cost.beta * max(0, part)
            duration = wire * scale
            self.bytes_on_wire += part
            self.messages_on_wire += 1
            if src == dst:
                # local copy through memory, no NIC involved
                yield Delay(cost.copy_byte * part)
            else:
                # an idle port is taken inline; only a busy one pays acquire()
                if send_port._in_use:
                    yield from send_port.acquire()
                else:
                    send_port._in_use = True
                try:
                    if recv_port._in_use:
                        yield from recv_port.acquire()
                    else:
                        recv_port._in_use = True
                    try:
                        yield Delay(duration)
                        send_port.busy_time += duration
                        recv_port.busy_time += duration
                    finally:
                        recv_port.release()
                finally:
                    send_port.release()
            if self._transfer_listeners:
                event = TransferEvent(src, dst, part, tag, sig,
                                      t_start, engine.now, msg_id)
                for fn in self._transfer_listeners:
                    fn(event)
            if left <= 0:
                break
        if dropped or corrupted:
            return WireFault(drop=dropped, corrupt=corrupted)
        return NO_FAULT
