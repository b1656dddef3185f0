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
    """Verdict of a fault injector for ONE wire transfer attempt.

    Produced by :meth:`repro.faults.injector.FaultInjector.on_wire`;
    consumed by :meth:`NetworkModel.transfer` (timing effects: ``delay``
    spike, ``scale`` NIC degradation) and by the reliable transport in
    :mod:`repro.mpi.comm` (payload effects: ``drop``, ``corrupt``,
    ``duplicate``).
    """

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay: float = 0.0
    scale: float = 1.0


#: shared "nothing happened" verdict (avoids per-transfer allocation)
NO_FAULT = WireFault()


@dataclass
class WireOutcome:
    """What happened to one logical transfer (possibly several chunks).

    Returned by :meth:`NetworkModel.transfer`.  Callers that ignore the
    return value (every pre-fault call site) are unaffected; the reliable
    transport inspects it to decide whether the payload actually arrived
    intact.
    """

    dropped: bool = False
    corrupted: bool = False
    duplicate: bool = False

    def merge(self, fault: "WireFault") -> None:
        self.dropped = self.dropped or fault.drop
        self.corrupted = self.corrupted or fault.corrupt
        self.duplicate = self.duplicate or fault.duplicate

    def absorb(self, other: "WireOutcome") -> None:
        """Fold another chunk's outcome into this whole-message outcome."""
        self.dropped = self.dropped or other.dropped
        self.corrupted = self.corrupted or other.corrupted
        self.duplicate = self.duplicate or other.duplicate


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
                 msg_id: Optional[int] = None) -> Generator:
        """Yieldable: move ``nbytes`` from ``src`` to ``dst``.

        Holds the sender's send port and the receiver's receive port for the
        whole wire time, which serialises concurrent messages through a node
        -- the mechanism behind the ring algorithm's sequentialisation.
        Zero-byte messages still pay ``alpha`` (a pure synchronisation, the
        cost the optimised Alltoallw avoids by exempting the zero bin).
        ``latency`` overrides the per-message alpha (e.g. the cheaper
        initiation cost of a raw RDMA operation).

        ``tag``, ``sig`` and ``msg_id`` (the message tag, the flattened
        datatype signature hash and the causal message id assigned by the
        p2p layer) are pure metadata: the wire ignores them, but transfer
        listeners such as :class:`repro.mpi.trace.MessageTrace`
        (subscribed through the cluster observer API) record them.

        Returns a :class:`WireOutcome`.  When a fault injector is attached
        (:mod:`repro.faults`) the outcome may be marked dropped / corrupted
        / duplicated and the transfer may suffer a delay spike or NIC
        degradation; with no injector the outcome is always clean and the
        code path is identical to the fault-free build.
        """
        t_start = self.engine.now
        outcome = WireOutcome()
        scale = 1.0
        if self.fault_injector is not None:
            fault = self.fault_injector.on_wire(src, dst, nbytes, tag, t_start)
            outcome.merge(fault)
            scale = fault.scale
            if fault.delay > 0.0:
                # delay spike: the packet sits in the NIC before the wire
                yield Delay(fault.delay)
        if not (0 <= src < self.nranks and 0 <= dst < self.nranks):
            raise ValueError(f"rank out of range: {src}->{dst}")
        if latency is None:
            duration = self.cost.transfer_time(nbytes)
        else:
            duration = latency + self.cost.beta * max(0, nbytes)
        if scale != 1.0:
            duration *= scale
        self.bytes_on_wire += nbytes
        self.messages_on_wire += 1
        if src == dst:
            # local copy through memory, no NIC involved
            yield Delay(self.cost.copy_byte * nbytes)
        else:
            # an idle port is taken inline; only a busy one pays acquire()
            send_port = self.send_ports[src]
            recv_port = self.recv_ports[dst]
            if send_port._in_use:
                yield from send_port.acquire()
            else:
                send_port._in_use = 1
            try:
                if recv_port._in_use:
                    yield from recv_port.acquire()
                else:
                    recv_port._in_use = 1
                try:
                    yield Delay(duration)
                    send_port.busy_time += duration
                    recv_port.busy_time += duration
                finally:
                    recv_port.release()
            finally:
                send_port.release()
        if self._transfer_listeners:
            event = TransferEvent(src, dst, nbytes, tag, sig,
                                  t_start, self.engine.now, msg_id)
            for fn in self._transfer_listeners:
                fn(event)
        return outcome
