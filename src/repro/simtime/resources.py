"""FIFO resources for the simulator.

The network model uses one send :class:`Port` and one receive :class:`Port`
per node to represent the single NIC each cluster node has.  Serialising
transfers through these ports is what makes the ring algorithm's large
message genuinely sequential (Fig. 8 of the paper): a node cannot forward the
big block to its successor before it has finished receiving it, and cannot
send two messages at once.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator

from repro.simtime.engine import Delay, Engine, SimFuture, SimulationError


class Resource:
    """A mutex with fair (FIFO) queueing.

    ``yield from res.acquire()`` blocks until the resource is free;
    ``res.release()`` frees it.  Prefer :meth:`use` which pairs the two
    around a timed hold.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._in_use = False
        self._waiters: Deque[SimFuture] = deque()

    def acquire(self) -> Generator:
        if not self._in_use:
            self._in_use = True
            return
            yield  # pragma: no cover - makes this a generator
        fut = self.engine.future(f"acquire({self.name})")
        self._waiters.append(fut)
        yield fut
        # ownership transferred by release(); _in_use stays set

    def release(self) -> None:
        if not self._in_use:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # hand the resource straight to the next waiter (keeps _in_use).
            self._waiters.popleft().set_result(None)
        else:
            self._in_use = False

    def use(self, duration: float) -> Generator:
        """Acquire, hold for ``duration`` sim-seconds, release."""
        yield from self.acquire()
        try:
            yield Delay(duration)
        finally:
            self.release()


class Port(Resource):
    """One direction of a NIC.

    ``busy_time`` accumulates the wire time
    :meth:`repro.simtime.network.NetworkModel.transfer` holds the port for,
    so experiments can report link utilisation.
    """

    def __init__(self, engine: Engine, name: str = ""):
        super().__init__(engine, name)
        self.busy_time = 0.0
