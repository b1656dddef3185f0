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
    """A counted FIFO resource (like a semaphore with fair queueing).

    ``yield from res.acquire()`` blocks until a slot is free;
    ``res.release()`` frees it.  Prefer :meth:`use` which pairs the two
    around a timed hold.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[SimFuture] = deque()

    def acquire(self) -> Generator:
        if self._in_use < self.capacity:
            self._in_use += 1
            return
            yield  # pragma: no cover - makes this a generator
        fut = self.engine.future(f"acquire({self.name})")
        self._waiters.append(fut)
        yield fut
        # ownership transferred by release(); _in_use already counted

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # hand the slot straight to the next waiter (keeps _in_use).
            self._waiters.popleft().set_result(None)
        else:
            self._in_use -= 1

    def use(self, duration: float) -> Generator:
        """Acquire, hold for ``duration`` sim-seconds, release."""
        yield from self.acquire()
        try:
            yield Delay(duration)
        finally:
            self.release()


class Port(Resource):
    """A single-capacity resource representing one direction of a NIC.

    Tracks cumulative busy time so experiments can report link utilisation.
    """

    def __init__(self, engine: Engine, name: str = ""):
        super().__init__(engine, capacity=1, name=name)
        self.busy_time = 0.0

    def use(self, duration: float) -> Generator:
        yield from self.acquire()
        start = self.engine.now
        try:
            yield Delay(duration)
        finally:
            self.busy_time += self.engine.now - start
            self.release()
