"""Discrete-event engine with generator-based processes.

A *process* is a Python generator.  It advances by yielding one of:

- :class:`Delay` -- resume after a fixed amount of simulated time,
- :class:`SimFuture` -- resume when the future is resolved; the ``yield``
  expression evaluates to the future's value,
- another :class:`SimProcess` -- resume when that process terminates; the
  ``yield`` evaluates to its return value (exceptions propagate).

Subroutines compose with ``yield from`` and return values through
``return`` / ``StopIteration`` as usual, which lets the higher layers (MPI,
PETSc) be written in a direct blocking style::

    def worker(comm):
        data = yield from comm.recv(source=0, tag=7)
        yield Delay(1e-6)           # charge some CPU time
        yield from comm.send(data, dest=2, tag=7)

The engine is fully deterministic: events at equal timestamps fire in the
order they were scheduled.

What one event costs the host is kept small by three conventions that
docs/INTERNALS.md ("Host-time hot path") spells out: closure-free heap
entries, waiters parked in callback lists themselves, and lazy names.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional, Union

#: a name, or lazy ``(format, *args)`` parts rendered as ``format % args``
Name = Union[str, tuple]


def _render(name: Name) -> str:
    return name[0] % name[1:] if type(name) is tuple else name


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class SimulationDeadlock(SimulationError):
    """Raised by :meth:`Engine.run` when live processes remain but no event
    can ever fire again (e.g. a receive whose matching send never happens).

    The message names every still-alive process and what it is blocked on;
    :attr:`blocked` carries the same data as ``(process_name, waiting_on)``
    pairs so harnesses (e.g. ``repro.faults.chaos``) can assert on it.
    """

    def __init__(self, message: str, blocked: Optional[list] = None):
        super().__init__(message)
        #: ``[(process_name, description_of_wait_target), ...]``
        self.blocked: list = blocked or []


class Delay:
    """Yieldable command: resume the process after ``duration`` sim-seconds.

    A negative duration is an error; zero is allowed and schedules the
    resumption at the current time (after already-queued events at that time).
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"negative delay: {duration!r}")
        self.duration = float(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration!r})"


class SimFuture:
    """A one-shot container for a value produced at some simulated time.

    Processes wait on a future by yielding it.  Multiple processes may wait
    on the same future; all are resumed (in wait order) when it resolves.
    """

    __slots__ = ("engine", "_value", "_exception", "_done", "_callbacks",
                 "_name", "_cancelled")

    def __init__(self, engine: "Engine", name: Name = ""):
        self.engine = engine
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._done = False
        #: waiting :class:`SimProcess` objects (resumed through the heap)
        #: and plain ``cb(future)`` callables, in order; allocated on demand
        self._callbacks: Optional[list] = None
        self._name = name
        self._cancelled = False

    @property
    def name(self) -> str:
        return _render(self._name)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` resolved this future before its event."""
        return self._cancelled

    def cancel(self) -> bool:
        """Resolve the future *now* with ``None`` and mark it cancelled.

        Used to abandon races (e.g. a retransmit timer whose ack arrived
        first).  Safe against the original event firing later: timers
        created by :meth:`Engine.timeout` guard their heap entry with a
        ``done`` check, so nothing resolves twice.  Returns False if the
        future had already resolved.
        """
        if self._done:
            return False
        self._cancelled = True
        self.set_result(None)
        return True

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"future {self.name!r} not resolved")
        if self._exception is not None:
            raise self._exception
        return self._value

    def set_result(self, value: Any = None) -> None:
        """Resolve the future immediately (at the current simulated time)."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        if self._callbacks is not None:
            self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exception = exc
        if self._callbacks is not None:
            self._fire()

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        engine = self.engine
        for cb in callbacks:
            if type(cb) is SimProcess:
                engine._wake(cb, self._value, self._exception)
            else:
                cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        if self._done:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def _set_if_pending(self, _source: Any = None) -> None:
        """Resolve with ``None`` unless resolved: :meth:`Engine.timeout`'s
        heap entry and, as a done-callback, the wake-up of a first-of race."""
        if not self._done:
            self.set_result(None)


class SimProcess:
    """A running generator, driven by the engine.

    Yielding a ``SimProcess`` from another process joins it.  The process'
    return value is available as :attr:`result` once :attr:`done`.
    """

    __slots__ = ("engine", "gen", "_name", "done", "result", "_exception",
                 "_waiters", "_blocked_on")

    def __init__(self, engine: "Engine", gen: Generator, name: Name = ""):
        self.engine = engine
        self.gen = gen
        self._name = name
        self.done = False
        self.result: Any = None
        self._exception: Optional[BaseException] = None
        #: joiners, by the convention of ``SimFuture._callbacks``
        self._waiters: list = []
        #: what the process is currently suspended on (SimFuture, SimProcess
        #: or None for a Delay); read by the deadlock diagnostics
        self._blocked_on: Any = None

    @property
    def name(self) -> str:
        return _render(self._name)

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def add_done_callback(self, cb: Callable[["SimProcess"], None]) -> None:
        if self.done:
            cb(self)
        else:
            self._waiters.append(cb)

    def _finish(self, result: Any, exc: Optional[BaseException]) -> None:
        self.done = True
        self.result = result
        self._exception = exc
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            if type(cb) is SimProcess:
                self.engine._wake(cb, result, exc)
            else:
                cb(self)


class Engine:
    """The discrete-event scheduler.

    Typical use::

        eng = Engine()
        procs = [eng.spawn(worker(i)) for i in range(4)]
        eng.run()
        print(eng.now, [p.result for p in procs])
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(time, seq, fn, args)``; ``seq`` is unique, so ``fn`` and
        #: ``args`` are never compared
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._live: dict[SimProcess, None] = {}  # insertion-ordered set
        #: instrumentation counters (read by repro.prof; cheap to maintain)
        self.events_fired = 0
        self.processes_spawned = 0

    def live_processes(self) -> list[SimProcess]:
        """Processes spawned but not yet finished (spawn order)."""
        return list(self._live)

    # -- scheduling primitives ------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def future(self, name: Name = "") -> SimFuture:
        return SimFuture(self, name)

    def timeout(self, delay: float) -> SimFuture:
        """A future that resolves after ``delay`` sim-seconds.

        The future may be resolved earlier by the caller (``set_result`` /
        ``cancel``) without harm: the scheduled heap entry checks ``done``
        before firing, so a timer abandoned by a race (ack-before-timeout)
        never resolves twice.
        """
        fut = SimFuture(self, ("timeout(%s)", delay))
        self.schedule(delay, fut._set_if_pending)
        return fut

    # -- processes -------------------------------------------------------

    def spawn(self, gen: Generator, name: Name = "") -> SimProcess:
        """Register a generator as a process; it starts at the current time."""
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        proc = SimProcess(self, gen, name or getattr(gen, "__name__", "proc"))
        self._live[proc] = None
        self.processes_spawned += 1
        self._wake(proc, None, None)
        return proc

    def kill(self, proc: SimProcess, exc: Optional[BaseException] = None) -> bool:
        """Terminate ``proc`` immediately (simulated rank crash).

        Closes the underlying generator (``finally`` blocks run, releasing
        any held resources such as ports) and finishes the process with
        ``exc`` as its exception (or a plain ``None`` result when no
        exception is given).  Joiners are woken; a stale resume entry
        from whatever the process was blocked on becomes a no-op.  Returns
        False if the process had already finished.
        """
        if proc.done:
            return False
        try:
            proc.gen.close()
        except Exception:  # noqa: BLE001 - a dying rank must not kill the sim
            pass
        self._live.pop(proc, None)
        proc._blocked_on = None
        proc._finish(None, exc)
        return True

    def _wake(self, proc: SimProcess, value: Any,
              exc: Optional[BaseException]) -> None:
        # Resumptions are trampolined through the event heap (at the
        # current time) rather than run synchronously: long chains of
        # already-resolved futures would otherwise recurse arbitrarily deep
        # through set_result -> step -> set_result -> ...
        self._seq += 1
        heapq.heappush(self._heap,
                       (self.now, self._seq, self._step, (proc, value, exc)))

    def _step(self, proc: SimProcess, value: Any,
              exc: Optional[BaseException]) -> None:
        """Advance ``proc`` by one yield and park it on what it yielded."""
        if proc.done:
            return  # killed while a resume entry was in flight
        try:
            if exc is None:
                cmd = proc.gen.send(value)
            else:
                cmd = proc.gen.throw(exc)
        except StopIteration as stop:
            self._live.pop(proc, None)
            proc._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001 - propagated to joiners
            self._live.pop(proc, None)
            had_waiters = bool(proc._waiters)
            proc._finish(None, err)
            if not had_waiters:
                # nobody joined this process: abort the simulation loudly
                # rather than swallowing the error
                raise
            return
        kind = type(cmd)
        if kind is Delay:
            proc._blocked_on = None
            self._seq += 1
            heapq.heappush(self._heap, (self.now + cmd.duration, self._seq,
                                        self._step, (proc, None, None)))
        elif kind is SimFuture:
            proc._blocked_on = cmd
            if cmd._done:
                self._wake(proc, cmd._value, cmd._exception)
            elif cmd._callbacks is None:
                cmd._callbacks = [proc]
            else:
                cmd._callbacks.append(proc)
        elif kind is SimProcess:
            proc._blocked_on = cmd
            if cmd.done:
                self._wake(proc, cmd.result, cmd._exception)
            else:
                cmd._waiters.append(proc)
        else:
            proc._blocked_on = None
            self._wake(proc, None, SimulationError(
                f"process {proc.name!r} yielded {cmd!r}; expected Delay, "
                "SimFuture or SimProcess"
            ))

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event heap; return the final simulated time.

        Raises :class:`SimulationDeadlock` if processes remain alive with an
        empty heap (they are waiting on futures nobody will resolve).
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until  # stop the clock; the entry stays queued
                return self.now
            self.now, _seq, fn, args = pop(heap)
            self.events_fired += 1
            fn(*args)
        if self._live:
            blocked = [(p.name, _describe_wait(p._blocked_on))
                       for p in self._live]
            shown = blocked[:_DEADLOCK_DETAIL_LIMIT]
            details = "; ".join(f"{name!r} waiting on {what}"
                                for name, what in shown)
            if len(blocked) > len(shown):
                details += f"; ... and {len(blocked) - len(shown)} more"
            raise SimulationDeadlock(
                f"{len(blocked)} process(es) blocked forever at "
                f"t={self.now}: {details}",
                blocked=blocked,
            )
        return self.now

    def run_all(self, gens: Iterable[Generator], names: Optional[list[str]] = None) -> list[Any]:
        """Spawn every generator, run to completion, return their results."""
        gens = list(gens)
        names = names or [f"p{i}" for i in range(len(gens))]
        procs = [self.spawn(g, n) for g, n in zip(gens, names)]
        self.run()
        out = []
        for p in procs:
            if p._exception is not None:
                raise p._exception
            out.append(p.result)
        return out


#: cap on per-process detail in a SimulationDeadlock message
_DEADLOCK_DETAIL_LIMIT = 16


def _describe_wait(target: Any) -> str:
    """Human-readable description of what a process is suspended on."""
    if isinstance(target, SimFuture):
        return f"future {target.name!r}" if target.name else "an unnamed future"
    if isinstance(target, SimProcess):
        return f"process {target.name!r}"
    return "a pending event"
