"""Request and Status objects for nonblocking operations."""

from __future__ import annotations

import warnings
from functools import partial
from typing import Any, Generator

from repro.mpi.errors import FaultToleranceError
from repro.simtime.engine import SimFuture


class Status:
    """Completion information of a receive (MPI_Status)."""

    __slots__ = ("source", "tag", "nbytes")

    def __init__(self, source: int, tag: int, nbytes: int):
        self.source = source
        self.tag = tag
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Status(source={self.source}, tag={self.tag}, nbytes={self.nbytes})"


class Request:
    """Handle for a pending nonblocking send or receive.

    ``yield from req.wait()`` blocks the calling process until completion and
    returns the :class:`Status` (receives) or ``None`` (sends).

    Every request must eventually be completed with :meth:`wait` (or observed
    with :meth:`test` until it reports completion).  A request that is
    garbage-collected without either is a *leaked request* -- real MPI would
    leak the internal operation state -- and triggers a
    :class:`ResourceWarning` plus a ``REQ001`` finding when a
    :class:`repro.analyze.runtime.RuntimeVerifier` is attached.
    """

    __slots__ = ("_future", "kind", "_waited", "_profiler", "_rank",
                 "msg_id", "__weakref__")

    def __init__(self, future: SimFuture, kind: str,
                 profiler: Any = None, rank: int = -1,
                 msg_id: int = None):
        self._future = future
        self.kind = kind
        self._waited = False
        #: optional repro.prof profiler (NULL_PROFILER or None when unprofiled)
        self._profiler = profiler
        self._rank = rank
        #: causal message id of the send this request completes (None for
        #: receives, whose message identity is only known at match time)
        self.msg_id = msg_id

    @property
    def done(self) -> bool:
        return self._future.done

    @property
    def waited(self) -> bool:
        """True once :meth:`wait` ran (or :meth:`test` observed completion)."""
        return self._waited

    def wait(self) -> Generator:
        self._waited = True
        prof = self._profiler
        if prof is not None and prof.enabled and not self._future.done:
            t0 = self._future.engine.now
            attrs = {} if self.msg_id is None else {"msg_id": self.msg_id}
            with prof.span("wait", "wait_" + self.kind, self._rank, **attrs):
                result = yield self._future
            prof.observe("repro_request_wait_seconds",
                         self._future.engine.now - t0)
        else:
            result = yield self._future
        return result

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check (``MPI_Test``): ``(done, result)``.

        Observing a completed request counts as having waited on it.
        """
        if not self._future.done:
            return False, None
        self._waited = True
        return True, self._future.value

    def __del__(self):  # pragma: no cover - exercised via gc in tests
        try:
            if self.kind in ("send", "recv") and not self._waited:
                # a request abandoned because its collective aborted on a
                # peer failure/revocation is not a programming error
                fut = self._future
                if (fut.done and fut._exception is not None
                        and isinstance(fut._exception, FaultToleranceError)):
                    return
                warnings.warn(
                    f"Request ({self.kind}) garbage-collected without "
                    "wait()/test(); nonblocking operations must be completed",
                    ResourceWarning,
                    stacklevel=2,
                )
        except Exception:
            pass  # interpreter shutdown: warning machinery may be gone

    @staticmethod
    def waitall(requests: list["Request"]) -> Generator:
        """Complete every request; returns their results in order."""
        results = []
        for req in requests:
            results.append((yield from req.wait()))
        return results

    @staticmethod
    def waitany(requests: list["Request"]) -> Generator:
        """Block until one request completes; returns ``(index, result)``.

        If several are already complete, the lowest index wins (like
        ``MPI_Waitany``).  The returned request is finished; the others are
        untouched and can be waited on later.
        """
        if not requests:
            raise ValueError("waitany of no requests")
        for i, req in enumerate(requests):
            if req.done:
                result = yield from req.wait()
                return i, result
        engine = requests[0]._future.engine
        winner = engine.future("waitany")

        def first_done(index: int, _fut: SimFuture) -> None:
            if not winner.done:
                winner.set_result(index)

        for i, req in enumerate(requests):
            req._future.add_done_callback(partial(first_done, i))
        index = yield winner
        result = yield from requests[index].wait()
        return index, result
