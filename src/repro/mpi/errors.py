"""Fault-tolerance error types (ULFM-style failure semantics).

These are the exceptions the resilient runtime surfaces when a fault
cannot be masked by the transport:

- :class:`RankFailedError` -- a process crashed (``MPI_ERR_PROC_FAILED``).
  Fail-fast collectives guarantee the *same* ``RankFailedError`` (same
  failed rank) reaches every surviving rank of the communicator rather
  than leaving some ranks deadlocked.
- :class:`CommRevokedError` -- the communicator context was revoked
  (``MPI_ERR_REVOKED``): any operation posted on it afterwards fails
  immediately.  Revocation is how the first rank to observe a failure
  inside a collective releases everyone else.
- :class:`TransportError` -- the reliable transport exhausted its
  retransmit budget (peer unresponsive, persistent corruption, ...).

They live in their own dependency-free module so that both the MPI layer
(:mod:`repro.mpi.comm`) and the fault-injection subsystem
(:mod:`repro.faults`) can import them without cycles.  Recovery idioms
(``comm.shrink()``, ``comm.agree()``, checkpoint/restart) are documented
in ``docs/FAULTS.md``.
"""

from __future__ import annotations


class FaultToleranceError(RuntimeError):
    """Base class for failures surfaced by the resilient runtime."""


class RankFailedError(FaultToleranceError):
    """A rank crashed (or was declared dead by the failure detector).

    ``rank`` is the *cluster-global* rank of the failed process.
    """

    def __init__(self, rank: int, reason: str = "rank failure"):
        super().__init__(f"rank {rank} failed: {reason}")
        self.rank = rank
        self.reason = reason


class CommRevokedError(FaultToleranceError):
    """The communicator context was revoked (``MPI_Comm_revoke``).

    ``cause`` carries the exception that triggered the revocation when
    known (usually a :class:`RankFailedError` or :class:`TransportError`).
    """

    def __init__(self, ctx, cause: Exception | None = None):
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"communicator context {ctx!r} has been revoked{detail}")
        self.ctx = ctx
        self.cause = cause


class TransportError(FaultToleranceError):
    """The reliable transport gave up on a message.

    Raised on the sender (and delivered to a matched receiver) once
    ``repro.mpi.comm.MAX_RETRANSMITS`` attempts have failed to produce an
    acknowledged, checksum-clean delivery.
    """

    def __init__(self, src: int, dst: int, tag: int, attempts: int,
                 reason: str = "retransmit budget exhausted"):
        super().__init__(
            f"message {src}->{dst} tag={tag} undeliverable after "
            f"{attempts} attempt(s): {reason}"
        )
        self.src = src
        self.dst = dst
        self.tag = tag
        self.attempts = attempts
        self.reason = reason
