"""Collective communication algorithms.

Every module registers its candidate implementations with
:data:`repro.mpi.algorithms.REGISTRY`; *which* one a call gets is decided
by one function, :func:`repro.mpi.algorithms.decide`, under the
configuration's flags, not inline in these modules.

- :mod:`repro.mpi.collectives.basic` -- barrier (dissemination), bcast
  (binomial tree), allreduce (recursive doubling), gather -- the
  control-plane operations PETSc needs,
- :mod:`repro.mpi.collectives.allgatherv` -- ring, recursive-doubling and
  dissemination candidates; the paper's adaptive outlier-detecting rule
  (section 4.2.1) lives in :func:`~repro.mpi.algorithms.decide`,
- :mod:`repro.mpi.collectives.alltoallw` -- round-robin baseline and the
  paper's three-bin variant (section 4.2.2),
- :mod:`repro.mpi.collectives.gather` / ``reduce`` -- the uniform-volume
  and reduction counterparts (linear gatherv/scatterv, pairwise alltoall,
  binomial reduce, recursive-doubling allreduce, doubling scan),
- :mod:`repro.mpi.collectives.sparse` -- the dense and NBX sparse
  dynamic data exchanges.

Every public entry function validates its arguments and hands the call
to :func:`run`, the one dispatcher, which calls ``impl(comm, *args,
base)``.  Collectives with more than one algorithm (allgatherv,
alltoallw, sparse_alltoall) pass a
:class:`~repro.mpi.algorithms.SelectionContext` of the call's volumes;
the others pass ``None``.
Every collective instance, registry or library exchange, opens through
:func:`instance`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from repro.mpi.algorithms import REGISTRY, SelectionContext, select
from repro.mpi.comm import (Comm, CommRevokedError, RankFailedError,
                            TransportError)

#: tags at or above this value are reserved for collective operations
_COLLECTIVE_TAG_BASE = 1_000_000

#: ``run(solo=...)`` default: a size-1 call selects and runs an algorithm
_SELECT = object()


def instance(comm: Comm, op: str, detail: Any,
             body: Callable[..., Generator], *args: Any) -> Generator:
    """Open one collective instance and return ``body(*args, base)``.

    The one way to open one: it reserves the instance's 64-tag window
    from ``base``; reports ``op`` and ``detail`` (call arguments that
    must agree across ranks: root, counts, ...) to cluster observers, so
    the runtime verifier can check that every rank entered the *same*
    collective, in the same order, with consistent arguments (rules
    COL001/COL002); and fails fast: the first rank to observe a peer
    failure revokes the context, releasing every rank blocked in the
    same instance, and every survivor raises the same
    :class:`RankFailedError` (or :class:`TransportError`) instead of
    deadlocking or seeing a different error.  On the fault-free path this
    adds no events and no yields.
    """
    seq = comm._coll_seq
    comm._coll_seq = seq + 1
    if comm.cluster._observers:
        comm.cluster._notify("collective", comm.grank, comm.ctx, seq, op,
                             detail)
    try:
        result = yield from body(*args, _COLLECTIVE_TAG_BASE + seq * 64)
    except (RankFailedError, TransportError, CommRevokedError) as exc:
        raise _uniform_failure(comm, exc) from None
    return result


def _uniform_failure(comm: Comm, exc: BaseException) -> BaseException:
    """The exception every rank raises for ``exc`` (see :func:`instance`);
    a first-hand failure revokes the context."""
    if isinstance(exc, CommRevokedError):
        if not isinstance(exc.cause, (RankFailedError, TransportError)):
            return exc
        exc = exc.cause
    else:
        comm.revoke(exc)
    if isinstance(exc, RankFailedError):
        return RankFailedError(exc.rank, exc.reason)
    return TransportError(exc.src, exc.dst, exc.tag, exc.attempts,
                          exc.reason)


def run(comm: Comm, collective: str, ctx: Optional[SelectionContext],
        args: Sequence[Any], detail: Any = None,
        algorithm: Optional[str] = None, solo: Any = _SELECT,
        **span_attrs: Any) -> Generator:
    """Select and run one collective call: the one dispatcher.

    :func:`select` the algorithm (``ctx`` None means the control-plane
    context of ``comm``; ``algorithm`` forces one), then open the call's
    :func:`instance` reporting ``detail`` (called with the selected
    algorithm's name when callable); in it, charge the decision's
    detection cost, open the ``collective`` span (``span_attrs`` plus
    ``algorithm`` and ``policy``) and run ``impl(comm, *args, base)``.
    A size-1 call given a ``solo`` result returns it without selecting
    anything.  Returns the generator to ``yield from``.
    """
    if solo is not _SELECT and comm.size == 1:
        return _returns(solo)
    decision = select(comm, collective, ctx, algorithm=algorithm)
    if callable(detail):
        detail = detail(decision.algorithm)
    impl = REGISTRY.implementation(collective, decision.algorithm)
    return instance(comm, collective, detail, _dispatch, comm, collective,
                    decision, impl, args, span_attrs)


def _dispatch(comm, collective, decision, impl, args, span_attrs,
              base) -> Generator:
    if decision.detect_seconds:
        # e.g. the paper's linear-time Floyd-Rivest outlier pass
        yield from comm.cpu(decision.detect_seconds, "compute")
    with comm.cluster.profiler.span(
            "collective", collective, comm.grank, **span_attrs,
            algorithm=decision.algorithm, policy=decision.policy):
        result = yield from impl(comm, *args, base)
    return result


def _returns(value: Any) -> Generator:
    return value
    yield  # pragma: no cover - makes this a generator
