"""Collective communication algorithms.

Every module registers its candidate implementations with
:data:`repro.mpi.algorithms.REGISTRY`; *which* one a call gets is decided
by the configuration's selection policy
(:mod:`repro.mpi.algorithms.policies`), not inline in these modules.

- :mod:`repro.mpi.collectives.basic` -- barrier (dissemination), bcast
  (binomial tree), allreduce (recursive doubling), gather -- the
  control-plane operations PETSc needs,
- :mod:`repro.mpi.collectives.allgatherv` -- ring, recursive-doubling and
  dissemination candidates; the paper's adaptive outlier-detecting rule
  (section 4.2.1) lives in the ``adaptive`` selection policy,
- :mod:`repro.mpi.collectives.alltoallw` -- round-robin baseline and the
  paper's three-bin variant (section 4.2.2),
- :mod:`repro.mpi.collectives.gather` / ``reduce`` -- the uniform-volume
  and reduction counterparts (linear gatherv/scatterv, pairwise alltoall,
  binomial reduce, recursive-doubling allreduce, doubling scan),
- :mod:`repro.mpi.collectives.sparse` -- the dense and NBX sparse
  dynamic data exchanges.

Every public entry function validates its arguments, builds its
:class:`~repro.mpi.algorithms.SelectionContext` and hands the call to
:func:`run`, the one dispatcher, which calls ``impl(comm, *args, base)``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.mpi.algorithms import REGISTRY, SelectionContext, select
from repro.mpi.comm import (Comm, CommRevokedError, RankFailedError,
                            TransportError, _COLLECTIVE_TAG_BASE)

#: ``run(solo=...)`` default: a size-1 call selects and runs an algorithm
_SELECT = object()


def _tag_window(comm: Comm, width: int = 64, op: str = "collective",
                detail: Any = None) -> int:
    """Reserve a tag range for one collective invocation.

    ``op`` names the collective (``"barrier"``, ``"bcast"``, ...) and
    ``detail`` carries call arguments that must agree across ranks (root,
    counts, ...).  Both are reported to cluster observers so the runtime
    verifier can check that every rank of the communicator entered the
    *same* collective, in the same order, with consistent arguments
    (rules COL001/COL002).
    """
    seq = getattr(comm, "_coll_seq", 0)
    comm._coll_seq = seq + 1
    if comm.cluster._observers:
        comm.cluster._notify("collective", comm.grank, comm.ctx, seq, op,
                             detail)
    return _COLLECTIVE_TAG_BASE + seq * width


def run(comm: Comm, collective: str, ctx: Optional[SelectionContext],
        args: Sequence[Any], detail: Any = None,
        algorithm: Optional[str] = None, solo: Any = _SELECT,
        **span_attrs: Any) -> Generator:
    """Select and run one collective call: the one dispatcher.

    In order: :func:`select` the algorithm (``ctx`` None means the
    control-plane context of ``comm``; ``algorithm`` forces one), reserve
    the call's tag window reporting ``detail`` (called with the selected
    algorithm's name when callable), charge the decision's detection cost,
    open the ``collective`` span (``span_attrs`` plus ``algorithm`` and
    ``policy``), and return ``impl(comm, *args, base)``, failing fast as
    :meth:`Comm._fail_fast` does.  A size-1 call given a ``solo`` result
    returns it without selecting anything.
    """
    if solo is not _SELECT and comm.size == 1:
        return solo
    decision = select(comm, collective, ctx, algorithm=algorithm)
    if callable(detail):
        detail = detail(decision.algorithm)
    base = _tag_window(comm, op=collective, detail=detail)
    impl = REGISTRY.implementation(collective, decision.algorithm)
    try:
        if decision.detect_seconds:
            # e.g. the paper's linear-time Floyd-Rivest outlier pass
            yield from comm.cpu(decision.detect_seconds, "compute")
        with comm.cluster.profiler.span(
                "collective", collective, comm.grank, **span_attrs,
                algorithm=decision.algorithm, policy=decision.policy):
            result = yield from impl(comm, *args, base)
    except (RankFailedError, TransportError, CommRevokedError) as exc:
        raise comm._uniform_failure(exc) from None
    return result
