"""Fixture: cross-function request hand-off and rank-tainted helpers.

Parsed (never executed) by ``tests/test_analyze_interproc.py`` to pin
the interprocedural summaries.  The ``fixtures`` directory is excluded
from tree-wide analyzer runs.

Expected findings (whole module, interprocedural):

- REQ101 at ``caller_drops_handed_off_request`` -- the helper *returns*
  the pending request, so the wait obligation transfers to the caller,
  which never discharges it.
- SPMD101 at ``caller_of_rank_tainted_helper`` -- the helper's return
  value is rank-dependent, and guards a collective.

Everything else is clean *only because* summaries propagate across
function boundaries: a per-function analysis would flag
``start_send``'s returned request and miss both real bugs.
"""


def start_send(comm, data):
    """Helper: creates and *returns* a pending request (clean here --
    the caller adopts the wait obligation)."""
    req = yield from comm.isend(data, 1)
    return req


def finish(req):
    """Helper: waits a request passed in by the caller."""
    yield from req.wait()


def finish_via_keyword(*, request):
    """Same, with the request arriving as a keyword argument."""
    yield from request.wait()


def caller_waits_handed_off_request(comm, data):
    """Clean: request created in the helper, waited here."""
    req = yield from start_send(comm, data)
    yield from req.wait()


def caller_delegates_wait(comm, data):
    """Clean: creation *and* completion both happen in helpers."""
    req = yield from start_send(comm, data)
    yield from finish(req)


def caller_delegates_wait_by_keyword(comm, data):
    """Clean: the waiting helper receives the request as a keyword."""
    req = yield from start_send(comm, data)
    yield from finish_via_keyword(request=req)


def caller_drops_handed_off_request(comm, data):
    """REQ101: the helper's pending request is adopted, then leaked."""
    req = yield from start_send(comm, data)
    return comm.rank


def rank_parity(comm):
    """Helper: returns a rank-dependent value (taints callers)."""
    return comm.rank % 2


def caller_of_rank_tainted_helper(comm):
    """SPMD101: only even ranks reach the barrier, via the helper."""
    if rank_parity(comm) == 0:
        yield from comm.barrier()
