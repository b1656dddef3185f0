"""Clean fixture: near-miss siblings of the ``broken_proto_*.py`` bugs.

Run at 2-4 ranks, at the default eager threshold and at 0, under a
:class:`~repro.analyze.RuntimeVerifier` by
``tests/test_analyze_runtime.py``.  Each function is one edit away from
its broken twin, and every run must finish with no actionable finding.
"""

import numpy as np

from repro.datatypes import DOUBLE, Vector

PING_TAG = 3


def ring_shift_sendrecv(comm):
    """Deadlock near-miss: the same ring shift as the deadlock fixture,
    expressed as the deadlock-free pairwise exchange."""
    outgoing = np.zeros(4, dtype=np.float64)
    incoming = np.zeros(4, dtype=np.float64)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.sendrecv(outgoing, right, incoming, left)
    return incoming


def ring_shift_parity_ordered(comm):
    """Deadlock near-miss: blocking ring shift, made safe by ordering the
    blocking calls on send-first/receive-first parity classes."""
    outgoing = np.zeros(4, dtype=np.float64)
    incoming = np.zeros(4, dtype=np.float64)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    if comm.rank % 2 == 0:
        yield from comm.send(outgoing, right)
        yield from comm.recv(incoming, source=left)
    else:
        yield from comm.recv(incoming, source=left)
        yield from comm.send(outgoing, right)
    return incoming


def tag_agreement(comm):
    """Tag near-miss: both endpoints agree on PING_TAG."""
    payload = np.arange(8, dtype=np.float64)
    if comm.rank == 0:
        yield from comm.send(payload, 1, tag=PING_TAG)
    elif comm.rank == 1:
        inbox = np.zeros(8, dtype=np.float64)
        yield from comm.recv(inbox, source=0, tag=PING_TAG)


def exact_receive(comm):
    """Truncation near-miss: the receive holds exactly the sent volume."""
    if comm.rank == 0:
        outgoing = np.zeros(16, dtype=np.float64)
        yield from comm.send(outgoing, 1)
    elif comm.rank == 1:
        incoming = np.zeros(16, dtype=np.float64)
        yield from comm.recv(incoming, source=0)


def sufficient_strided_buffer(comm):
    """Buffer near-miss: the receive buffer spans the Vector's full
    200-byte extent, so the strided placement fits."""
    if comm.rank == 0:
        payload = np.zeros(4, dtype=np.float64)
        yield from comm.send(payload, 1, datatype=DOUBLE, count=4)
    elif comm.rank == 1:
        sparse = Vector(4, 1, 8, DOUBLE)
        spacious = np.zeros(25, dtype=np.float64)
        yield from comm.recv(spacious, source=0, datatype=sparse, count=1)


def agreed_root_bcast(comm):
    """Collective near-miss: both branches reach the same bcast root even
    though they compute it differently."""
    value = np.zeros(1, dtype=np.float64)
    root = 0
    if comm.rank == root:
        # both branches call a collective ...
        yield from comm.bcast(value, root=root)
    else:
        # ... on the same root
        yield from comm.bcast(None, root=0)
    return value


def nonblocking_exchange(comm):
    """Request-based exchange: isend/irecv pairs completed by one
    waitall -- matched, signature-compatible, deadlock-free."""
    from repro.mpi.request import Request

    outgoing = np.zeros(4, dtype=np.float64)
    incoming = np.zeros(4, dtype=np.float64)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    rreq = comm.irecv(incoming, source=left)
    sreq = yield from comm.isend(outgoing, right)
    yield from Request.waitall([rreq, sreq])
    return incoming
