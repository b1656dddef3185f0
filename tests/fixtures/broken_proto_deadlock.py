"""Intentionally broken fixture: a send/send deadlock under rendezvous.

Run at 2-4 ranks under a :class:`~repro.analyze.RuntimeVerifier` by
``tests/test_analyze_runtime.py``; see ``broken_req.py`` for why this
directory is excluded from tree scans.

Every rank issues a blocking send around the ring before posting its
receive.  At the default eager threshold the 32-byte sends are buffered
and the run finishes clean.  At ``eager_threshold=0`` no send can
complete until its matching receive is posted, and no receive is ever
posted: DLK001, the classic head-to-head cycle through every rank.
"""

import numpy as np


def ring_shift_send_first(comm):
    """Blocking send to the right neighbour, *then* receive from the
    left one -- a wait-for cycle covering every rank."""
    outgoing = np.zeros(4, dtype=np.float64)
    incoming = np.zeros(4, dtype=np.float64)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    yield from comm.send(outgoing, right)
    yield from comm.recv(incoming, source=left)
    return incoming
