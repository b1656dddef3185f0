"""Intentionally broken fixture: tag mismatch.

Run at 2-4 ranks under a :class:`~repro.analyze.RuntimeVerifier` by
``tests/test_analyze_runtime.py``; see ``broken_req.py`` for why this
directory is excluded from tree scans.

Expected: P2P001 (the tag-3 send is never received) and P2P002 (the
tag-7 receive is never satisfied) -- the two halves of one disagreement
about the message tag -- beside the hang they cause (DLK002).
"""

import numpy as np

PING_TAG = 3
PONG_TAG = 7


def tag_disagreement(comm):
    """Rank 0 sends with PING_TAG but rank 1 listens on PONG_TAG."""
    payload = np.arange(8, dtype=np.float64)
    if comm.rank == 0:
        yield from comm.send(payload, 1, tag=PING_TAG)
    elif comm.rank == 1:
        inbox = np.zeros(8, dtype=np.float64)
        yield from comm.recv(inbox, source=0, tag=PONG_TAG)
