"""Intentionally broken fixture: truncation and an undersized buffer.

Run at 2-4 ranks under a :class:`~repro.analyze.RuntimeVerifier` by
``tests/test_analyze_runtime.py``; see ``broken_req.py`` for why this
directory is excluded from tree scans.

Expected --

- ``truncating_receive``: SIG002, the send is longer than the receive
  (16 doubles into 8), and the receive raises ``TruncationError``;
- ``short_receive_buffer``: the endpoints' signatures agree, but the
  receive buffer cannot hold one copy of its sparse Vector datatype, so
  posting the receive raises ``DatatypeError("buffer too small: ...")``.
"""

import numpy as np

from repro.datatypes import DOUBLE, Vector


def truncating_receive(comm):
    """Rank 0 sends 16 doubles into an 8-double receive."""
    if comm.rank == 0:
        big = np.zeros(16, dtype=np.float64)
        yield from comm.send(big, 1)
    elif comm.rank == 1:
        small = np.zeros(8, dtype=np.float64)
        yield from comm.recv(small, source=0)


def short_receive_buffer(comm):
    """The strided Vector reaches 200 bytes into a 64-byte buffer."""
    if comm.rank == 0:
        payload = np.zeros(4, dtype=np.float64)
        yield from comm.send(payload, 1, datatype=DOUBLE, count=4)
    elif comm.rank == 1:
        sparse = Vector(4, 1, 8, DOUBLE)
        undersized = np.zeros(8, dtype=np.float64)
        yield from comm.recv(undersized, source=0, datatype=sparse, count=1)
