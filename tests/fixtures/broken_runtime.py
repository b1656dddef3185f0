"""Intentionally broken fixture: the runtime verifier's four bug programs.

``tests/test_analyze_runtime.py`` imports these rank programs and runs
each under a :class:`~repro.analyze.RuntimeVerifier`, which must report
its bug exactly once.  Their static twins are found too, which is why
they live here: the ``fixtures`` directory is excluded from tree-wide
analyzer runs.

Static findings when this file is analyzed by name: REQ101
(``broken_leaked_request``) and SPMD101 twice
(``broken_mismatched_collective``, one per branch).  The signature
mismatch and the deadlock cycle show only when run.

Run as a script it executes ``broken_deadlock_cycle`` on two ranks, so
``python -m repro.analyze --run tests/fixtures/broken_runtime.py`` must
exit 1 and report DLK001.
"""

import numpy as np


def broken_signature_mismatch(comm):
    """Rank 0 sends doubles; rank 1 receives into int32 -- a signature
    mismatch that real MPI silently reinterprets into garbage."""
    if comm.rank == 0:
        yield from comm.send(np.arange(4, dtype=np.float64), 1)
    else:
        buf = np.zeros(8, dtype=np.int32)
        yield from comm.recv(buf, 0)


def broken_deadlock_cycle(comm):
    """Both ranks recv before they send: the classic head-to-head
    blocking-receive deadlock."""
    buf = np.zeros(4, dtype=np.float64)
    other = 1 - comm.rank
    yield from comm.recv(buf, other)
    yield from comm.send(buf, other)


def broken_leaked_request(comm):
    """Rank 0 posts a nonblocking send and never completes it."""
    if comm.rank == 0:
        req = yield from comm.isend(np.arange(4, dtype=np.float64), 1)
        assert not req.waited
        yield from comm.barrier()
    else:
        buf = np.zeros(4, dtype=np.float64)
        req = comm.irecv(buf, 0)
        yield from req.wait()
        yield from comm.barrier()


def broken_mismatched_collective(comm):
    """Rank 0 enters a bcast while rank 1 enters a barrier: a collective
    call-order mismatch across the communicator."""
    buf = np.zeros(1, dtype=np.float64)
    if comm.rank == 0:
        yield from comm.bcast(buf, root=0)
    else:
        yield from comm.barrier()


if __name__ == "__main__":
    from repro.mpi import Cluster

    Cluster(2).run(broken_deadlock_cycle)
