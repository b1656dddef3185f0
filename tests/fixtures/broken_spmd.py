"""Intentionally broken fixture: SPMD rank-divergence bugs (SPMD1xx).

Parsed (never executed) by ``tests/test_analyze_dataflow.py``; see
``broken_req.py`` for why this directory is excluded from tree scans.

Expected: SPMD101 (collective under a rank-dependent branch) and
SPMD102 (rank-dependent early exit ahead of a collective).
"""

import numpy as np


def collective_under_rank_branch(comm):
    """SPMD101: only rank 0 enters the barrier -- everyone else runs
    straight past it, so rank 0 hangs forever."""
    if comm.rank == 0:
        yield from comm.barrier()
    return comm.rank


def early_exit_before_collective(comm, data):
    """SPMD102: ranks with nothing to contribute return before the
    allreduce; the remaining ranks block in it forever."""
    if comm.rank % 2 == 1:
        return None
    total = yield from comm.allreduce(float(len(data)))
    return total
