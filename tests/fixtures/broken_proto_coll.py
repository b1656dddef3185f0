"""Intentionally broken fixture: collective divergence.

Run at 2-4 ranks under a :class:`~repro.analyze.RuntimeVerifier` by
``tests/test_analyze_runtime.py``; see ``broken_req.py`` for why this
directory is excluded from tree scans.

Expected: COL002 -- every rank reaches a ``bcast``, but they disagree
on the root argument (rank 0 nominates itself, everyone else nominates
rank 1).  The two broadcast trees cross in one collective instance: a
message goes unreceived (P2P001) and the run cannot finish (DLK002).
SPMD101 cannot see this: each branch *does* contain a collective.
"""

import numpy as np


def root_divergent_bcast(comm):
    """Ranks disagree about who broadcasts."""
    value = np.zeros(1, dtype=np.float64)
    if comm.rank == 0:
        # both branches call a collective, so SPMD101 stays silent ...
        yield from comm.bcast(value, root=0)
    else:
        # ... but on a different root
        yield from comm.bcast(None, root=1)
    return value
