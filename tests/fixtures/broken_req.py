"""Intentionally broken fixture: request-lifetime bugs (REQ1xx).

This module is *parsed* by ``tests/test_analyze_dataflow.py`` to pin the
analyzer's expected findings; it is never imported or executed.  The
``fixtures`` directory is excluded from tree-wide analyzer runs
(:func:`repro.analyze.dataflow.driver.iter_python_files`), so these
bugs do not pollute ``python -m repro.analyze tests``.

Expected: REQ101 (early return skips the wait), REQ102 (loop-carried
rebinding of a pending request), REQ103 (undriven blocking generator).
"""

import numpy as np


def leaks_on_one_path(comm, data):
    """REQ101: the early return skips the wait."""
    req = yield from comm.isend(data, 1)
    if comm.size > 2:
        return None
    yield from req.wait()
    return data


def rebinds_pending(comm, bufs):
    """REQ102: each loop iteration rebinds ``req`` while the previous
    iteration's receive is still pending; only the last one is waited."""
    req = None
    for peer, buf in enumerate(bufs):
        req = comm.irecv(buf, peer)
    yield from req.wait()


def drops_generator(comm):
    """REQ103: a blocking-communication generator that is never driven
    (the ``yield from`` is missing, so no rank ever reaches the barrier)."""
    pending = comm.barrier()
    result = yield from comm.allreduce(1.0)
    return result
