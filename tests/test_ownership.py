"""Ownership guard: one module owns each piece of shared MPI machinery.

- Only ``repro/mpi/comm.py`` touches the cluster's matching queues (the
  posted receives, the unexpected sends, the probe waiters and their
  records); everything else reads pending operations through
  ``Cluster.pending`` and blocks in a probe through ``Comm._wait_probe``.
- Only ``repro/mpi/collectives/`` opens a collective instance: every
  registry collective and every library exchange (``Vec`` cached
  assembly, the hand-tuned ``VecScatter``, MPI-IO two-phase) goes through
  ``repro.mpi.collectives.instance``, which reserves the tag window,
  reports the instance and fails fast.  A hand-rolled call setup would
  name one of the names below.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: name pattern -> the only path (relative to ``src``) allowed to use it
OWNERS = {
    r"\b_fail_fast\b": "repro/mpi/comm.py",
    r"\b_probe_waiters\b": "repro/mpi/comm.py",
    r"\b_RecvRecord\b": "repro/mpi/comm.py",
    r"\._posted\b": "repro/mpi/comm.py",
    r"\._unexpected\b": "repro/mpi/comm.py",
    r"\b_tag_window\b": "repro/mpi/collectives/",
}


def test_matching_queues_and_instance_setup_stay_with_their_owners():
    trespass, scanned = [], set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        scanned.add(rel)
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for pattern, owner in OWNERS.items():
                if not rel.startswith(owner) and re.search(pattern, line):
                    trespass.append(f"{rel}:{lineno}: {line.strip()}")
    assert "repro/mpi/comm.py" in scanned  # an empty scan passes vacuously
    assert not trespass, "\n".join(trespass)
