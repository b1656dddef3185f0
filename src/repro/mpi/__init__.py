"""The simulated MPI library.

Two configurations of the same library reproduce the paper's comparison:

- ``MPIConfig.baseline()`` models MVAPICH2-0.9.5 / stock MPICH2: a
  single-context datatype engine (section 3.1), the ring algorithm for
  large-total ``Allgatherv`` (section 3.2), and round-robin ``Alltoallw``
  that sends zero-byte messages and processes peers in rank order,
- ``MPIConfig.optimized()`` models the paper's modified stack
  ("MVAPICH2-New"): the dual-context look-ahead engine (section 4.1),
  outlier-detecting adaptive ``Allgatherv`` (section 4.2.1) and binned
  ``Alltoallw`` (section 4.2.2).

User code is a per-rank generator that receives a rank-bound :class:`Comm`;
see :class:`repro.mpi.comm.Cluster`.
"""

from repro.mpi.config import MPIConfig
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Cluster, Comm, MPIError, TruncationError
from repro.mpi.errors import (
    CommRevokedError,
    FaultToleranceError,
    RankFailedError,
    TransportError,
)
from repro.mpi.request import Request, Status
from repro.mpi.io import File
from repro.mpi.rma import Win
from repro.mpi.trace import MessageTrace
from repro.mpi.pack import mpi_pack, mpi_unpack, pack_size

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Cluster",
    "Comm",
    "CommRevokedError",
    "FaultToleranceError",
    "File",
    "RankFailedError",
    "TransportError",
    "MessageTrace",
    "MPIConfig",
    "MPIError",
    "Request",
    "Status",
    "TruncationError",
    "Win",
    "mpi_pack",
    "mpi_unpack",
    "pack_size",
]
