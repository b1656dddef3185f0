"""repro: a laptop-scale reproduction of "Nonuniformly Communicating
Noncontiguous Data: A Case Study with PETSc and MPI" (Balaji et al.,
IPDPS 2007).

Layers (see README.md and DESIGN.md):

- :mod:`repro.simtime` -- deterministic discrete-event cluster simulator,
- :mod:`repro.datatypes` -- MPI derived datatypes and the two pack engines
  the paper compares (single-context vs dual-context look-ahead),
- :mod:`repro.mpi` -- the message-passing library: point-to-point,
  collectives (including the paper's adaptive Allgatherv and binned
  Alltoallw), communicators, RMA, MPI-IO, tracing,
- :mod:`repro.petsc` -- the PETSc-like toolkit (Vec/IS/VecScatter/DMDA/
  Mat/KSP/PC/MG),
- :mod:`repro.apps` -- the paper's evaluation workloads plus extensions,
- :mod:`repro.bench` -- the figure-regeneration harness
  (``python -m repro.bench``).
"""

__version__ = "1.0.0"
