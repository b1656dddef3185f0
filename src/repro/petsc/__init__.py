"""A PETSc-like toolkit on top of the simulated MPI library.

Implements the abstractions the paper's evaluation exercises (section 2):

- :mod:`repro.petsc.vec` -- distributed vectors (``Vec``) and ownership
  layouts,
- :mod:`repro.petsc.indexset` -- index sets (``IS``): general and strided,
- :mod:`repro.petsc.scatter` -- ``VecScatter`` with the paper's three
  communication paths: *hand-tuned* explicit pack + point-to-point (PETSc's
  default), and *MPI datatypes + collectives* (``Alltoallw`` with
  ``Indexed`` types) running over either the baseline or the optimised MPI
  configuration,
- :mod:`repro.petsc.dmda` -- distributed structured-grid arrays (``DMDA``)
  in 1/2/3-D with star/box stencils, interlaced dof and ghost updates,
- :mod:`repro.petsc.mat` -- matrix-free stencil operators (Laplacian),
- :mod:`repro.petsc.ksp` -- Krylov/relaxation solvers (CG, Richardson),
- :mod:`repro.petsc.mg` -- geometric multigrid (the 3-D Laplacian solver
  application of section 5.5 builds on this).
"""

from repro.petsc.commplan import CommPlan
from repro.petsc.vec import Layout, PETScError, PlanMismatchError, Vec
from repro.petsc.indexset import IS, GeneralIS, StrideIS
from repro.petsc.scatter import VecScatter
from repro.petsc.dmda import DMDA
from repro.petsc.mat import Laplacian, Operator
from repro.petsc.aij import AIJMat
from repro.petsc.checkpoint import SolverCheckpoint
from repro.petsc.ksp import CG, Richardson, SolveResult
from repro.petsc.pc import BlockJacobiPC, JacobiPC
from repro.petsc.mg import MGSolver

__all__ = [
    "AIJMat",
    "BlockJacobiPC",
    "CG",
    "CommPlan",
    "DMDA",
    "IS",
    "GeneralIS",
    "JacobiPC",
    "Laplacian",
    "Layout",
    "MGSolver",
    "Operator",
    "PETScError",
    "PlanMismatchError",
    "Richardson",
    "SolveResult",
    "SolverCheckpoint",
    "StrideIS",
    "Vec",
    "VecScatter",
]
