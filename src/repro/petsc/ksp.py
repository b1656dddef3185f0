"""Krylov and relaxation solvers (PETSc's ``KSP``).

``CG`` is preconditioned conjugate gradients; ``Richardson`` is damped
stationary iteration (also the smoother building block).  Both are written
against the :class:`repro.petsc.mat.Operator` interface, and each iteration's
reductions (dots, norms) go through the simulated MPI allreduce -- solver
iteration count therefore translates into simulated communication rounds, as
it does in real PETSc runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from repro.petsc.mat import Operator
from repro.petsc.vec import PETScError, Vec
from repro.prof import NULL_PROFILER

#: a preconditioner is a generator function pc(residual_vec, z_vec) that
#: leaves M^{-1} r in z
Preconditioner = Callable[[Vec, Vec], Generator]


def _profiler_of(vec: Vec):
    """(profiler, global rank) for the cluster behind ``vec`` (null-safe)."""
    comm = getattr(vec, "comm", None)
    cluster = getattr(comm, "cluster", None)
    if cluster is None:
        return NULL_PROFILER, -1
    return cluster.profiler, comm.grank


@dataclass
class SolveResult:
    """Outcome of a solve."""

    converged: bool
    iterations: int
    residual_norms: List[float] = field(default_factory=list)

    def reduction(self) -> float:
        if len(self.residual_norms) < 2 or self.residual_norms[0] == 0:
            return 1.0
        return self.residual_norms[-1] / self.residual_norms[0]


def CG(
    op: Operator,
    b: Vec,
    x: Vec,
    rtol: float = 1e-8,
    atol: float = 0.0,
    maxits: int = 1000,
    pc: Optional[Preconditioner] = None,
    checkpoint: Optional[Any] = None,
) -> Generator:
    """Preconditioned conjugate gradients; solution accumulates into ``x``.

    Returns a :class:`SolveResult`.  The preconditioner must be symmetric
    positive definite (a multigrid V-cycle with symmetric smoothing
    qualifies).

    ``checkpoint`` (a :class:`repro.petsc.checkpoint.SolverCheckpoint`)
    periodically replicates the iterate so a rank failure mid-solve can be
    recovered by shrinking the communicator and restarting warm from the
    last checkpoint; see :mod:`repro.petsc.checkpoint`.
    """
    if maxits < 0 or rtol < 0 or atol < 0:
        raise PETScError("negative tolerance or iteration limit")
    r = b.duplicate()
    z = b.duplicate()
    p = b.duplicate()
    Ap = b.duplicate()

    yield from op.residual(b, x, r)
    norms: List[float] = []
    rnorm = yield from r.norm()
    norms.append(rnorm)
    target = max(atol, rtol * rnorm)
    if rnorm <= target:
        return SolveResult(True, 0, norms)

    if pc is None:
        z.copy_from(r)
    else:
        yield from z.set(0.0)
        yield from pc(r, z)
    p.copy_from(z)
    rz = yield from r.dot(z)

    prof, grank = _profiler_of(b)
    for it in range(1, maxits + 1):
        with prof.span("solver", "ksp_iteration", grank, method="cg", it=it):
            if prof.enabled:
                prof.count("repro_ksp_iterations_total",
                           labels={"method": "cg"})
            yield from op.mult(p, Ap)
            pAp = yield from p.dot(Ap)
            if pAp <= 0:
                raise PETScError(
                    f"operator not positive definite: p.Ap = {pAp} at "
                    f"iteration {it}"
                )
            alpha = rz / pAp
            yield from x.axpy(alpha, p)
            yield from r.axpy(-alpha, Ap)
            rnorm = yield from r.norm()
            norms.append(rnorm)
            if rnorm <= target:
                return SolveResult(True, it, norms)
            if checkpoint is not None:
                yield from checkpoint.maybe_save(x, it)
            if pc is None:
                z.copy_from(r)
            else:
                yield from z.set(0.0)
                yield from pc(r, z)
            rz_new = yield from r.dot(z)
            beta = rz_new / rz
            rz = rz_new
            yield from p.aypx(beta, z)
    return SolveResult(False, maxits, norms)


def Richardson(
    op: Operator,
    b: Vec,
    x: Vec,
    omega: float = 1.0,
    rtol: float = 1e-8,
    atol: float = 0.0,
    maxits: int = 1000,
    pc: Optional[Preconditioner] = None,
) -> Generator:
    """Damped (preconditioned) Richardson iteration:
    ``x += omega * M^{-1} (b - A x)``.

    With ``pc`` set to a V-cycle this is the classic "multigrid as a solver"
    loop the paper's application runs.
    """
    if maxits < 0:
        raise PETScError("negative iteration limit")
    r = b.duplicate()
    z = b.duplicate()
    norms: List[float] = []
    prof, grank = _profiler_of(b)
    for it in range(maxits + 1):
        with prof.span("solver", "ksp_iteration", grank,
                       method="richardson", it=it):
            if prof.enabled and it > 0:
                prof.count("repro_ksp_iterations_total",
                           labels={"method": "richardson"})
            yield from op.residual(b, x, r)
            rnorm = yield from r.norm()
            norms.append(rnorm)
            if it == 0:
                target = max(atol, rtol * rnorm)
            if rnorm <= target:
                return SolveResult(True, it, norms)
            if it == maxits:
                break
            if pc is None:
                z.copy_from(r)
            else:
                yield from z.set(0.0)
                yield from pc(r, z)
            yield from x.axpy(omega, z)
    return SolveResult(False, maxits, norms)
