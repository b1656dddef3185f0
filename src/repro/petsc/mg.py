"""Geometric multigrid on a DMDA hierarchy (PETSc's ``PCMG``).

Builds a hierarchy of DMDAs by factor-2 cell-centred coarsening (100^3 ->
50^3 -> 25^3 for the paper's three-level application), with:

- **smoother**: damped Jacobi sweeps (each sweep is one ghosted operator
  application -- communication-heavy, like the real application),
- **restriction**: 2^ndim-cell averaging.  Each rank gathers the fine
  children of its coarse cells through a :class:`VecScatter` built once per
  level pair (``DMDA.box_gather_scatter``), so partitions never need to
  align between levels,
- **prolongation**: cell-centred (tri)linear interpolation; each rank
  gathers the coarse cells bordering its fine box, again through a scatter,
- **coarse solve**: unpreconditioned CG on the coarsest level.

Both levels share one process grid, so each transfer's requests are
per-dimension intervals over it, computed from ownership boundaries every
rank knows; a rank derives only its own stencil and the peers it meets.

Every inter-level transfer and every smoothing sweep funnels noncontiguous
subarray data through ``Alltoallw`` (datatype backend) or hand-tuned
point-to-point -- the communication mix whose cost the paper's Fig. 17
measures end to end.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from repro.mpi.comm import Comm
from repro.petsc.dmda import DMDA
from repro.petsc.ksp import CG, SolveResult
from repro.petsc.mat import Laplacian
from repro.petsc.vec import PETScError, Vec


class _Transfer:
    """Scatters and local geometry between one fine and one coarse level."""

    def __init__(self, fine: DMDA, coarse: DMDA, backend: str):
        self.backend = backend
        self.factor = tuple(fine.dims[d] // coarse.dims[d] for d in range(3))
        for d in range(3):
            if coarse.dims[d] * self.factor[d] != fine.dims[d] or self.factor[d] not in (1, 2):
                raise PETScError(
                    f"cannot coarsen dim {d}: {fine.dims[d]} -> {coarse.dims[d]}"
                )

        # --- restriction: gather the fine children of my coarse box (the
        # coarse ownership slabs scaled up, per dimension)
        self.restrict_scatter = fine.box_gather_scatter(
            [coarse._starts[d][:-1] * self.factor[d] for d in range(3)],
            [coarse._starts[d][1:] * self.factor[d] for d in range(3)])
        self.coarse_shape = coarse.local_shape  # coarse levels have dof 1
        self.fine_child_shape = tuple(c * f for c, f in zip(self.coarse_shape, self.factor))
        self.fine_child_buf = np.zeros(self.fine_child_shape).reshape(-1)

        # --- prolongation: gather the coarse cells around my fine box.  A
        # fine slab's halo runs from the low cell of its first fine cell to
        # the high cell of its last (both cell runs are nondecreasing)
        cells = [(fine._starts[d], self.factor[d], coarse.dims[d]) for d in range(3)]
        halo_lo = [_interp_cells(s[:-1], f, n)[0] for s, f, n in cells]
        halo_hi = [_interp_cells(s[1:] - 1, f, n)[1] + 1 for s, f, n in cells]
        self.prolong_scatter = coarse.box_gather_scatter(halo_lo, halo_hi)
        c = fine.proc_coord
        coarse_lo = [int(halo_lo[d][c[d]]) for d in range(3)]
        self._interp = _prolong_stencil(fine, coarse, self.factor, coarse_lo)
        self.coarse_halo_shape = tuple(int(halo_hi[d][c[d]]) - coarse_lo[d] for d in range(3))
        self.coarse_halo_buf = np.zeros(self.coarse_halo_shape).reshape(-1)

    # -- application -------------------------------------------------------------

    def restrict(self, r_fine: Vec, b_coarse: Vec) -> Generator:
        """b_coarse = average of the fine children of each coarse cell."""
        yield from self.restrict_scatter.scatter(
            r_fine.local, self.fine_child_buf, backend=self.backend
        )
        F = self.fine_child_buf.reshape(self.fine_child_shape)
        cz, cy, cx = self.coarse_shape
        fz, fy, fx = self.factor
        C = F.reshape(cz, fz, cy, fy, cx, fx).mean(axis=(1, 3, 5))
        b_coarse.local[:] = C.reshape(-1)
        yield from b_coarse._flops(float(fz * fy * fx))

    def prolong_add(self, x_coarse: Vec, x_fine: Vec) -> Generator:
        """x_fine += (tri)linear interpolation of x_coarse."""
        yield from self.prolong_scatter.scatter(
            x_coarse.local, self.coarse_halo_buf, backend=self.backend
        )
        E = self.coarse_halo_buf.reshape(self.coarse_halo_shape)
        # interpolate one dimension at a time (z, then y, then x)
        for axis, (lo_idx, hi_idx, w_hi) in enumerate(self._interp):
            lo = np.take(E, lo_idx, axis=axis)
            hi = np.take(E, hi_idx, axis=axis)
            shape = [1, 1, 1]
            shape[axis] = w_hi.size
            w = w_hi.reshape(shape)
            E = lo * (1.0 - w) + hi * w
        x_fine.local += E.reshape(-1)
        yield from x_fine._flops(6.0)


def _interp_cells(fi: np.ndarray, factor: int, ncoarse: int):
    """The coarse cells ``(lo_idx, hi_idx)`` that cell-centred
    interpolation reads for fine cells ``fi`` along one dimension; both are
    nondecreasing in ``fi``, and ``lo_idx <= hi_idx``."""
    if factor == 1:
        return fi, fi
    # -1 <= m_low <= ncoarse - 1, so each index needs clamping at one grid
    # edge only
    m_low = (fi - 1) // 2
    return np.maximum(m_low, 0), np.minimum(m_low + 1, ncoarse - 1)


def _prolong_stencil(fine: DMDA, coarse: DMDA, factor, halo_lo):
    """This rank's interpolation stencil ``(lo_idx, hi_idx, w_hi)`` per
    dimension, with indices relative to its coarse halo box, which starts
    at ``halo_lo``."""
    flo, fhi = fine.owned_box()
    interp = []
    for d in range(3):
        fi = np.arange(flo[d], fhi[d], dtype=np.int64)
        lo_idx, hi_idx = _interp_cells(fi, factor[d], coarse.dims[d])
        w_hi = np.where(fi % 2 == 0, 0.75, 0.25) if factor[d] == 2 else np.zeros(fi.size)
        interp.append((lo_idx - halo_lo[d], hi_idx - halo_lo[d], w_hi))
    return interp


class MGSolver:
    """Geometric multigrid for the DMDA Laplacian: V-cycles with damped
    Jacobi smoothing and a CG coarse solve (the paper's §5.5 stack).

    Use :meth:`solve` as a standalone solver (Richardson + V-cycle, the
    paper's application) or :meth:`pc_apply` as a preconditioner for CG.
    """

    def __init__(
        self,
        fine_da: DMDA,
        nlevels: int = 3,
        nu_pre: int = 2,
        nu_post: int = 2,
        omega: float = 6.0 / 7.0,
        backend: str = "datatype",
        coarse_rtol: float = 1e-2,
        coarse_maxits: int = 100,
    ):
        if nlevels < 1:
            raise PETScError("need at least one level")
        self.comm: Comm = fine_da.comm
        self.backend = backend
        self.nu_pre = nu_pre
        self.nu_post = nu_post
        self.omega = omega
        self.coarse_rtol = coarse_rtol
        self.coarse_maxits = coarse_maxits

        self.das: List[DMDA] = [fine_da]
        for _ in range(nlevels - 1):
            prev = self.das[-1]
            new_dims = []
            for d in range(3):
                if prev.dims[d] == 1:
                    new_dims.append(1)
                elif prev.dims[d] % 2 == 0:
                    new_dims.append(prev.dims[d] // 2)
                else:
                    raise PETScError(
                        f"cannot coarsen odd dimension {prev.dims[d]}; choose "
                        "grid sizes divisible by 2^(nlevels-1)"
                    )
            da = DMDA(
                self.comm,
                [new_dims[d] for d in range(3) if prev.dims[d] > 1] or [1],
                dof=1,
                stencil=prev.stencil,
                stencil_width=prev.width,
                proc_grid=prev.proc_grid,
            )
            self.das.append(da)
        self.ops: List[Laplacian] = [Laplacian(da, backend=backend) for da in self.das]
        self.transfers: List[_Transfer] = [
            _Transfer(self.das[l], self.das[l + 1], backend)
            for l in range(nlevels - 1)
        ]
        # work vectors per level (b, x, r)
        self._b = [da.create_global_vec() for da in self.das]
        self._x = [da.create_global_vec() for da in self.das]
        self._r = [da.create_global_vec() for da in self.das]

    @property
    def nlevels(self) -> int:
        return len(self.das)

    # -- components -------------------------------------------------------------

    def smooth(self, level: int, b: Vec, x: Vec, sweeps: int) -> Generator:
        """``sweeps`` damped Jacobi iterations at ``level``."""
        op = self.ops[level]
        r = self._r[level]
        scale = self.omega / op.diag
        for _ in range(sweeps):
            yield from op.residual(b, x, r)
            yield from x.axpy(scale, r)

    def vcycle(self, level: int, b: Vec, x: Vec) -> Generator:
        """One V-cycle starting at ``level`` (0 = finest)."""
        if level == self.nlevels - 1:
            yield from CG(
                self.ops[level], b, x,
                rtol=self.coarse_rtol, maxits=self.coarse_maxits,
            )
            return
        yield from self.smooth(level, b, x, self.nu_pre)
        op = self.ops[level]
        r = self._r[level]
        yield from op.residual(b, x, r)
        b_c = self._b[level + 1]
        x_c = self._x[level + 1]
        yield from self.transfers[level].restrict(r, b_c)
        yield from x_c.set(0.0)
        yield from self.vcycle(level + 1, b_c, x_c)
        yield from self.transfers[level].prolong_add(x_c, x)
        yield from self.smooth(level, b, x, self.nu_post)

    def pc_apply(self, r: Vec, z: Vec) -> Generator:
        """One V-cycle as a preconditioner: z ~= A^{-1} r (z starts at 0)."""
        yield from self.vcycle(0, r, z)

    # -- standalone solver ----------------------------------------------------------

    def solve(
        self,
        b: Vec,
        x: Vec,
        rtol: float = 1e-8,
        atol: float = 0.0,
        max_cycles: int = 100,
    ) -> Generator:
        """V-cycle iteration until the fine residual drops by ``rtol``."""
        op = self.ops[0]
        r = self._r[0]
        norms: List[float] = []
        target = None
        for cycle in range(max_cycles + 1):
            yield from op.residual(b, x, r)
            rnorm = yield from r.norm()
            norms.append(rnorm)
            if target is None:
                target = max(atol, rtol * rnorm)
            if rnorm <= target:
                return SolveResult(True, cycle, norms)
            if cycle == max_cycles:
                break
            yield from self.vcycle(0, b, x)
        return SolveResult(False, max_cycles, norms)
