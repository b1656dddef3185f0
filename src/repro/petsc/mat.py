"""Matrix-free stencil operators.

PETSc applications typically apply PDE operators through ghosted stencil
kernels rather than assembled matrices; every application here is a ghost
update (communication through ``VecScatter``) followed by a vectorised local
stencil (computation charged as flop time).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.petsc.dmda import DMDA
from repro.petsc.vec import PETScError, Vec


class Operator:
    """A linear operator on the vectors of one DMDA."""

    def mult(self, x: Vec, y: Vec) -> Generator:
        """y = A x"""
        raise NotImplementedError  # pragma: no cover - abstract

    def residual(self, b: Vec, x: Vec, r: Vec) -> Generator:
        """r = b - A x"""
        yield from self.mult(x, r)
        r.local *= -1.0
        r.local += b.local
        yield from r._flops(2.0)


class Laplacian(Operator):
    """The (2*ndim+1)-point negative Laplacian ``A = -lap`` on a DMDA with
    homogeneous Dirichlet boundaries.

    Grid spacing is ``1/dims[d]`` per dimension (unit domain, cell-centred);
    the boundary enters through reflected ghost values
    (:meth:`_apply_boundary`).
    """

    #: flops charged per grid point per application
    FLOPS_PER_POINT = 8

    def __init__(self, da: DMDA, backend: str = "datatype"):
        if da.dof != 1:
            raise PETScError("Laplacian expects one degree of freedom")
        if da.width < 1:
            raise PETScError("Laplacian needs a ghost ring (stencil_width >= 1)")
        self.da = da
        self.backend = backend
        self._lbuf = da.create_local_array()
        d = da.dims
        self.inv_h2 = tuple(
            (float(d[i]) ** 2 if d[i] > 1 else 0.0) for i in range(3)
        )
        self.diag = 2.0 * sum(self.inv_h2)

    def _apply_boundary(self, u: np.ndarray) -> None:
        """Reflective Dirichlet ghosts: u(-h/2) = -u(h/2) puts the zero
        exactly on the cell face, keeping the discretisation second order."""
        da = self.da
        lo, hi = da.owned_box()
        iz, iy, ix = da.interior_slices()[:3]
        interior = (iz, iy, ix)
        for d in range(3):
            if not self.inv_h2[d]:
                continue
            sl_ghost = list(interior)
            sl_mirror = list(interior)
            if lo[d] == 0:
                sl_ghost[d] = interior[d].start - 1
                sl_mirror[d] = interior[d].start
                u[tuple(sl_ghost)] = -u[tuple(sl_mirror)]
            if hi[d] == da.dims[d]:
                sl_ghost[d] = interior[d].stop
                sl_mirror[d] = interior[d].stop - 1
                u[tuple(sl_ghost)] = -u[tuple(sl_mirror)]

    def mult(self, x: Vec, y: Vec) -> Generator:
        da = self.da
        yield from da.global_to_local(x, self._lbuf, backend=self.backend)
        u = self._lbuf
        self._apply_boundary(u)
        core = u[da.interior_slices()]
        out = np.multiply(core, self.diag)
        iz, iy, ix = da.interior_slices()[:3]

        def shifted(dz, dy, dx):
            return u[
                slice(iz.start + dz, iz.stop + dz),
                slice(iy.start + dy, iy.stop + dy),
                slice(ix.start + dx, ix.stop + dx),
            ]

        kz, ky, kx = self.inv_h2
        if kz:
            out -= kz * (shifted(-1, 0, 0) + shifted(1, 0, 0))
        if ky:
            out -= ky * (shifted(0, -1, 0) + shifted(0, 1, 0))
        if kx:
            out -= kx * (shifted(0, 0, -1) + shifted(0, 0, 1))
        y.local[:] = out.reshape(-1)
        yield from self.da.comm.cpu(
            out.size * self.da.comm.cost.flop * self.FLOPS_PER_POINT
        )
