"""DMDA: distributed structured-grid arrays (PETSc's ``DMDA``).

A DMDA partitions a 1/2/3-D grid of points (each carrying ``dof`` interlaced
field values, section 2.1 of the paper) over a cartesian process grid, and
builds the ghost-point communication (Fig. 2) as a :class:`VecScatter`:

- the **global vector** stores each rank's owned box contiguously (PETSc
  ordering), x fastest, dof innermost,
- the **local array** is the owned box plus a ghost halo of ``stencil_width``
  points; ``global_to_local`` fills it (interior copy + neighbour exchange),
- **star stencils** exchange the 2*ndim face slabs; **box stencils** also
  exchange edges and corners (Fig. 3) -- with a box stencil the corner
  messages are much smaller than the face messages, which is precisely the
  nonuniform-volume pattern sections 3.2/4.2.2 analyse.

Everything is computed from the grid geometry every rank already knows, so
building a scatter requires no communication.

Internally all shapes are padded to 3-D ``(z, y, x)``; a 1-D grid is
``(1, 1, M)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.comm import Comm
from repro.petsc.scatter import VecScatter
from repro.petsc.vec import Layout, PETScError, Vec

Box = Tuple[Tuple[int, int, int], Tuple[int, int, int]]  # (lo, hi) half-open


def dims_create(nranks: int, ndim: int) -> List[int]:
    """Factor ``nranks`` into a balanced ``ndim``-dimensional process grid
    (like ``MPI_Dims_create``); larger factors go to later dimensions."""
    if nranks < 1 or not 1 <= ndim <= 3:
        raise PETScError(f"bad nranks={nranks} or ndim={ndim}")
    dims = [1] * ndim
    remaining = nranks
    factor = 2
    factors: List[int] = []
    while remaining > 1:
        while remaining % factor == 0:
            factors.append(factor)
            remaining //= factor
        factor += 1
    for f in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= f
    return sorted(dims)


def _split(n: int, parts: int) -> List[int]:
    """Balanced ownership sizes of ``n`` points over ``parts`` ranks."""
    base, rem = divmod(n, parts)
    return [base + (1 if p < rem else 0) for p in range(parts)]


class DMDA:
    """A distributed structured grid.

    Parameters
    ----------
    comm:
        rank-bound communicator,
    dims:
        grid points per dimension, e.g. ``(100, 100, 100)``; 1-3 entries
        ordered ``(M,)``, ``(N, M)`` or ``(P, N, M)`` with the *last* entry
        the contiguous (x) dimension,
    dof:
        interlaced field values per grid point,
    stencil:
        ``"star"`` or ``"box"``,
    stencil_width:
        ghost halo width.
    """

    def __init__(
        self,
        comm: Comm,
        dims: Sequence[int],
        dof: int = 1,
        stencil: str = "star",
        stencil_width: int = 1,
        proc_grid: Optional[Sequence[int]] = None,
    ):
        if stencil not in ("star", "box"):
            raise PETScError(f"stencil must be 'star' or 'box', got {stencil!r}")
        if dof < 1 or stencil_width < 0:
            raise PETScError("dof must be >= 1 and stencil_width >= 0")
        dims = [int(d) for d in dims]
        if not 1 <= len(dims) <= 3 or any(d < 1 for d in dims):
            raise PETScError(f"bad grid dims {dims}")
        self.comm = comm
        self.ndim = len(dims)
        self.dof = dof
        self.stencil = stencil
        self.width = stencil_width
        # pad to 3-D: (z, y, x)
        self.dims = tuple([1] * (3 - len(dims)) + dims)

        if proc_grid is None:
            pg = dims_create(comm.size, self.ndim)
            proc_grid = [1] * (3 - self.ndim) + pg
        else:
            proc_grid = [int(p) for p in proc_grid]
            proc_grid = [1] * (3 - len(proc_grid)) + proc_grid
        if int(np.prod(proc_grid)) != comm.size:
            raise PETScError(
                f"process grid {proc_grid} does not match {comm.size} ranks"
            )
        self.proc_grid = tuple(proc_grid)
        for d in range(3):
            if self.proc_grid[d] > self.dims[d]:
                raise PETScError(
                    f"more ranks than grid points in dim {d}: "
                    f"{self.proc_grid[d]} > {self.dims[d]}"
                )
        # per-dim ownership: starts[d][p] .. starts[d][p+1]
        self._sizes = [_split(self.dims[d], self.proc_grid[d]) for d in range(3)]
        self._starts = [
            np.concatenate(([0], np.cumsum(self._sizes[d]))).astype(np.int64)
            for d in range(3)
        ]
        if self.width > 0:
            min_local = min(min(s) for s in (self._sizes[d] for d in range(3)
                                             if self.proc_grid[d] > 1)) \
                if any(self.proc_grid[d] > 1 for d in range(3)) else self.width
            if min_local < self.width:
                raise PETScError(
                    f"stencil width {self.width} exceeds the smallest local "
                    f"size {min_local}; neighbour-only exchange would miss data"
                )

        # rank <-> process-grid coordinates (x fastest, PETSc ordering)
        pz, py, px = self.proc_grid
        r = comm.rank
        self.proc_coord = (r // (px * py), (r // px) % py, r % px)

        # global vector layout: one contiguous block per rank
        local_counts = []
        for rank in range(comm.size):
            c = self._coords_of(rank)
            n = 1
            for d in range(3):
                n *= self._sizes[d][c[d]]
            local_counts.append(n * dof)
        self.layout = Layout(comm.size, sum(local_counts), local_counts)

        self._g2l_scatter: Optional[VecScatter] = None

        # this rank's geometry never changes: the no-argument queries return it
        lo, hi = self._owned = self.owned_box(comm.rank)
        glo, _ = self._ghosted = self.ghosted_box(comm.rank)
        sl = tuple(slice(lo[d] - glo[d], hi[d] - glo[d]) for d in range(3))
        self._interior = sl + (slice(None),) if dof > 1 else sl

    # -- geometry ---------------------------------------------------------------

    def _coords_of(self, rank: int) -> Tuple[int, int, int]:
        pz, py, px = self.proc_grid
        return (rank // (px * py), (rank // px) % py, rank % px)

    def _rank_of(self, coords: Tuple[int, int, int]) -> int:
        pz, py, px = self.proc_grid
        cz, cy, cx = coords
        return (cz * py + cy) * px + cx

    def owned_box(self, rank: Optional[int] = None) -> Box:
        """Half-open natural-coordinate box ``(lo, hi)`` owned by ``rank``."""
        if rank is None:
            return self._owned
        c = self._coords_of(rank)
        lo = tuple(int(self._starts[d][c[d]]) for d in range(3))
        hi = tuple(int(self._starts[d][c[d] + 1]) for d in range(3))
        return lo, hi

    def ghosted_box(self, rank: Optional[int] = None) -> Box:
        """The owned box grown by the stencil width in every partitionable
        dimension -- *including* past the physical boundary.

        Out-of-domain ghost cells exist in the local array but are never
        written by an exchange; since local arrays start zeroed, they
        realise homogeneous Dirichlet conditions for stencil kernels (and a
        kernel can always shift by the stencil width without bounds checks).
        """
        if rank is None:
            return self._ghosted
        lo, hi = self.owned_box(rank)
        glo = tuple(
            lo[d] - (self.width if self.dims[d] > 1 else 0) for d in range(3)
        )
        ghi = tuple(
            hi[d] + (self.width if self.dims[d] > 1 else 0) for d in range(3)
        )
        return glo, ghi

    @property
    def local_shape(self) -> Tuple[int, ...]:
        """Owned-box shape (without ghosts), padded to 3-D + dof."""
        lo, hi = self.owned_box()
        shape = tuple(hi[d] - lo[d] for d in range(3))
        return shape + (self.dof,) if self.dof > 1 else shape

    @property
    def ghosted_shape(self) -> Tuple[int, ...]:
        glo, ghi = self.ghosted_box()
        shape = tuple(ghi[d] - glo[d] for d in range(3))
        return shape + (self.dof,) if self.dof > 1 else shape

    def interior_slices(self) -> Tuple[slice, ...]:
        """Slices selecting the owned box inside the ghosted local array."""
        return self._interior

    # -- global indexing ----------------------------------------------------------

    def natural_to_global(self, iz, iy, ix, component: int = 0) -> np.ndarray:
        """Global-vector indices of natural grid coordinates (vectorised)."""
        iz = np.asarray(iz, dtype=np.int64)
        iy = np.asarray(iy, dtype=np.int64)
        ix = np.asarray(ix, dtype=np.int64)
        coords = []
        locals_ = []
        for d, arr in zip(range(3), (iz, iy, ix)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.dims[d]):
                raise PETScError(f"natural index out of range in dim {d}")
            c = np.searchsorted(self._starts[d], arr, side="right") - 1
            coords.append(c)
            locals_.append(arr - self._starts[d][c])
        pz, py, px = self.proc_grid
        owner = (coords[0] * py + coords[1]) * px + coords[2]
        # local sizes of the owning rank in each dim
        sz = np.asarray(self._sizes[0], dtype=np.int64)[coords[0]]
        sy = np.asarray(self._sizes[1], dtype=np.int64)[coords[1]]
        sx = np.asarray(self._sizes[2], dtype=np.int64)[coords[2]]
        del sz  # z size does not enter the offset formula
        offset = (locals_[0] * sy + locals_[1]) * sx + locals_[2]
        return self.layout.starts[owner] + offset * self.dof + component

    def _box_offsets_in(self, region: Box, box: Box) -> np.ndarray:
        """Row-major offsets (x fastest, dof innermost) of ``region`` cells
        within the larger ``box`` (both half-open, region inside box)."""
        (rlo, rhi), (blo, bhi) = region, box
        shape = tuple(bhi[d] - blo[d] for d in range(3))
        axes = [
            np.arange(rlo[d] - blo[d], rhi[d] - blo[d], dtype=np.int64)
            for d in range(3)
        ]
        off = (axes[0][:, None, None] * shape[1] + axes[1][None, :, None]) * shape[2] \
            + axes[2][None, None, :]
        off = off.reshape(-1) * self.dof
        if self.dof > 1:
            off = (off[:, None] + np.arange(self.dof, dtype=np.int64)[None, :]).reshape(-1)
        return off

    # -- vectors -----------------------------------------------------------------

    def create_global_vec(self) -> Vec:
        return Vec(self.comm, self.layout)

    def create_local_array(self) -> np.ndarray:
        """The ghosted local array (zeros); boundary ghosts stay untouched
        by exchanges, which realises homogeneous Dirichlet conditions."""
        return np.zeros(self.ghosted_shape)

    def global_array(self, vec: Vec) -> np.ndarray:
        """The rank's owned box of a global vec, viewed as (z, y, x[, dof])."""
        return vec.local.reshape(self.local_shape)

    # -- ghost exchange --------------------------------------------------------------

    def _neighbour_dirs(self):
        if self.stencil == "star":
            for d in range(3):
                for s in (-1, 1):
                    vec = [0, 0, 0]
                    vec[d] = s
                    yield tuple(vec)
        else:
            for vec in itertools.product((-1, 0, 1), repeat=3):
                if vec != (0, 0, 0):
                    yield vec

    def _region_toward(self, base_owned: Box, target_ghosted: Box) -> Optional[Box]:
        """Intersection of an owned box with another rank's ghosted box."""
        (alo, ahi), (blo, bhi) = base_owned, target_ghosted
        lo = tuple(max(alo[d], blo[d]) for d in range(3))
        hi = tuple(min(ahi[d], bhi[d]) for d in range(3))
        if any(lo[d] >= hi[d] for d in range(3)):
            return None
        return lo, hi

    def ghost_scatter(self) -> VecScatter:
        """The global-to-local scatter (built once, cached)."""
        if self._g2l_scatter is not None:
            return self._g2l_scatter
        send_map, recv_map = self._halo_maps()
        # interior copy: my owned cells -> centre of my ghosted array
        owned = self.owned_box()
        self._g2l_scatter = VecScatter(
            self.comm, send_map, recv_map,
            (self._box_offsets_in(owned, owned),
             self._box_offsets_in(owned, self.ghosted_box())),
        )
        return self._g2l_scatter

    def _halo_maps(self):
        """Per-peer halo exchange offsets.

        Each direction ``d`` has at most one peer (none past the physical
        boundary).  At ``d`` this rank *receives* from the peer at ``+d``
        the part of that peer's owned box inside its own ghosted box, and
        *sends* to the peer at ``-d`` the part of its owned box inside that
        peer's ghosted box.  Both maps fill in direction order, the order
        in which the hand-tuned backend posts its messages.
        """
        send_map: Dict[int, np.ndarray] = {}
        recv_map: Dict[int, np.ndarray] = {}
        my_owned = self.owned_box()
        my_ghosted = self.ghosted_box()
        for d in self._neighbour_dirs():
            peer = self._neighbour(d)
            if peer is not None:
                region = self._region_toward(self.owned_box(peer), my_ghosted)
                if region is not None:
                    recv_map[peer] = self._box_offsets_in(region, my_ghosted)
            peer = self._neighbour(tuple(-c for c in d))
            if peer is not None:
                region = self._region_toward(my_owned, self.ghosted_box(peer))
                if region is not None:
                    send_map[peer] = self._box_offsets_in(region, my_owned)
        return send_map, recv_map

    def _neighbour(self, d) -> Optional[int]:
        """The rank at process-grid offset ``d``, or None past the boundary."""
        coords = tuple(c + s for c, s in zip(self.proc_coord, d))
        if any(not 0 <= coords[i] < self.proc_grid[i] for i in range(3)):
            return None
        return self._rank_of(coords)

    def global_to_local(self, gvec: Vec, larr: np.ndarray,
                        backend: str = "datatype") -> Generator:
        """Fill the ghosted local array from the global vector."""
        if larr.shape != self.ghosted_shape:
            raise PETScError(
                f"local array shape {larr.shape} != ghosted {self.ghosted_shape}"
            )
        scatter = self.ghost_scatter()
        yield from scatter.scatter(gvec.local, larr.reshape(-1), backend=backend)

    def local_to_global(self, larr: np.ndarray, gvec: Vec) -> Generator:
        """Copy the owned interior of the local array back to the global vec
        (a pure local copy, like ``DMLocalToGlobal`` with INSERT_VALUES)."""
        if larr.shape != self.ghosted_shape:
            raise PETScError(
                f"local array shape {larr.shape} != ghosted {self.ghosted_shape}"
            )
        interior = larr[self.interior_slices()]
        gvec.local[:] = interior.reshape(-1)
        yield from self.comm.cpu(
            gvec.local.nbytes * self.comm.cost.copy_byte, "pack"
        )

    def natural_scatter(self) -> "VecScatter":
        """Scatter from this DMDA's global (per-rank block) ordering into
        *natural* row-major ordering over an evenly-split layout
        (``DMDAGlobalToNatural``).  Built once; apply with
        ``scatter(global_vec, natural_vec)`` or reverse it for
        natural-to-global."""
        from repro.petsc.indexset import GeneralIS, StrideIS

        n = self.layout.global_size
        z, y, x = np.meshgrid(
            np.arange(self.dims[0]), np.arange(self.dims[1]),
            np.arange(self.dims[2]), indexing="ij",
        )
        gidx = self.natural_to_global(z.reshape(-1), y.reshape(-1), x.reshape(-1))
        if self.dof > 1:
            gidx = (gidx[:, None] + np.arange(self.dof)[None, :]).reshape(-1)
        natural_layout = Layout(self.comm.size, n)
        return VecScatter.from_index_sets(
            self.comm, self.layout, GeneralIS(gidx),
            natural_layout, StrideIS(n),
        )

    # -- box gathering (multigrid transfers) ---------------------------------------------

    def box_gather_scatter(self, boxes: List[Optional[Box]]) -> VecScatter:
        """Scatter from this DMDA's global vector into per-rank dense boxes.

        ``boxes[r]`` is the natural-coordinate box rank ``r`` wants gathered
        into a dense row-major buffer (or None).  Every rank evaluates the
        full list, so no setup communication is needed.  Used by the
        multigrid restriction ("give me the fine children of my coarse
        cells") and prolongation ("give me the coarse cells around my fine
        box").
        """
        if len(boxes) != self.comm.size:
            raise PETScError("need one box entry per rank")
        rank = self.comm.rank
        my_owned = self.owned_box()
        send_map: Dict[int, np.ndarray] = {}
        recv_map: Dict[int, np.ndarray] = {}
        local_src = np.empty(0, dtype=np.int64)
        local_dst = np.empty(0, dtype=np.int64)
        # receives: owners of the cells in my box
        my_box = boxes[rank]
        if my_box is not None:
            for owner in range(self.comm.size):
                region = self._region_toward(self.owned_box(owner), my_box)
                if region is None:
                    continue
                dst = self._box_offsets_in(region, my_box)
                if owner == rank:
                    local_dst = dst
                    local_src = self._box_offsets_in(region, my_owned)
                else:
                    recv_map[owner] = dst
        # sends: parts of my owned box inside other ranks' requested boxes
        for peer in range(self.comm.size):
            if peer == rank or boxes[peer] is None:
                continue
            region = self._region_toward(my_owned, boxes[peer])
            if region is None:
                continue
            send_map[peer] = self._box_offsets_in(region, my_owned)
        return VecScatter(self.comm, send_map, recv_map, (local_src, local_dst))
