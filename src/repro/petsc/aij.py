"""Distributed sparse matrices in AIJ (CSR) format (PETSc's ``MatAIJ``).

Rows are partitioned by a :class:`repro.petsc.vec.Layout`.  Any rank may set
any entry; off-rank entries are *stashed* and shipped to their owners during
:meth:`AIJMat.assemble`, exactly like PETSc's ``MatSetValues`` /
``MatAssemblyBegin/End`` protocol.

After assembly each rank holds two local CSR blocks, as PETSc does:

- the **diagonal block** (columns this rank owns): applied against the
  local part of ``x`` directly,
- the **off-diagonal block** (remote columns, compressed to the rank's
  ``garray`` of needed global columns): applied against ghost values
  gathered through a :class:`repro.petsc.scatter.VecScatter`.

So every ``mult`` is a nonuniform, noncontiguous neighbour communication --
the same pattern the paper studies -- followed by two local SpMVs
(scipy.sparse does the flops; simulated time is charged per nonzero).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.mpi.comm import Comm
from repro.petsc.mat import Operator
from repro.petsc.scatter import VecScatter
from repro.petsc.vec import Layout, PETScError, Vec

#: flops charged per stored nonzero per multiply (one mul + one add)
FLOPS_PER_NNZ = 2.0


class AIJMat(Operator):
    """A distributed CSR matrix.

    >>> A = AIJMat(comm, Layout(comm.size, n))
    >>> A.set_values(rows, cols, vals)         # any rank, any rows
    >>> yield from A.assemble(backend="datatype")
    >>> yield from A.mult(x, y)                # y = A x
    """

    def __init__(self, comm: Comm, row_layout: Layout,
                 col_layout: Optional[Layout] = None):
        self.comm = comm
        self.rows = row_layout
        self.cols = col_layout or row_layout
        if self.rows.nranks != comm.size or self.cols.nranks != comm.size:
            raise PETScError("layout rank count mismatch")
        # COO staging: local triples plus per-owner stashes
        self._coo_i: List[np.ndarray] = []
        self._coo_j: List[np.ndarray] = []
        self._coo_v: List[np.ndarray] = []
        self._stash: Dict[int, List[np.ndarray]] = {}
        self._assembled = False
        self._insert_mode: Optional[str] = None
        # post-assembly state
        self.diag: Optional[sp.csr_matrix] = None
        self.offdiag: Optional[sp.csr_matrix] = None
        self.garray: Optional[np.ndarray] = None
        self._gather: Optional[VecScatter] = None
        self._lvec: Optional[np.ndarray] = None
        self.backend = "datatype"

    # -- entry staging -------------------------------------------------------

    def set_values(self, rows: Sequence[int], cols: Sequence[int],
                   vals: Sequence[float], mode: str = "add") -> None:
        """Stage entries; duplicate (row, col) pairs accumulate when
        ``mode='add'`` (the only supported mode, as in FEM assembly)."""
        if self._assembled:
            raise PETScError("matrix already assembled")
        if mode != "add":
            raise PETScError("only mode='add' is supported")
        i = np.asarray(rows, dtype=np.int64).reshape(-1)
        j = np.asarray(cols, dtype=np.int64).reshape(-1)
        v = np.asarray(vals, dtype=np.float64).reshape(-1)
        if not (i.shape == j.shape == v.shape):
            raise PETScError("rows/cols/vals must have equal lengths")
        if i.size == 0:
            return
        if i.min() < 0 or i.max() >= self.rows.global_size:
            raise PETScError("row index out of range")
        if j.min() < 0 or j.max() >= self.cols.global_size:
            raise PETScError("column index out of range")
        mine = self.rows.owned_mask(i, self.comm.rank)
        if np.any(mine):
            self._coo_i.append(i[mine])
            self._coo_j.append(j[mine])
            self._coo_v.append(v[mine])
        for peer, sel in self.rows.group_by_owner(i, np.flatnonzero(~mine)):
            triple = np.stack(
                [i[sel].astype(np.float64), j[sel].astype(np.float64), v[sel]]
            )
            self._stash.setdefault(peer, []).append(triple)

    def set_value(self, row: int, col: int, val: float) -> None:
        self.set_values([row], [col], [val])

    # -- assembly --------------------------------------------------------------

    def assemble(self, backend: str = "datatype") -> Generator:
        """Ship stashed entries to their owners, build the CSR blocks and
        the ghost-column gather scatter."""
        if self._assembled:
            raise PETScError("matrix already assembled")
        comm = self.comm
        self.backend = backend

        # ship the triples: each (3, n_k) stash block list becomes one
        # (3, n) payload.  The dense protocol (a counts alltoall, then
        # point-to-point) is forced, so the wire traffic is PETSc's own.
        payloads = {peer: np.hstack(triples).reshape(-1)
                    for peer, triples in self._stash.items()}
        got = yield from comm.sparse_alltoall(payloads, algorithm="dense")
        for _peer, buf in sorted(got.items()):
            t = buf.reshape(3, -1)
            self._coo_i.append(t[0].astype(np.int64))
            self._coo_j.append(t[1].astype(np.int64))
            self._coo_v.append(t[2])
        self._stash.clear()

        # build local CSR blocks
        nlocal = self.rows.local_size(comm.rank)
        row_start = self.rows.start(comm.rank)
        col_start = self.cols.start(comm.rank)
        col_end = self.cols.end(comm.rank)
        if self._coo_i:
            i = np.concatenate(self._coo_i) - row_start
            j = np.concatenate(self._coo_j)
            v = np.concatenate(self._coo_v)
        else:
            i = np.empty(0, dtype=np.int64)
            j = np.empty(0, dtype=np.int64)
            v = np.empty(0)
        self._coo_i = self._coo_j = self._coo_v = []
        local_cols = (j >= col_start) & (j < col_end)
        ncols_local = col_end - col_start
        self.diag = sp.csr_matrix(
            (v[local_cols], (i[local_cols], j[local_cols] - col_start)),
            shape=(nlocal, ncols_local),
        )
        self.garray = np.unique(j[~local_cols])
        # garray is sorted and unique: a column's position is its compressed index
        jr = np.searchsorted(self.garray, j[~local_cols])
        self.offdiag = sp.csr_matrix(
            (v[~local_cols], (i[~local_cols], jr)),
            shape=(nlocal, len(self.garray)),
        )
        self._lvec = np.zeros(len(self.garray))

        # charge assembly CPU: sorting/merging the received entries
        yield from comm.cpu(
            (self.diag.nnz + self.offdiag.nnz) * 20e-9, "compute"
        )
        # the ghost-column gather: tell each owner which of its entries this
        # rank needs (a real setup round-trip, as in PETSc), over the same
        # forced dense exchange.  garray is built here, so it skips
        # from_needed_indices' argument agreement
        self._gather = yield from VecScatter._from_needed(
            comm, self.cols, self.garray,
            np.arange(len(self.garray), dtype=np.int64), algorithm="dense")
        self._assembled = True

    # -- application --------------------------------------------------------------

    @property
    def nnz(self) -> int:
        if not self._assembled:
            raise PETScError("matrix not assembled")
        return int(self.diag.nnz + self.offdiag.nnz)

    def mult(self, x: Vec, y: Vec) -> Generator:
        """y = A x (ghost-column gather + two local SpMVs)."""
        if not self._assembled:
            raise PETScError("matrix not assembled")
        if x.layout != self.cols or y.layout != self.rows:
            raise PETScError("vector layouts do not match the matrix")
        comm = self.comm
        yield from self._gather.scatter(x.local, self._lvec, backend=self.backend)
        result = self.diag @ x.local
        if self.offdiag.nnz:
            result += self.offdiag @ self._lvec
        y.local[:] = result
        yield from comm.cpu(self.nnz * comm.cost.flop * FLOPS_PER_NNZ)
