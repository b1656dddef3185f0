"""``VecScatter``: general gather/scatter between distributed vectors.

The paper's section 5.4 compares three implementations of this operation;
all three are provided here as backends of one scatter object:

``hand_tuned``
    PETSc's default: explicitly pack the needed entries into a contiguous
    buffer with a tight copy loop, ship it with plain point-to-point
    messages to the (few) partner ranks, and unpack on arrival.  Fast, but
    the packing/communication pattern lives in PETSc code.

``datatype``
    Describe each partner's entries with an MPI ``Indexed`` datatype and
    hand the whole operation to ``MPI_Alltoallw``.  Simpler library code --
    and its performance is now entirely the MPI implementation's problem:
    over the baseline configuration this path suffers both the
    single-context pack engine and the zero-byte round-robin collective;
    over the optimised configuration it comes within a few percent of
    hand-tuned (Fig. 16).

A scatter is built once (like ``VecScatterCreate``) and applied many times.
The exchange lists are derived without communication: index sets are
replicated, and DMDA-style patterns are computable from the grid geometry
every rank already knows.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

import numpy as np

from repro.datatypes.packing import TypedBuffer
from repro.datatypes.typemap import DOUBLE, Datatype, IndexedBlock
from repro.mpi.comm import Comm
from repro.mpi.collectives.alltoallw import alltoallw
from repro.mpi.collectives.basic import _tag_window
from repro.mpi.request import Request
from repro.petsc.indexset import IS
from repro.petsc.vec import Layout, PETScError, Vec

_ITEM = 8  # bytes per double


def _count_runs(offsets: np.ndarray) -> int:
    """Number of contiguous runs in an offset sequence (1 for a straight
    block, ``len`` for fully scattered offsets)."""
    if offsets.size <= 1:
        return int(offsets.size)
    return int(np.count_nonzero(np.diff(offsets) != 1)) + 1


def _group_by_owner(positions: np.ndarray, owner: np.ndarray):
    """Yield ``(peer, the positions whose owner is peer)``, peers ascending
    and each group in its original order: one stable sort over the selected
    positions instead of one full-length mask rescan per peer."""
    peers = owner[positions]
    order = np.argsort(peers, kind="stable")
    peers, positions = peers[order], positions[order]
    cuts = np.flatnonzero(peers[1:] != peers[:-1]) + 1
    for group in np.split(positions, cuts) if len(positions) else ():
        yield int(owner[group[0]]), group


class VecScatter:
    """A reusable scatter plan between two distributed vectors.

    Parameters
    ----------
    comm:
        the rank-bound communicator,
    send_map:
        ``{peer_rank: local offsets into the source array}`` -- entries this
        rank must send to ``peer_rank``, in an order both sides agree on,
    recv_map:
        ``{peer_rank: local offsets into the destination array}`` -- where
        entries arriving from ``peer_rank`` land, in the matching order,
    local_pairs:
        ``(src_offsets, dst_offsets)`` for entries that stay on this rank.
    """

    def __init__(
        self,
        comm: Comm,
        send_map: Dict[int, np.ndarray],
        recv_map: Dict[int, np.ndarray],
        local_pairs: Tuple[np.ndarray, np.ndarray],
    ):
        self.comm = comm
        self.send_map = {
            int(p): np.asarray(v, dtype=np.int64) for p, v in send_map.items() if len(v)
        }
        self.recv_map = {
            int(p): np.asarray(v, dtype=np.int64) for p, v in recv_map.items() if len(v)
        }
        src_loc, dst_loc = local_pairs
        self.local_src = np.asarray(src_loc, dtype=np.int64)
        self.local_dst = np.asarray(dst_loc, dtype=np.int64)
        if self.local_src.shape != self.local_dst.shape:
            raise PETScError("local pair arrays differ in length")
        # contiguous-run counts: PETSc's hand-tuned loops special-case
        # contiguous and strided index runs, paying loop overhead per run
        # rather than per element
        self._send_runs = {p: _count_runs(v) for p, v in self.send_map.items()}
        self._recv_runs = {p: _count_runs(v) for p, v in self.recv_map.items()}
        self._local_runs = _count_runs(self.local_src) + _count_runs(self.local_dst)
        for peer in (*self.send_map, *self.recv_map):
            if not 0 <= peer < comm.size:
                raise PETScError(f"peer rank {peer} out of range")
        if comm.rank in self.send_map or comm.rank in self.recv_map:
            raise PETScError("self-entries belong in local_pairs")
        # cached Indexed datatypes for the datatype backend (built lazily;
        # datatypes are immutable, and their compiled pack plans live in the
        # repro.datatypes.ir cache, so the TypedBuffers rebuilt per apply()
        # share one plan per peer layout)
        self._send_types: Dict[int, Datatype] = {}
        self._recv_types: Dict[int, Datatype] = {}
        self._local_src_type: Optional[Datatype] = None
        self._local_dst_type: Optional[Datatype] = None

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_index_sets(
        cls,
        comm: Comm,
        src_layout: Layout,
        src_is: IS,
        dst_layout: Layout,
        dst_is: IS,
        owners: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "VecScatter":
        """Build from replicated global index sets: for every position k,
        ``dst[dst_is[k]] = src[src_is[k]]``.

        ``owners`` optionally supplies precomputed ``(src_owner, dst_owner)``
        arrays -- since index sets are replicated, the (identical) ownership
        computation can be shared across ranks instead of repeated N times.
        """
        src_idx = src_is.indices()
        dst_idx = dst_is.indices()
        if src_idx.shape != dst_idx.shape:
            raise PETScError(
                f"index sets differ in length: {len(src_idx)} vs {len(dst_idx)}"
            )
        src_is.validate_against(src_layout.global_size)
        dst_is.validate_against(dst_layout.global_size)
        # (indices were range-checked just above, which bincount needs)
        if len(dst_idx) and np.bincount(
                dst_idx, minlength=dst_layout.global_size).max() > 1:
            raise PETScError("destination indices must be unique (no overwrites)")
        rank = comm.rank
        if owners is None:
            src_owner = src_layout.owners(src_idx)
            dst_owner = dst_layout.owners(dst_idx)
        else:
            src_owner, dst_owner = owners

        send_map: Dict[int, np.ndarray] = {}
        recv_map: Dict[int, np.ndarray] = {}

        mine_out = src_owner == rank
        mine_in = dst_owner == rank
        local_mask = mine_out & mine_in
        local_pairs = (
            src_layout.to_local(src_idx[local_mask], rank),
            dst_layout.to_local(dst_idx[local_mask], rank),
        )
        for peer, sel in _group_by_owner(
                np.flatnonzero(mine_out & ~mine_in), dst_owner):
            send_map[peer] = src_layout.to_local(src_idx[sel], rank)
        for peer, sel in _group_by_owner(
                np.flatnonzero(mine_in & ~mine_out), src_owner):
            recv_map[peer] = dst_layout.to_local(dst_idx[sel], rank)
        return cls(comm, send_map, recv_map, local_pairs)

    @classmethod
    def from_needed_indices(
        cls,
        comm: Comm,
        src_layout: Layout,
        dst_layout: Layout,
        src_global,
        dst_local,
    ) -> Generator:
        """Build a scatter from *one-sided* knowledge (collective).

        Each rank names the global source entries it needs
        (``src_global``) and where they land in its destination array
        (``dst_local``); nobody knows who reads *their* entries.  The
        owners learn their send lists through the NBX sparse exchange
        (:meth:`repro.mpi.comm.Comm.sparse_alltoall`) instead of
        replicating index sets on every rank -- the AMR-style "ghosts of
        cells you don't own" construction, where most rank pairs never
        talk.  The request payload order defines the matching send/recv
        order on both sides.
        """
        src_global = np.asarray(src_global, dtype=np.int64).reshape(-1)
        dst_local = np.asarray(dst_local, dtype=np.int64).reshape(-1)
        rank = comm.rank
        n_local = dst_layout.local_size(rank)
        # validation errors are rank-local facts; agree before raising so
        # every rank leaves together instead of a subset entering the
        # exchange below and deadlocking (SPMD102)
        problem = None
        if src_global.shape != dst_local.shape:
            problem = (f"needed indices differ in length: "
                       f"{src_global.size} vs {dst_local.size}")
        elif dst_local.size and (dst_local.min() < 0
                                 or dst_local.max() >= n_local):
            problem = f"destination offset out of range [0, {n_local})"
        elif src_global.size and (src_global.min() < 0 or src_global.max()
                                  >= src_layout.global_size):
            problem = (f"source index out of range "
                       f"[0, {src_layout.global_size})")
        flagged = yield from comm.allreduce(problem is not None,
                                            op=lambda a, b: a or b)
        if flagged:
            raise PETScError(
                f"rank {rank}: invalid from_needed_indices arguments"
                + (f": {problem}" if problem else " on another rank"))
        owner = src_layout.owners(src_global)
        mine = owner == rank
        local_pairs = (src_layout.to_local(src_global[mine], rank),
                       dst_local[mine])
        recv_map: Dict[int, np.ndarray] = {}
        wants: Dict[int, np.ndarray] = {}
        for peer, sel in _group_by_owner(np.flatnonzero(~mine), owner):
            recv_map[peer] = dst_local[sel]
            wants[peer] = src_global[sel].astype(np.float64)
        answers = yield from comm.sparse_alltoall(wants)
        send_map: Dict[int, np.ndarray] = {}
        for reader, wanted in sorted(answers.items()):
            send_map[int(reader)] = src_layout.to_local(
                wanted.astype(np.int64), rank)
        return cls(comm, send_map, recv_map, local_pairs)

    def reversed(self) -> "VecScatter":
        """The transpose pattern: what was received is now sent."""
        return VecScatter(
            self.comm,
            {p: v.copy() for p, v in self.recv_map.items()},
            {p: v.copy() for p, v in self.send_map.items()},
            (self.local_dst.copy(), self.local_src.copy()),
        )

    # -- application ----------------------------------------------------------------

    def scatter(
        self,
        src: np.ndarray | Vec,
        dst: np.ndarray | Vec,
        backend: str = "datatype",
        mode: str = "insert",
    ) -> Generator:
        """Execute the scatter: move entries from ``src`` into ``dst``.

        ``backend`` is ``"hand_tuned"`` or ``"datatype"`` (see module doc).
        ``mode`` is ``"insert"`` (overwrite destination entries, PETSc's
        INSERT_VALUES) or ``"add"`` (accumulate, ADD_VALUES -- used by
        assembly and reverse ghost updates).  In add mode incoming data is
        received into staging buffers and accumulated locally; duplicate
        destination offsets accumulate correctly.
        """
        if mode not in ("insert", "add"):
            raise PETScError(f"unknown scatter mode {mode!r}")
        src_arr = src.local if isinstance(src, Vec) else np.asarray(src)
        dst_arr = dst.local if isinstance(dst, Vec) else np.asarray(dst)
        comm = self.comm
        prof = comm.cluster.profiler
        if prof.enabled:
            nbytes = (sum(v.size for v in self.send_map.values())
                      + self.local_src.size) * _ITEM
            prof.count("repro_vecscatter_ops_total",
                       labels={"backend": backend, "mode": mode})
            prof.count("repro_vecscatter_bytes_total", nbytes)
        with prof.span("petsc", "vecscatter", comm.grank, backend=backend,
                       mode=mode, peers=len(self.send_map)):
            if backend == "hand_tuned":
                yield from self._scatter_hand_tuned(src_arr, dst_arr, mode)
            elif backend == "datatype":
                if mode == "insert":
                    yield from self._scatter_datatype(src_arr, dst_arr)
                else:
                    yield from self._scatter_datatype_add(src_arr, dst_arr)
            else:
                raise PETScError(f"unknown scatter backend {backend!r}")

    # -- hand-tuned backend ----------------------------------------------------------

    def _scatter_hand_tuned(self, src: np.ndarray, dst: np.ndarray,
                            mode: str = "insert") -> Generator:
        comm = self.comm
        cost = comm.cost
        base = _tag_window(comm, op="vecscatter")
        requests: list[Request] = []
        recv_bufs: list[tuple[int, np.ndarray, np.ndarray]] = []
        for peer, offs in self.recv_map.items():
            buf = np.empty(offs.size, dtype=np.float64)
            recv_bufs.append((peer, buf, offs))
            requests.append(comm.irecv(buf, peer, base))
        def loop_cost(nelem: int, nruns: int) -> float:
            # memory traffic plus per-run loop overhead: the hand-tuned code
            # detects contiguous runs and memcpys them
            return nelem * _ITEM * cost.copy_byte + nruns * cost.handtuned_elem

        for peer, offs in self.send_map.items():
            packed = np.ascontiguousarray(src[offs])
            yield from comm.cpu(loop_cost(offs.size, self._send_runs[peer]), "pack")
            requests.append((yield from comm.isend(packed, peer, base)))
        if self.local_src.size:
            if mode == "insert":
                dst[self.local_dst] = src[self.local_src]
            else:
                np.add.at(dst, self.local_dst, src[self.local_src])
            yield from comm.cpu(
                loop_cost(2 * self.local_src.size, self._local_runs), "pack"
            )
        yield from Request.waitall(requests)
        for peer, buf, offs in recv_bufs:
            if mode == "insert":
                dst[offs] = buf
            else:
                np.add.at(dst, offs, buf)
            yield from comm.cpu(loop_cost(offs.size, self._recv_runs[peer]), "pack")

    # -- datatype backend ---------------------------------------------------------------

    def _offsets_type(self, offs: np.ndarray) -> Datatype:
        return IndexedBlock(1, offs, DOUBLE)

    def _ensure_types(self) -> None:
        """Build the per-peer datatypes on the first datatype-backend use."""
        if self._send_types:
            return
        for peer, offs in self.send_map.items():
            self._send_types[peer] = self._offsets_type(offs)
        for peer, offs in self.recv_map.items():
            self._recv_types[peer] = self._offsets_type(offs)
        if self.local_src.size:
            self._local_src_type = self._offsets_type(self.local_src)
            self._local_dst_type = self._offsets_type(self.local_dst)

    def _scatter_datatype(self, src: np.ndarray, dst: np.ndarray) -> Generator:
        comm = self.comm
        n = comm.size
        self._ensure_types()
        sendspecs: list[Optional[TypedBuffer]] = [None] * n
        recvspecs: list[Optional[TypedBuffer]] = [None] * n
        for peer, dt in self._send_types.items():
            sendspecs[peer] = TypedBuffer(src, dt)
        for peer, dt in self._recv_types.items():
            recvspecs[peer] = TypedBuffer(dst, dt)
        if self._local_src_type is not None:
            sendspecs[comm.rank] = TypedBuffer(src, self._local_src_type)
            recvspecs[comm.rank] = TypedBuffer(dst, self._local_dst_type)
        yield from alltoallw(comm, sendspecs, recvspecs)

    def _scatter_datatype_add(self, src: np.ndarray, dst: np.ndarray) -> Generator:
        """ADD mode over the datatype path: sends still use Indexed
        datatypes, but receives stage into contiguous buffers and
        accumulate locally (MPI has no receive-side reduction for
        point-to-point/alltoallw, so this mirrors what PETSc does)."""
        comm = self.comm
        n = comm.size
        cost = comm.cost
        self._ensure_types()
        sendspecs: list[Optional[TypedBuffer]] = [None] * n
        recvspecs: list[Optional[TypedBuffer]] = [None] * n
        staging: list[tuple[np.ndarray, np.ndarray]] = []
        for peer, dt in self._send_types.items():
            sendspecs[peer] = TypedBuffer(src, dt)
        for peer, offs in self.recv_map.items():
            buf = np.zeros(offs.size)
            staging.append((buf, offs))
            recvspecs[peer] = TypedBuffer(buf, DOUBLE, offs.size)
        yield from alltoallw(comm, sendspecs, recvspecs)
        if self.local_src.size:
            np.add.at(dst, self.local_dst, src[self.local_src])
            yield from comm.cpu(
                2 * self.local_src.size * _ITEM * cost.copy_byte, "pack"
            )
        for buf, offs in staging:
            np.add.at(dst, offs, buf)
            yield from comm.cpu(buf.nbytes * cost.copy_byte, "pack")
