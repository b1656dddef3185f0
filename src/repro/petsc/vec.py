"""Distributed vectors and ownership layouts.

A :class:`Layout` splits a global index range into per-rank contiguous
ownership blocks (PETSc's ``PetscLayout``).  A :class:`Vec` is the rank-local
view of a distributed vector: a numpy array of the locally owned entries
plus generator methods for the collective operations (dot, norm, ...).

Local arithmetic charges flop time on the owning rank's CPU; reductions go
through ``allreduce``.
"""

from __future__ import annotations

import operator
from typing import Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.mpi.collectives import instance
from repro.mpi.comm import Comm
from repro.petsc.commplan import CommPlan, plan_signature


class PETScError(RuntimeError):
    """Invalid use of the toolkit."""


class PlanMismatchError(PETScError):
    """Ranks disagree about the cached assembly pattern.

    Raised *uniformly on every rank* by a guarded
    ``subset_off_proc_entries`` assembly when the agreement check finds
    that some rank's stash left the recorded pattern (or lost its plan)
    while others would reuse theirs -- the situation that deadlocks the
    unguarded reuse path, exactly as PETSc documents for
    ``VEC_SUBSET_OFF_PROC_ENTRIES``.  The plans are invalidated before
    raising, so a subsequent ``assemble`` rediscovers cleanly.
    """


def _merge_plan_state(a, b):
    """Agreement-reduction operator over per-rank plan state tuples
    ``(has_plan, has_plan, conforms, fp, fp)`` -> ``(any_has, all_have,
    all_conform, fp_min, fp_max)``; associative and commutative."""
    return (a[0] | b[0], a[1] & b[1], a[2] & b[2],
            min(a[3], b[3]), max(a[4], b[4]))


class Layout:
    """Contiguous ownership ranges of a global vector across ranks."""

    def __init__(self, nranks: int, global_size: int,
                 local_sizes: Optional[Sequence[int]] = None):
        if nranks < 1:
            raise PETScError(f"need at least one rank, got {nranks}")
        if global_size < 0:
            raise PETScError(f"negative global size {global_size}")
        self.nranks = nranks
        self.global_size = global_size
        if local_sizes is None:
            base, rem = divmod(global_size, nranks)
            local_sizes = [base + (1 if r < rem else 0) for r in range(nranks)]
        local_sizes = [int(s) for s in local_sizes]
        if len(local_sizes) != nranks:
            raise PETScError("local_sizes must have one entry per rank")
        if min(local_sizes) < 0:
            raise PETScError(f"negative local size in {local_sizes}")
        if sum(local_sizes) != global_size:
            raise PETScError(
                f"local sizes sum to {sum(local_sizes)}, global is {global_size}"
            )
        self.local_sizes = local_sizes
        self.starts = np.concatenate(([0], np.cumsum(local_sizes))).astype(np.int64)

    def local_size(self, rank: int) -> int:
        return self.local_sizes[rank]

    def start(self, rank: int) -> int:
        return int(self.starts[rank])

    def end(self, rank: int) -> int:
        return int(self.starts[rank + 1])

    def owners(self, global_indices: np.ndarray) -> np.ndarray:
        """Owning rank of each global index (vectorised)."""
        idx = np.asarray(global_indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.global_size):
            raise PETScError("global index out of range")
        return np.searchsorted(self.starts, idx, side="right") - 1

    def owned_mask(self, global_indices: np.ndarray, rank: int) -> np.ndarray:
        """Which of the global indices ``rank`` owns: a range test against
        its block, with no owner lookup."""
        idx = np.asarray(global_indices, dtype=np.int64)
        return (idx >= self.starts[rank]) & (idx < self.starts[rank + 1])

    def group_by_owner(self, global_indices: np.ndarray, positions: np.ndarray):
        """Yield ``(peer, the positions whose index peer owns)``, peers
        ascending and each group in its original order.  Owners are looked
        up for ``global_indices[positions]`` only, and one stable sort
        splits them instead of one full-length mask rescan per peer."""
        if not len(positions):
            return
        peers = self.owners(np.asarray(global_indices)[positions])
        order = np.argsort(peers, kind="stable")
        peers, positions = peers[order], positions[order]
        cuts = np.flatnonzero(peers[1:] != peers[:-1]) + 1
        yield from zip(peers[np.r_[0, cuts]].tolist(), np.split(positions, cuts))

    def to_local(self, global_indices: np.ndarray, rank: int) -> np.ndarray:
        """Local offsets (on ``rank``) of global indices owned by it."""
        idx = np.asarray(global_indices, dtype=np.int64)
        return idx - self.starts[rank]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Layout)
            and self.global_size == other.global_size
            and self.local_sizes == other.local_sizes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Layout(global={self.global_size}, ranks={self.nranks})"


class Vec:
    """The rank-local part of a distributed vector.

    Create one per rank inside the rank's generator::

        layout = Layout(comm.size, n)
        x = Vec(comm, layout)
        x.local[:] = ...
        norm = yield from x.norm()
    """

    def __init__(self, comm: Comm, layout: Layout,
                 array: Optional[np.ndarray] = None):
        self.comm = comm
        self.layout = layout
        n = layout.local_size(comm.rank)
        if array is None:
            self.local = np.zeros(n)
        else:
            array = np.asarray(array, dtype=np.float64)
            if array.shape != (n,):
                raise PETScError(f"array shape {array.shape} != local size {n}")
            self.local = array
        #: cached assembly pattern (VEC_SUBSET_OFF_PROC_ENTRIES)
        self._plan: Optional[CommPlan] = None
        self._subset_hint = False
        self._plan_guard = True

    # -- local metadata ------------------------------------------------------

    @property
    def local_size(self) -> int:
        return self.local.size

    @property
    def global_size(self) -> int:
        return self.layout.global_size

    @property
    def owned_range(self) -> tuple[int, int]:
        return self.layout.start(self.comm.rank), self.layout.end(self.comm.rank)

    def duplicate(self) -> "Vec":
        return Vec(self.comm, self.layout)

    def copy_from(self, other: "Vec") -> None:
        self._check_compatible(other)
        self.local[:] = other.local

    def _check_compatible(self, other: "Vec") -> None:
        if self.layout != other.layout:
            raise PETScError("vectors have different layouts")

    # -- local arithmetic (charges flop time) -----------------------------------

    def _flops(self, per_entry: float = 1.0) -> Generator:
        yield from self.comm.cpu(self.local.size * self.comm.cost.flop * per_entry)

    def set(self, alpha: float) -> Generator:
        self.local[:] = alpha
        yield from self._flops()

    def axpy(self, alpha: float, x: "Vec") -> Generator:
        """self += alpha * x"""
        self._check_compatible(x)
        self.local += alpha * x.local
        yield from self._flops(2.0)

    def aypx(self, alpha: float, x: "Vec") -> Generator:
        """self = alpha * self + x"""
        self._check_compatible(x)
        self.local *= alpha
        self.local += x.local
        yield from self._flops(2.0)

    # -- reductions -------------------------------------------------------------

    def dot(self, other: "Vec") -> Generator:
        self._check_compatible(other)
        partial = float(self.local @ other.local)
        yield from self._flops(2.0)
        result = yield from self.comm.allreduce(partial)
        return result

    def norm(self, kind: str = "2") -> Generator:
        """Vector norm: ``"2"`` (default), ``"1"`` or ``"inf"``."""
        if kind == "2":
            sq = yield from self.dot(self)
            return float(np.sqrt(sq))
        if kind == "1":
            partial = float(np.abs(self.local).sum())
            yield from self._flops()
            result = yield from self.comm.allreduce(partial)
            return result
        if kind == "inf":
            partial = float(np.abs(self.local).max()) if self.local.size else 0.0
            yield from self._flops()
            result = yield from self.comm.allreduce(partial, op=max)
            return result
        raise PETScError(f"unknown norm kind {kind!r}")

    def sum(self) -> Generator:
        partial = float(self.local.sum())
        yield from self._flops()
        result = yield from self.comm.allreduce(partial)
        return result

    def save(self, filename: str) -> Generator:
        """Write the vector to a shared file in global order (collective,
        like binary ``VecView``): each rank writes its owned block at its
        layout offset through MPI-IO."""
        from repro.mpi.io import File

        fh = yield from File.open(self.comm, filename)
        fh.set_view(self.layout.start(self.comm.rank) * 8)
        yield from fh.write_all(self.local)
        yield from fh.close()

    def load(self, filename: str) -> Generator:
        """Fill the vector from a file written by :meth:`save` (collective);
        the loading layout may differ from the saving one."""
        from repro.mpi.io import File

        fh = yield from File.open(self.comm, filename)
        fh.set_view(self.layout.start(self.comm.rank) * 8)
        yield from fh.read_all(self.local)
        yield from fh.close()

    def gather_to_all(self) -> Generator:
        """Assemble the full global vector on every rank
        (``VecScatterCreateToAll``): one ``MPI_Allgatherv`` whose per-rank
        counts are the local sizes -- with an unbalanced layout this is
        exactly the nonuniform-volume collective of paper section 4.2.1."""
        out = np.zeros(self.global_size)
        yield from self.comm.allgatherv(
            self.local, out, self.layout.local_sizes
        )
        return out

    # -- global entry setting (VecSetValues / VecAssembly) -----------------------

    def set_option(self, name: str, value: bool = True,
                   guard: bool = True) -> None:
        """Set a vector option (``VecSetOption``).

        ``subset_off_proc_entries`` promises that, from now on, every
        assembly's off-rank pattern is the same as (or, under ``add``
        mode, a subset of) the first one -- the assembly communication
        plan is then cached and reused, skipping pattern discovery.  All
        ranks must set it to the same value.  ``guard`` keeps the cheap
        per-assembly agreement check that turns a broken promise into a
        uniform :class:`PlanMismatchError`; with ``guard=False`` reuse is
        blind and rank disagreement deadlocks, as PETSc documents for
        ``VEC_SUBSET_OFF_PROC_ENTRIES``.
        """
        if name != "subset_off_proc_entries":
            raise PETScError(f"unknown vector option {name!r}")
        self._subset_hint = bool(value)
        self._plan_guard = bool(guard)
        if not value:
            self._plan = None

    def set_values(self, indices, values, mode: str = "insert") -> None:
        """Stage entries by *global* index from any rank (``VecSetValues``).

        Entries for other ranks are stashed locally; call
        :meth:`assemble` (collectively) to ship them.  ``mode`` is
        ``"insert"`` or ``"add"`` and must be used consistently between
        assemblies.  Writing outside a cached assembly pattern
        invalidates the plan (see :meth:`set_option`).
        """
        rank = self.comm.rank
        if not isinstance(mode, str) or mode not in ("insert", "add"):
            raise PETScError(
                f"rank {rank}: unknown assembly mode {mode!r}; "
                f"use 'insert' or 'add'")
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        val = np.asarray(values, dtype=np.float64).reshape(-1)
        if idx.shape != val.shape:
            raise PETScError(
                f"rank {rank}: {idx.size} indices but {val.size} values "
                f"in set_values")
        if idx.size == 0:
            return
        bad = (idx < 0) | (idx >= self.layout.global_size)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise PETScError(
                f"rank {rank}: global index {int(idx[k])} out of range "
                f"[0, {self.layout.global_size}) in set_values")
        if np.isnan(val).any():
            k = int(np.flatnonzero(np.isnan(val))[0])
            raise PETScError(
                f"rank {rank}: NaN value for global index {int(idx[k])} "
                f"in set_values")
        stash = getattr(self, "_stash", None)
        if stash is None:
            stash = self._stash = {}
            self._stash_mode = mode
        elif self._stash_mode != mode:
            raise PETScError(
                f"rank {rank}: mixed assembly modes: "
                f"{self._stash_mode!r} then {mode!r}"
            )
        mine = self.layout.owned_mask(idx, rank)
        local = self.layout.to_local(idx[mine], rank)
        if mode == "insert":
            self.local[local] = val[mine]
        else:
            np.add.at(self.local, local, val[mine])
        plan = self._plan
        if plan is not None and mode != plan.mode:
            self._invalidate_plan("mode")
            plan = None
        for peer, sel in self.layout.group_by_owner(idx, np.flatnonzero(~mine)):
            if plan is not None and not plan.covers(peer, idx[sel]):
                self._invalidate_plan("pattern")
                plan = None
            stash.setdefault(peer, []).append(
                np.stack([idx[sel].astype(np.float64), val[sel]])
            )

    def _invalidate_plan(self, reason: str) -> None:
        if self._plan is None:
            return
        self._plan = None
        prof = self.comm.cluster.profiler
        if prof.enabled:
            prof.count("repro_plan_cache_invalidations_total",
                       labels={"reason": reason})

    def assemble(self) -> Generator:
        """Ship stashed off-rank entries to their owners (collective).

        Without ``subset_off_proc_entries`` every assembly *discovers*
        its pattern: a mode-agreement round plus a sparse exchange of the
        stashed (index, value) pairs.  With the option set the discovered
        plan is cached; a guarded reuse starts with one agreement
        reduction that either confirms every rank can reuse its plan
        (then goes straight to point-to-point transfers), falls back to
        uniform rediscovery (no rank has a plan yet), or raises
        :class:`PlanMismatchError` on every rank when the ranks disagree
        -- the case that silently deadlocks with ``guard=False``.
        """
        comm = self.comm
        stash = getattr(self, "_stash", None) or {}
        mode = getattr(self, "_stash_mode", "insert")
        prof = comm.cluster.profiler
        plan = self._plan
        if plan is not None and (plan.ctx != comm.ctx
                                 or plan.nranks != comm.size):
            # a shrink (or any migration to a different communicator)
            # invalidates the plan: peers and patterns changed
            self._invalidate_plan("communicator")
            plan = None
        record = False
        if self._subset_hint:
            if self._plan_guard:
                has = plan is not None
                ok = has and plan.conforms(stash, mode)
                fp = plan.fingerprint if has else 0
                state = (int(has), int(has), int(ok), fp, fp)
                any_has, all_have, all_ok, fp_lo, fp_hi = (
                    yield from comm.allreduce(state, op=_merge_plan_state))
                if any_has and not (all_have and all_ok and fp_lo == fp_hi):
                    self._invalidate_plan("disagree")
                    raise PlanMismatchError(
                        f"rank {comm.rank}: cached assembly plans disagree "
                        f"across ranks (has_plan={has}, conforms={bool(ok)}); "
                        f"some rank's stash left the pattern promised by "
                        f"subset_off_proc_entries -- clear the option or "
                        f"keep the pattern stable on every rank")
                if all_have:
                    yield from self._assemble_cached(plan, stash)
                    return
            elif plan is not None:
                # blind reuse: no agreement traffic at all -- and no
                # protection if some other rank took the discovery path
                yield from self._assemble_cached(plan, stash)
                return
            if prof.enabled:
                prof.count("repro_plan_cache_misses_total")
            record = True
        yield from self._assemble_discover(stash, mode, record)

    def _assemble_discover(self, stash: Dict[int, List[np.ndarray]],
                           mode: str, record: bool) -> Generator:
        """Pattern discovery: agree on the mode, then a sparse dynamic
        exchange of the stashed pairs (senders known, receivers
        discovered by the NBX algorithms)."""
        comm = self.comm
        # agree on the mode (mixed modes across ranks are an error in MPI
        # as well; detect instead of corrupting)
        modes = yield from comm.gather_obj(mode if stash else None, root=0)
        if comm.rank == 0:
            used = {m for m in modes if m is not None}
            # a conflict is broadcast (not raised here) so that *every*
            # rank raises in lockstep -- raising on root alone would leave
            # the other ranks blocked in the bcast below (SPMD102)
            if len(used) > 1:
                agreed = ("!conflict", tuple(sorted(used)))
            else:
                agreed = used.pop() if used else "insert"
        else:
            agreed = None
        agreed = yield from comm.bcast(agreed, root=0)
        if isinstance(agreed, tuple) and agreed and agreed[0] == "!conflict":
            raise PETScError(f"conflicting assembly modes: {set(agreed[1])}")
        payloads = {}
        for peer, blocks in sorted(stash.items()):
            payloads[peer] = np.ascontiguousarray(np.hstack(blocks).reshape(-1))
        received = yield from comm.sparse_alltoall(payloads)
        recv_counts: Dict[int, int] = {}
        for src in sorted(received):
            pairs = received[src].reshape(2, -1)
            idx = pairs[0].astype(np.int64)
            self._apply_pairs(idx, pairs[1], agreed)
            recv_counts[src] = int(np.unique(idx).size)
        if record:
            send_indices = {
                peer: np.unique(np.concatenate([b[0] for b in blocks])
                                .astype(np.int64))
                for peer, blocks in stash.items()
            }
            fingerprint = 0
            if self._plan_guard:
                local_sig = plan_signature(agreed, send_indices)
                fingerprint = yield from comm.allreduce(local_sig,
                                                        op=operator.xor)
            self._plan = CommPlan(agreed, send_indices, recv_counts,
                                  comm.ctx, comm.size, fingerprint)
        if hasattr(self, "_stash"):
            del self._stash
            del self._stash_mode

    def _assemble_cached(self, plan: CommPlan,
                         stash: Dict[int, List[np.ndarray]]) -> Generator:
        """Reuse the cached plan: no discovery, straight to transfers.

        The replay is one collective instance, so a peer crash surfaces
        as the same uniform ``RankFailedError`` a collective would raise;
        any failure also invalidates the plan (the pattern may outlive a
        shrink, the promise does not)."""
        comm = self.comm
        prof = comm.cluster.profiler
        if prof.enabled:
            prof.count("repro_plan_cache_hits_total")
        try:
            yield from instance(comm, "vec_assembly_cached",
                                (plan.fingerprint, plan.mode),
                                self._cached_exchange, plan, stash)
        except BaseException:
            self._invalidate_plan("failure")
            raise
        if hasattr(self, "_stash"):
            del self._stash
            del self._stash_mode

    def _cached_exchange(self, plan: CommPlan,
                         stash: Dict[int, List[np.ndarray]],
                         base: int) -> Generator:
        from repro.mpi.request import Request

        comm = self.comm
        requests = []
        incoming = []
        for src in sorted(plan.recv_counts):
            n_in = plan.recv_counts[src]
            if n_in and src != comm.rank:
                buf = np.empty(2 * n_in)
                incoming.append(buf)
                requests.append(comm.irecv(buf, src, base))
        for peer in sorted(plan.send_indices):
            idx_f, vals = plan.aligned_values(peer, stash.get(peer, []))
            payload = np.concatenate([idx_f, vals])
            requests.append((yield from comm.isend(payload, peer, base)))
        yield from Request.waitall(requests)
        for buf in incoming:
            pairs = buf.reshape(2, -1)
            self._apply_pairs(pairs[0].astype(np.int64), pairs[1], plan.mode)

    def _apply_pairs(self, idx: np.ndarray, vals: np.ndarray,
                     mode: str) -> None:
        local = self.layout.to_local(idx, self.comm.rank)
        if mode == "insert":
            self.local[local] = vals
        else:
            np.add.at(self.local, local, vals)
