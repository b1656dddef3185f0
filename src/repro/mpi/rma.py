"""One-sided communication (MPI-2 RMA): windows, put/get/accumulate.

The paper's related-work section cites several InfiniBand RDMA designs for
MPI datatype communication (Wu et al. [24], Santhanaraman et al. [19],
Tipparaju et al. [23]); this module models the design space they explore
for a noncontiguous **put**:

- ``method="pack"`` (host-assisted): the origin packs into a contiguous
  buffer, ships ONE message, and the *target host CPU* scatters it into
  place -- cheap on the wire, but not zero-copy and it burns target cycles,
- ``method="multi_rdma"`` (zero-copy): one RDMA operation per contiguous
  block of the target layout -- no target CPU at all, but each block pays
  the RDMA initiation cost, so sparse layouts flood the NIC with tiny ops.

``benchmarks/test_rma_datatype.py`` sweeps block size to reproduce the
crossover between the two, the central trade-off of that literature.

Synchronisation follows MPI: **fence** epochs (collective; all outstanding
operations complete at the fence) and passive-target **lock/unlock**
(exclusive per target, FIFO).  Functional semantics: the bytes land in the
target's exposed numpy array when the operation completes.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.datatypes.engine import copy_seconds, engine_for
from repro.datatypes.packing import TypedBuffer
from repro.mpi.comm import Comm, MPIError, as_typed, timed_pack, timed_unpack
from repro.simtime.engine import Delay, SimProcess
from repro.simtime.resources import Resource


class Win:
    """An RMA window: one exposed array per rank of the communicator.

    Create collectively with :meth:`create`; all ranks share the returned
    handle semantics but each holds its own instance.
    """

    _registry_key = "_rma_windows"

    def __init__(self, comm: Comm, win_id: int, exposed: List[np.ndarray],
                 locks: List[Resource]):
        self.comm = comm
        self.win_id = win_id
        self._exposed = exposed
        self._locks = locks
        self._pending: List[SimProcess] = []

    # -- creation -------------------------------------------------------------

    @classmethod
    def create(cls, comm: Comm, local_array: np.ndarray) -> Generator:
        """Collective window creation: every rank exposes ``local_array``."""
        arr = np.asarray(local_array)
        if not arr.flags.c_contiguous:
            raise MPIError("exposed array must be C-contiguous")
        registry = getattr(comm.cluster, cls._registry_key, None)
        if registry is None:
            registry = {}
            setattr(comm.cluster, cls._registry_key, registry)
        seq = getattr(comm, "_win_seq", 0)
        comm._win_seq = seq + 1
        key = (comm.ctx, seq)
        entry = registry.setdefault(
            key,
            {
                "arrays": [None] * comm.size,
                "locks": [Resource(comm.engine, f"winlock{key}-{r}")
                          for r in range(comm.size)],
            },
        )
        entry["arrays"][comm.rank] = arr
        yield from comm.barrier()  # exposure epoch starts collectively
        return cls(comm, seq, entry["arrays"], entry["locks"])

    # -- data movement ------------------------------------------------------------

    def _target_tb(self, target_rank: int, datatype, count, offset_bytes) -> TypedBuffer:
        if not 0 <= target_rank < self.comm.size:
            raise MPIError(f"invalid target rank {target_rank}")
        target_arr = self._exposed[target_rank]
        if target_arr is None:
            raise MPIError(f"rank {target_rank} exposed no array")
        return as_typed(target_arr, datatype, count, offset_bytes)

    def put(
        self,
        origin,
        target_rank: int,
        target_datatype=None,
        target_count: Optional[int] = None,
        target_offset_bytes: int = 0,
        method: str = "pack",
    ) -> Generator:
        """Write origin data into the target's exposed array.

        Nonblocking in the MPI sense: completion is only guaranteed at the
        next :meth:`fence` (or :meth:`unlock`).  ``method`` selects the
        noncontiguous strategy (see module docstring).
        """
        if method not in ("pack", "multi_rdma"):
            raise MPIError(f"unknown RMA method {method!r}")
        origin_tb = as_typed(origin)
        target_tb = self._target_tb(
            target_rank, target_datatype, target_count, target_offset_bytes
        )
        if origin_tb.nbytes != target_tb.nbytes:
            raise MPIError(
                f"put size mismatch: origin {origin_tb.nbytes} B, "
                f"target {target_tb.nbytes} B"
            )
        data = timed_pack(self.comm.cluster.profiler, origin_tb)
        proc = self.comm.engine.spawn(
            self._do_put(data, origin_tb, target_tb, target_rank, method),
            f"rma-put->{target_rank}",
        )
        self._pending.append(proc)
        yield Delay(0.0)

    def _do_put(self, data, origin_tb, target_tb, target_rank, method) -> Generator:
        # a background process: every CPU charge goes on the "io" lane
        comm = self.comm
        cluster = comm.cluster
        cost = comm.cost
        src = comm.grank
        dst = comm._to_global(target_rank)
        # origin-side datatype processing (same engines as two-sided)
        if not origin_tb.is_contiguous():
            engine = engine_for(origin_tb, cost,
                                comm.config.dual_context_engine)
            yield from cluster.cpu(src, engine.cpu_s, "pack", lane="io")
        if method == "pack" or target_tb.is_contiguous():
            yield from comm.net.transfer(src, dst, target_tb.nbytes)
            if not target_tb.is_contiguous():
                # host-assisted: the TARGET CPU scatters the data
                yield from cluster.cpu(dst, copy_seconds(target_tb, cost),
                                       "pack", name="unpack", lane="io")
        else:
            # zero-copy: one RDMA op per contiguous target block, each
            # paying the (cheaper) RDMA initiation instead of full alpha
            blocks = target_tb.blocks
            for length in blocks.lengths.tolist():
                yield from comm.net.transfer(
                    src, dst, int(length), latency=cost.rdma_alpha
                )
        timed_unpack(cluster.profiler, target_tb, data)

    def get(
        self,
        origin,
        target_rank: int,
        target_datatype=None,
        target_count: Optional[int] = None,
        target_offset_bytes: int = 0,
    ) -> Generator:
        """Read the target's exposed data into the origin buffer
        (completes at the next fence/unlock)."""
        origin_tb = as_typed(origin)
        target_tb = self._target_tb(
            target_rank, target_datatype, target_count, target_offset_bytes
        )
        if origin_tb.nbytes != target_tb.nbytes:
            raise MPIError("get size mismatch")
        proc = self.comm.engine.spawn(
            self._do_get(origin_tb, target_tb, target_rank),
            f"rma-get<-{target_rank}",
        )
        self._pending.append(proc)
        yield Delay(0.0)

    def _do_get(self, origin_tb, target_tb, target_rank) -> Generator:
        comm = self.comm
        prof = comm.cluster.profiler
        src = comm._to_global(target_rank)  # data flows target -> origin
        dst = comm.grank
        yield from comm.net.transfer(src, dst, target_tb.nbytes)
        data = timed_pack(prof, target_tb)
        if not origin_tb.is_contiguous():
            yield from comm.cluster.cpu(dst, copy_seconds(origin_tb, comm.cost),
                                        "pack", name="unpack", lane="io")
        timed_unpack(prof, origin_tb, data)

    def accumulate(
        self,
        origin,
        target_rank: int,
        target_datatype=None,
        target_count: Optional[int] = None,
        target_offset_bytes: int = 0,
    ) -> Generator:
        """Atomic elementwise-sum into the target (MPI_Accumulate, MPI_SUM);
        serialised per target through the window lock."""
        origin_tb = as_typed(origin)
        target_tb = self._target_tb(
            target_rank, target_datatype, target_count, target_offset_bytes
        )
        if origin_tb.nbytes != target_tb.nbytes:
            raise MPIError("accumulate size mismatch")
        data = timed_pack(self.comm.cluster.profiler, origin_tb)
        proc = self.comm.engine.spawn(
            self._do_accumulate(data, target_tb, target_rank),
            f"rma-acc->{target_rank}",
        )
        self._pending.append(proc)
        yield Delay(0.0)

    def _do_accumulate(self, data, target_tb, target_rank) -> Generator:
        comm = self.comm
        cluster = comm.cluster
        dst = comm._to_global(target_rank)
        lock = self._locks[target_rank]
        yield from lock.acquire()
        try:
            yield from comm.net.transfer(comm.grank, dst, target_tb.nbytes)
            # MPI_SUM in the element type of the exposed array
            elem = target_tb.buffer.dtype
            current = timed_pack(cluster.profiler, target_tb)
            summed = current.view(elem) + data.view(elem)
            timed_unpack(cluster.profiler, target_tb, summed.view(np.uint8))
            yield from cluster.cpu(dst, target_tb.nbytes * comm.cost.copy_byte,
                                   lane="io")
        finally:
            lock.release()

    # -- synchronisation -------------------------------------------------------------

    def _drain(self) -> Generator:
        pending, self._pending = self._pending, []
        for proc in pending:
            yield proc

    def fence(self) -> Generator:
        """Close the current epoch: complete all local operations, then
        synchronise everyone (collective)."""
        yield from self._drain()
        yield from self.comm.barrier()

    def lock(self, target_rank: int) -> Generator:
        """Begin a passive-target exclusive access epoch."""
        yield from self._locks[target_rank].acquire()

    def unlock(self, target_rank: int) -> Generator:
        """Complete outstanding ops and release the passive-target lock."""
        yield from self._drain()
        self._locks[target_rank].release()
