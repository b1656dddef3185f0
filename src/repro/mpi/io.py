"""MPI-IO: file views with derived datatypes, independent and collective IO.

Parallel IO is the *other* great consumer of derived datatypes: each rank's
``set_view`` describes its noncontiguous slice of a shared file (the
``MPI_File_set_view`` + ``Create_vector`` idiom from the mpi4py tutorial),
and the IO layer must move that interleaved data efficiently.

Two paths are provided, mirroring ROMIO:

- **independent** (``write_at``/``read_at`` and plain ``write``/``read``):
  every contiguous file block of the view becomes its own file-system
  operation through the shared server -- interleaved views degenerate into
  storms of tiny ops,
- **collective two-phase** (``write_all``/``read_all``): ranks first
  redistribute data over the (fast) network so each *aggregator* holds one
  contiguous file region, then issue one large file-system operation each.
  The classic two-phase win for interleaved patterns falls out of the cost
  model: network beta is ~50x cheaper than an IO op.

The file system is simulated: one shared server resource (requests
serialise) with per-op latency and per-byte bandwidth from the
:class:`CostModel`; file contents are real bytes, so reads verify writes.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.datatypes.typemap import Contiguous, Datatype, Resized
from repro.mpi.comm import Comm, MPIError, as_typed
from repro.mpi.collectives import instance
from repro.mpi.request import Request
from repro.simtime.resources import Resource


class _SimFileSystem:
    """Cluster-wide shared store: named byte arrays + one server resource."""

    key = "_sim_fs"

    def __init__(self, cluster):
        self.files: Dict[str, np.ndarray] = {}
        self.server = Resource(cluster.engine, "fs-server")
        self.ops = 0
        self.bytes_moved = 0

    @classmethod
    def of(cls, cluster) -> "_SimFileSystem":
        fs = getattr(cluster, cls.key, None)
        if fs is None:
            fs = cls(cluster)
            setattr(cluster, cls.key, fs)
        return fs

    def ensure_size(self, name: str, nbytes: int) -> np.ndarray:
        arr = self.files.get(name)
        if arr is None:
            arr = np.zeros(max(nbytes, 1), dtype=np.uint8)
            self.files[name] = arr
        elif arr.size < nbytes:
            grown = np.zeros(nbytes, dtype=np.uint8)
            grown[: arr.size] = arr
            arr = self.files[name] = grown
        return arr

    def io(self, cost, nbytes: int) -> Generator:
        """One file-system operation of ``nbytes`` through the server."""
        self.ops += 1
        self.bytes_moved += nbytes
        yield from self.server.use(cost.io_op_latency + nbytes * cost.io_byte)


class File:
    """An open parallel file handle (per rank; open collectively)."""

    def __init__(self, comm: Comm, name: str, fs: _SimFileSystem):
        self.comm = comm
        self.name = name
        self._fs = fs
        self._disp = 0
        self._filetype: Optional[Datatype] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def open(cls, comm: Comm, name: str) -> Generator:
        """Collective open (creates the file if missing)."""
        fs = _SimFileSystem.of(comm.cluster)
        fs.ensure_size(name, 0)
        yield from comm.barrier()
        return cls(comm, name, fs)

    def close(self) -> Generator:
        """Collective close."""
        self._check_open()
        self._closed = True
        yield from self.comm.barrier()

    def _check_open(self):
        if self._closed:
            raise MPIError(f"file {self.name!r} is closed")

    # -- views -------------------------------------------------------------------

    def set_view(self, displacement: int, filetype: Optional[Datatype] = None) -> None:
        """This rank's window onto the file: the ``filetype`` tiled from
        byte ``displacement`` (``MPI_File_set_view``)."""
        self._check_open()
        if displacement < 0:
            raise MPIError("negative displacement")
        self._disp = int(displacement)
        self._filetype = filetype

    def _view_offsets(self, nbytes: int) -> Tuple[np.ndarray, np.ndarray]:
        """(offsets, lengths) of the first ``nbytes`` payload bytes of the
        view, as absolute file positions."""
        if self._filetype is None:
            return (np.array([self._disp], dtype=np.int64),
                    np.array([nbytes], dtype=np.int64))
        ft = self._filetype
        if nbytes % ft.size:
            raise MPIError(
                f"payload of {nbytes} B is not a whole number of filetypes "
                f"({ft.size} B each)"
            )
        tiles = nbytes // ft.size
        tiled = Contiguous(tiles, Resized(ft, ft.extent)) if tiles > 1 else ft
        blocks = tiled.flatten().shifted(self._disp)
        return blocks.offsets, blocks.lengths

    # -- independent IO --------------------------------------------------------------

    def write(self, buffer, datatype=None, count=None) -> Generator:
        """Independent write through the view: one file-system operation
        per contiguous view block."""
        self._check_open()
        tb = as_typed(buffer, datatype, count)
        data = tb.pack()
        offs, lens = self._view_offsets(tb.nbytes)
        arr = self._fs.ensure_size(self.name, int((offs + lens).max()) if len(offs) else 0)
        pos = 0
        for off, length in zip(offs.tolist(), lens.tolist()):
            arr[off:off + length] = data[pos:pos + length]
            pos += length
            yield from self._fs.io(self.comm.cost, length)

    def read(self, buffer, datatype=None, count=None) -> Generator:
        """Independent read through the view."""
        self._check_open()
        tb = as_typed(buffer, datatype, count)
        offs, lens = self._view_offsets(tb.nbytes)
        end = int((offs + lens).max()) if len(offs) else 0
        arr = self._fs.ensure_size(self.name, end)
        data = np.empty(tb.nbytes, dtype=np.uint8)
        pos = 0
        for off, length in zip(offs.tolist(), lens.tolist()):
            data[pos:pos + length] = arr[off:off + length]
            pos += length
            yield from self._fs.io(self.comm.cost, length)
        tb.unpack(data)

    def write_at(self, offset: int, buffer, datatype=None, count=None) -> Generator:
        """Independent contiguous write at an explicit byte offset
        (ignores the view)."""
        self._check_open()
        tb = as_typed(buffer, datatype, count)
        data = tb.pack()
        arr = self._fs.ensure_size(self.name, offset + tb.nbytes)
        arr[offset:offset + tb.nbytes] = data
        yield from self._fs.io(self.comm.cost, tb.nbytes)

    def read_at(self, offset: int, buffer, datatype=None, count=None) -> Generator:
        self._check_open()
        tb = as_typed(buffer, datatype, count)
        arr = self._fs.ensure_size(self.name, offset + tb.nbytes)
        yield from self._fs.io(self.comm.cost, tb.nbytes)
        tb.unpack(arr[offset:offset + tb.nbytes])

    # -- collective two-phase IO ----------------------------------------------------------

    def write_all(self, buffer, datatype=None, count=None) -> Generator:
        """Collective two-phase write: redistribute over the network so
        every rank writes one contiguous file region."""
        self._check_open()
        comm = self.comm
        tb = as_typed(buffer, datatype, count)
        data = tb.pack()
        offs, lens = self._view_offsets(tb.nbytes)
        yield from instance(comm, "io_collective", None, self._two_phase,
                            offs, lens, data, True, None)

    def read_all(self, buffer, datatype=None, count=None) -> Generator:
        """Collective two-phase read."""
        self._check_open()
        tb = as_typed(buffer, datatype, count)
        offs, lens = self._view_offsets(tb.nbytes)
        yield from instance(self.comm, "io_collective", None, self._two_phase,
                            offs, lens, None, False, tb)

    def _two_phase(self, offs, lens, data, write: bool, out_tb,
                   base: int) -> Generator:
        """One two-phase exchange, run as the collective instance whose
        tag window starts at ``base``."""
        comm = self.comm
        my_lo = int(offs.min()) if len(offs) else 0
        my_hi = int((offs + lens).max()) if len(offs) else 0
        extents = yield from comm.gather_obj((my_lo, my_hi), root=0)
        extents = yield from comm.bcast(extents, root=0)
        lo = min(e[0] for e in extents)
        hi = max(e[1] for e in extents)
        if hi <= lo:
            return
        # aggregator r owns file bytes [bounds[r], bounds[r+1])
        n = comm.size
        span = hi - lo
        bounds = [lo + span * r // n for r in range(n + 1)]
        my_chunk = np.zeros(max(1, bounds[comm.rank + 1] - bounds[comm.rank]),
                            dtype=np.uint8)

        # split my view blocks by aggregator, preserving payload order
        ends = np.cumsum(lens)
        starts = ends - lens
        bounds_arr = np.asarray(bounds, dtype=np.int64)
        pieces: Dict[int, List[tuple]] = {}
        for off, length, p0 in zip(offs.tolist(), lens.tolist(), starts.tolist()):
            pos = off
            while pos < off + length:
                agg = int(np.searchsorted(bounds_arr, pos, side="right")) - 1
                agg = min(n - 1, max(0, agg))
                agg_end = bounds[agg + 1]
                take = min(off + length, agg_end) - pos
                pieces.setdefault(agg, []).append(
                    (pos, take, p0 + (pos - off))
                )
                pos += take

        requests: List[Request] = []
        incoming: List[tuple] = []
        # metadata: how many pieces / bytes each peer will send me
        out_meta = np.zeros(n * 2)
        for agg, plist in pieces.items():
            out_meta[2 * agg] = len(plist)
            out_meta[2 * agg + 1] = sum(t[1] for t in plist)
        in_meta = np.zeros(n * 2)
        yield from comm.alltoall(out_meta, in_meta, 2)
        for peer in range(n):
            npieces = int(in_meta[2 * peer])
            nbytes = int(in_meta[2 * peer + 1])
            if npieces == 0:
                continue
            head = np.empty(2 * npieces)
            payload = np.empty(nbytes, dtype=np.uint8) if write else None
            incoming.append((peer, head, payload, nbytes))
            requests.append(comm.irecv(head, peer, base))
            if write:
                requests.append(comm.irecv(payload, peer, base + 1))
        for agg, plist in sorted(pieces.items()):
            head = np.array(
                [v for (pos, take, _p) in plist for v in (pos, take)],
                dtype=np.float64,
            )
            requests.append((yield from comm.isend(head, agg, base)))
            if write:
                chunks = [data[p:p + take] for (pos, take, p) in plist]
                payload = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint8)
                requests.append((yield from comm.isend(payload, agg, base + 1)))
        yield from Request.waitall(requests)

        arr = self._fs.ensure_size(self.name, hi)
        chunk_lo = bounds[comm.rank]
        chunk_hi = bounds[comm.rank + 1]
        if write:
            for peer, head, payload, _nb in incoming:
                meta = head.reshape(-1, 2).astype(np.int64)
                pos = 0
                for fpos, take in meta:
                    my_chunk[fpos - chunk_lo:fpos - chunk_lo + take] = \
                        payload[pos:pos + take]
                    pos += take
            if chunk_hi > chunk_lo:
                arr[chunk_lo:chunk_hi] = my_chunk[: chunk_hi - chunk_lo]
                yield from self._fs.io(comm.cost, chunk_hi - chunk_lo)
        else:
            if chunk_hi > chunk_lo:
                yield from self._fs.io(comm.cost, chunk_hi - chunk_lo)
                my_chunk[: chunk_hi - chunk_lo] = arr[chunk_lo:chunk_hi]
            # answer each requester with its pieces
            answers: List[Request] = []
            recvs: List[tuple] = []
            for peer, head, _payload, nbytes in incoming:
                meta = head.reshape(-1, 2).astype(np.int64)
                out = np.concatenate([
                    my_chunk[fpos - chunk_lo:fpos - chunk_lo + take]
                    for fpos, take in meta
                ]) if len(meta) else np.empty(0, dtype=np.uint8)
                answers.append((yield from comm.isend(out, peer, base + 2)))
            # receive my pieces back, in aggregator order
            total_in = sum(sum(t[1] for t in plist) for plist in pieces.values())
            assembled = np.empty(total_in, dtype=np.uint8)
            back: List[tuple] = []
            for agg, plist in sorted(pieces.items()):
                nbytes = sum(t[1] for t in plist)
                buf = np.empty(nbytes, dtype=np.uint8)
                back.append((agg, plist, buf))
                recvs.append(comm.irecv(buf, agg, base + 2))
            yield from Request.waitall(recvs + answers)
            data_out = np.empty(int(np.sum(lens)), dtype=np.uint8)
            for agg, plist, buf in back:
                pos = 0
                for fpos, take, p in plist:
                    data_out[p:p + take] = buf[pos:pos + take]
                    pos += take
            out_tb.unpack(data_out)
