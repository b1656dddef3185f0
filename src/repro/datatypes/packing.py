"""Functional packing and unpacking of typed buffers.

Bytes really move in this repository: a :class:`TypedBuffer` binds a datatype
(+ count) to a numpy buffer and can gather its noncontiguous payload into one
contiguous array (``pack``) or scatter a contiguous array back out
(``unpack``).  The MPI layer transfers those contiguous bytes between ranks,
so every simulated experiment doubles as a data-correctness test.

Data movement executes the :class:`repro.datatypes.ir.CopyProgram` compiled
(and memoized process-wide) for the buffer's ``(datatype, count)`` structure:
bulk slice copies and 2-D strided views for regular layouts, one cached
gather index for irregular ones.  The legacy element-gather path
(:meth:`TypedBuffer.pack_legacy`) is retained as the differential-testing
reference -- the fuzz suite asserts both move identical bytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datatypes import ir as _ir
from repro.datatypes.flatten import BlockList
from repro.datatypes.typemap import (
    Datatype,
    DatatypeError,
    TypeSignature,
    _rle_repeat,
    sig_crc,
)


def _gather_index(blocks: BlockList) -> tuple[np.ndarray, int]:
    """(index array, granularity): positions of payload units in the buffer.

    ``index[i]`` is the buffer position (in units of ``granularity`` bytes)
    of the i-th payload unit of the packed stream.
    """
    gran = blocks.granularity()
    offs = blocks.offsets // gran
    lens = blocks.lengths // gran
    total = int(lens.sum())
    # classic vectorised "ragged ranges" construction:
    # index = concat(arange(off, off+len) for each block)
    ends = np.cumsum(lens)
    starts = ends - lens
    index = np.arange(total, dtype=np.int64) + np.repeat(offs - starts, lens)
    return index, gran


class TypedBuffer:
    """``(buffer, count, datatype)`` -- the MPI communication triple.

    ``buffer`` may be any C-contiguous numpy array; ``offset_bytes`` lets a
    view start inside it (MPI's ``buf + displacement`` idiom).
    """

    def __init__(
        self,
        buffer: np.ndarray,
        datatype: Datatype,
        count: int = 1,
        offset_bytes: int = 0,
    ):
        if count < 0:
            raise DatatypeError(f"count must be >= 0, got {count}")
        self.buffer = np.asarray(buffer)
        self.datatype = datatype
        self.count = count
        self.offset_bytes = int(offset_bytes)
        if not self.buffer.flags.c_contiguous:
            raise DatatypeError("buffer must be C-contiguous")
        self._bytes = self.buffer.reshape(-1).view(np.uint8)
        self._plan: Optional[_ir.CompiledPlan] = None
        self._blocks: Optional[BlockList] = None
        self.nbytes = 0  #: payload size in bytes
        if count:
            # payload size and size bound come off the shared plan: no
            # per-buffer numpy reduction, contiguous or not
            plan = self._plan = _ir.compile_datatype(datatype, count)
            shared = plan.blocks
            self._blocks = (shared.shifted(self.offset_bytes)
                            if self.offset_bytes else shared)
            self.nbytes = shared.size
            end_needed = plan.end_bytes + self.offset_bytes
            if end_needed > self._bytes.size:
                raise DatatypeError(
                    f"buffer too small: datatype needs {end_needed} bytes, "
                    f"buffer has {self._bytes.size}"
                )
        self._index: Optional[np.ndarray] = None
        self._gran: int = 1

    # -- properties ----------------------------------------------------------

    @property
    def blocks(self) -> BlockList:
        if self._blocks is None:
            raise DatatypeError("zero-count buffer has no blocks")
        return self._blocks

    def is_contiguous(self) -> bool:
        return self._blocks is not None and self._blocks.num_blocks == 1

    @property
    def num_blocks(self) -> int:
        """Contiguous blocks in the flattened layout (0 for zero-count)."""
        return 0 if self._blocks is None else self._blocks.num_blocks

    @property
    def plan(self) -> Optional[_ir.CompiledPlan]:
        """The shared compiled plan (None for zero-count buffers)."""
        return self._plan

    def layout_summary(self) -> dict:
        """Compact layout description (used as profiling span attributes)."""
        if self._blocks is None:
            return {"nbytes": 0, "blocks": 0, "mean_block": 0.0,
                    "contiguous": True}
        nb = self._blocks.num_blocks
        summary = {
            "nbytes": self._blocks.size,
            "blocks": nb,
            "mean_block": self._blocks.size / nb,
            "contiguous": nb == 1,
        }
        if self._plan is not None:
            summary.update(self._plan.info())
        return summary

    def signature(self) -> TypeSignature:
        """The MPI type signature of the whole buffer (count copies)."""
        plan = self._plan
        if plan is None:
            return ()
        if plan.signature is None:
            # a function of (struct_key, count) alone, so memoised on the
            # shared plan like the blocks and the copy program
            plan.signature = _rle_repeat(self.datatype.typemap_signature(),
                                         self.count)
        return plan.signature

    def signature_hash(self) -> int:
        """Stable 32-bit hash of :meth:`signature` (0 for zero-count)."""
        if self.count == 0:
            return 0
        return sig_crc(self.signature())

    def _ensure_index(self) -> None:
        if self._index is None and self._blocks is not None:
            self._index, self._gran = _gather_index(self._blocks)

    # -- data movement ---------------------------------------------------------

    def pack(self) -> np.ndarray:
        """Gather the payload into a fresh contiguous uint8 array by
        executing the compiled copy program."""
        if self._plan is None:
            return np.empty(0, dtype=np.uint8)
        return self._plan.program.pack(self._bytes, self.offset_bytes)

    def pack_legacy(self) -> np.ndarray:
        """The pre-IR element-gather pack (kept as the differential oracle)."""
        if self._blocks is None:
            return np.empty(0, dtype=np.uint8)
        if self._blocks.num_blocks == 1:
            off = int(self._blocks.offsets[0])
            return self._bytes[off : off + self.nbytes].copy()
        self._ensure_index()
        if self._gran > 1:
            units = self._unit_view()
            packed = units[self._index]
            return packed.view(np.uint8).reshape(-1)
        return self._bytes[self._index].copy()

    def _unit_view(self) -> np.ndarray:
        """Void view at pack granularity.

        Every block offset and end is a multiple of the granularity, so
        trimming the tail remainder of the byte view never cuts a block.
        """
        usable = self._bytes.size - self._bytes.size % self._gran
        return self._bytes[:usable].view(np.dtype((np.void, self._gran)))

    def unpack(self, data: np.ndarray) -> None:
        """Scatter contiguous ``data`` (uint8) back into the typed layout by
        executing the compiled copy program."""
        data = np.asarray(data).reshape(-1).view(np.uint8)
        if data.size != self.nbytes:
            raise DatatypeError(
                f"unpack size mismatch: got {data.size} bytes, type holds {self.nbytes}"
            )
        if self._plan is None:
            return
        self._plan.program.unpack(self._bytes, self.offset_bytes, data)

    def unpack_legacy(self, data: np.ndarray) -> None:
        """The pre-IR element-scatter unpack (the differential oracle)."""
        data = np.asarray(data).reshape(-1).view(np.uint8)
        if data.size != self.nbytes:
            raise DatatypeError(
                f"unpack size mismatch: got {data.size} bytes, type holds {self.nbytes}"
            )
        if self._blocks is None:
            return
        if self._blocks.num_blocks == 1:
            off = int(self._blocks.offsets[0])
            self._bytes[off : off + self.nbytes] = data
            return
        self._ensure_index()
        if self._gran > 1:
            units = self._unit_view()
            units[self._index] = data.view(np.dtype((np.void, self._gran)))
        else:
            self._bytes[self._index] = data

    def extract(self) -> np.ndarray:
        """Alias of :meth:`pack` (reads the payload without sending it)."""
        return self.pack()
