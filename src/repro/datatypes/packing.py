"""Functional packing and unpacking of typed buffers.

Bytes really move in this repository: a :class:`TypedBuffer` binds a datatype
(+ count) to a numpy buffer and can gather its noncontiguous payload into one
contiguous array (``pack``) or scatter a contiguous array back out
(``unpack``).  The MPI layer transfers those contiguous bytes between ranks,
so every simulated experiment doubles as a data-correctness test.

Data movement executes the :class:`repro.datatypes.ir.CopyProgram` compiled
(and memoized process-wide) for the buffer's ``(datatype, count)`` structure:
bulk slice copies and one N-D strided view per disjoint loop nest for
regular layouts, one cached gather index for irregular ones.  That plan is also the buffer's only source
of layout, bounds and signature; the test-suite checks the bytes it moves
against the typemap enumerated from the MPI definitions
(``tests/_dtype_oracle.py``).
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


class TypedBuffer:
    """``(buffer, count, datatype)`` -- the MPI communication triple.

    ``buffer`` may be any C-contiguous numpy array; ``offset_bytes`` lets a
    view start inside it (MPI's ``buf + displacement`` idiom).  The layout
    (:attr:`blocks`) is the shared plan's, relative to ``offset_bytes``; the
    copy program applies the offset when it executes.
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
        self.nbytes = 0  #: payload size in bytes
        if count:
            # payload size and both bounds come off the shared plan, which
            # has them in closed form from the IR: nothing is expanded here
            plan = self._plan = _ir.compile_datatype(datatype, count)
            self.nbytes = plan.nbytes
            end_needed = plan.end_bytes + self.offset_bytes
            if end_needed > self._bytes.size:
                raise DatatypeError(
                    f"buffer too small: datatype needs {end_needed} bytes, "
                    f"buffer has {self._bytes.size}"
                )
            start = plan.start_bytes + self.offset_bytes
            if start < 0:
                raise DatatypeError(
                    f"datatype reaches {-start} bytes before the buffer start"
                )

    # -- properties ----------------------------------------------------------

    @property
    def blocks(self) -> BlockList:
        """The plan's block stream itself: offsets are relative to
        ``offset_bytes``, not to the start of ``buffer``."""
        if self._plan is None:
            raise DatatypeError("zero-count buffer has no blocks")
        return self._plan.blocks

    def is_contiguous(self) -> bool:
        return self._plan is not None and self._plan.contiguous

    @property
    def plan(self) -> Optional[_ir.CompiledPlan]:
        """The shared compiled plan (None for zero-count buffers)."""
        return self._plan

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

    # -- data movement ---------------------------------------------------------

    def pack(self) -> np.ndarray:
        """Gather the payload into a fresh contiguous uint8 array by
        executing the compiled copy program."""
        if self._plan is None:
            return np.empty(0, dtype=np.uint8)
        return self._plan.program.pack(self._bytes, self.offset_bytes)

    def unpack(self, data: np.ndarray) -> None:
        """Scatter contiguous ``data`` (uint8) back into the typed layout by
        executing the compiled copy program."""
        data = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
        if data.size != self.nbytes:
            raise DatatypeError(
                f"unpack size mismatch: got {data.size} bytes, type holds {self.nbytes}"
            )
        if self._plan is None:
            return
        self._plan.program.unpack(self._bytes, self.offset_bytes, data)

