"""Index sets (PETSc's ``IS``).

An index set names global vector entries.  Two flavours mirror PETSc:
``GeneralIS`` (explicit indices) and ``StrideIS`` (first/step/count).
Index sets here are *replicated*: every rank constructs the same set, which
is how the scatter build avoids a setup communication round (documented
substitution -- PETSc distributes its IS, but the communication structure
derived from it is identical).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.petsc.vec import PETScError


class IS:
    """Base index set; concrete sets implement :meth:`indices`."""

    def indices(self) -> np.ndarray:
        """The global indices, in set order, as an int64 array."""
        raise NotImplementedError  # pragma: no cover - abstract

    def __len__(self) -> int:
        return len(self.indices())

    def validate_against(self, global_size: int) -> None:
        idx = self.indices()
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= global_size:
            raise PETScError(
                f"index set touches [{idx.min()}, {idx.max()}] outside a "
                f"global size of {global_size}"
            )


class GeneralIS(IS):
    """Explicit list of global indices (``ISCreateGeneral``)."""

    def __init__(self, indices: Sequence[int]):
        self._indices = np.asarray(indices, dtype=np.int64)
        if self._indices.ndim != 1:
            raise PETScError("indices must be 1-D")

    def indices(self) -> np.ndarray:
        return self._indices


class StrideIS(IS):
    """first, first+step, ... (``ISCreateStride``)."""

    def __init__(self, count: int, first: int = 0, step: int = 1):
        if count < 0:
            raise PETScError(f"negative count {count}")
        if step == 0 and count > 1:
            raise PETScError("zero step")
        self.count = count
        self.first = first
        self.step = step

    def indices(self) -> np.ndarray:
        return self.first + self.step * np.arange(self.count, dtype=np.int64)
