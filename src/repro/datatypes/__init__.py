"""MPI derived datatypes and the two pack-engine designs.

This package is the heart of the paper's first contribution (sections 3.1 and
4.1):

- :mod:`repro.datatypes.typemap` -- the datatype constructors
  (``Contiguous``, ``Vector``, ``Indexed``, ``Struct``, ``Subarray``, ...),
  mirroring MPI's type-creation calls,
- :mod:`repro.datatypes.ir` -- the datatype compiler: every constructor
  tree compiles to a canonical strided-block IR in one bottom-up sweep
  (equivalent specs reach identical IR); plans are memoized process-wide by
  structural signature, and the bulk-copy program packing executes is
  lowered from the plan the first time it is needed,
- :mod:`repro.datatypes.flatten` -- the contiguous-block stream
  (``BlockList``) the cost engines walk, read off the compiled plan,
- :mod:`repro.datatypes.packing` -- functional packing/unpacking: bytes
  really move between user buffers and contiguous wire buffers by
  executing compiled copy programs,
- :mod:`repro.datatypes.engine` -- the *cost* side: the baseline
  single-context engine (whose density look-ahead loses the pack context and
  must re-search, quadratically) and the paper's dual-context look-ahead
  engine.
"""

from repro.datatypes import ir
from repro.datatypes.typemap import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    Contiguous,
    Datatype,
    DatatypeError,
    HIndexed,
    HVector,
    Indexed,
    IndexedBlock,
    Primitive,
    Resized,
    Struct,
    Subarray,
    Vector,
)
from repro.datatypes.flatten import BlockList
from repro.datatypes.packing import TypedBuffer
from repro.datatypes.engine import (
    DualContextEngine,
    PackStage,
    SingleContextEngine,
    copy_seconds,
    engine_for,
)

__all__ = [
    "BYTE",
    "CHAR",
    "DOUBLE",
    "FLOAT",
    "INT",
    "LONG",
    "BlockList",
    "Contiguous",
    "Datatype",
    "DatatypeError",
    "DualContextEngine",
    "HIndexed",
    "HVector",
    "Indexed",
    "IndexedBlock",
    "PackStage",
    "Primitive",
    "Resized",
    "SingleContextEngine",
    "Struct",
    "Subarray",
    "TypedBuffer",
    "Vector",
    "copy_seconds",
    "engine_for",
    "ir",
]
