"""The definition-level reference for derived datatypes.

``typemap`` enumerates MPI's *typemap* -- one ``(byte displacement, size)``
entry per primitive, in definition (= pack) order -- straight from the text
of the type-creation calls, with plain python loops.  It reads only the
constructor arguments a datatype stores (never ``_build_ir``, the IR, a plan
or a ``BlockList``), so it shares no translation with the code under test.
Everything else here is that list in another shape.
"""

from itertools import product
from math import prod

import numpy as np

from repro.datatypes import (
    Contiguous,
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


def typemap(dt, origin=0):
    """``[(displacement, nbytes), ...]`` of one instance placed at ``origin``."""
    if isinstance(dt, Primitive):
        return [(origin, dt.size)]
    if isinstance(dt, Resized):
        return typemap(dt.base, origin)
    if isinstance(dt, Struct):
        return [entry
                for n, disp, t in zip(dt.blocklengths, dt.byte_displacements, dt.types)
                for j in range(n)
                for entry in typemap(t, origin + disp + j * t.extent)]
    ext = dt.base.extent
    if isinstance(dt, Contiguous):
        starts = [i * ext for i in range(dt.count)]
    elif isinstance(dt, Vector):
        starts = [(i * dt.stride + j) * ext
                  for i in range(dt.count) for j in range(dt.blocklength)]
    elif isinstance(dt, HVector):
        starts = [i * dt.stride_bytes + j * ext
                  for i in range(dt.count) for j in range(dt.blocklength)]
    elif isinstance(dt, Indexed):
        starts = [(disp + j) * ext
                  for n, disp in zip(dt.blocklengths.tolist(), dt.displacements.tolist())
                  for j in range(n)]
    elif isinstance(dt, HIndexed):
        starts = [disp + j * ext
                  for n, disp in zip(dt.blocklengths.tolist(),
                                     dt.byte_displacements.tolist())
                  for j in range(n)]
    elif isinstance(dt, IndexedBlock):
        starts = [(disp + j) * ext
                  for disp in dt.displacements.tolist() for j in range(dt.blocklength)]
    elif isinstance(dt, Subarray):
        # element (i_0..i_k) of the selection sits at array index
        # (start_d + i_d) in every dimension; C order runs the last
        # dimension fastest in memory *and* in the typemap, F the first
        ndim = len(dt.sizes)
        if dt.order == "C":
            strides = [prod(dt.sizes[d + 1:]) for d in range(ndim)]
            indices = product(*(range(n) for n in dt.subsizes))
        else:
            strides = [prod(dt.sizes[:d]) for d in range(ndim)]
            indices = (idx[::-1] for idx in
                       product(*(range(n) for n in dt.subsizes[::-1])))
        starts = [sum((st + i) * sd for st, i, sd in zip(dt.starts, idx, strides)) * ext
                  for idx in indices]
    else:
        raise AssertionError(type(dt))
    return [entry for s in starts for entry in typemap(dt.base, origin + s)]


def buffer_typemap(dt, count=1, offset_bytes=0):
    """The typemap of ``count`` instances at ``buf + offset_bytes``."""
    return [entry for i in range(count)
            for entry in typemap(dt, offset_bytes + i * dt.extent)]


def reference_pack(bts, dt, count=1, offset_bytes=0):
    """The packed stream: every typemap entry's bytes, in order."""
    parts = [bts[off:off + n] for off, n in buffer_typemap(dt, count, offset_bytes)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)


def reference_unpack(bts, dt, data, count=1, offset_bytes=0):
    """Scatter ``data`` entry by entry -- sequential, so an overlapped
    target keeps the last write."""
    pos = 0
    for off, n in buffer_typemap(dt, count, offset_bytes):
        bts[off:off + n] = data[pos:pos + n]
        pos += n
    assert pos == len(data)


def reference_blocks(dt, count=1):
    """The typemap with abutting neighbours fused: ``[[offset, length], ...]``."""
    blocks = []
    for off, n in buffer_typemap(dt, count):
        if blocks and blocks[-1][0] + blocks[-1][1] == off:
            blocks[-1][1] += n
        else:
            blocks.append([off, n])
    return blocks
