"""MPI derived-datatype constructors.

Mirrors the MPI type-creation calls the paper exercises:

=====================  =============================================
This module            MPI equivalent
=====================  =============================================
``Primitive``          ``MPI_DOUBLE``, ``MPI_INT``, ...
``Contiguous``         ``MPI_Type_contiguous``
``Vector``             ``MPI_Type_vector``
``HVector``            ``MPI_Type_create_hvector``
``Indexed``            ``MPI_Type_indexed``
``HIndexed``           ``MPI_Type_create_hindexed``
``IndexedBlock``       ``MPI_Type_create_indexed_block``
``Struct``             ``MPI_Type_create_struct``
``Subarray``           ``MPI_Type_create_subarray``
``Resized``            ``MPI_Type_create_resized``
=====================  =============================================

Every datatype knows its ``size`` (payload bytes) and ``extent`` (span
including holes) and translates itself -- once, in ``_build_ir`` -- to the
strided-block IR of :mod:`repro.datatypes.ir`.  Everything else about its
layout (``flatten()``'s :class:`~repro.datatypes.flatten.BlockList`, the
copy program, the byte bounds) is derived from the compiled plan, which is
vectorised (numpy) and cached, so even the million-block column datatype of
the 1024x1024 transpose benchmark is cheap to build.

The paper's running example (Figs. 4-6) -- the first column of an 8x8 matrix
of 3-double elements -- is::

    element = Contiguous(3, DOUBLE)          # one matrix element
    column  = Vector(8, 1, 8, element)       # 8 elements, stride 8 elements
"""

from __future__ import annotations

import zlib
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datatypes.flatten import BlockList
from repro.datatypes import ir as _ir

#: a type signature: run-length-encoded primitive sequence ((name, count), ...)
TypeSignature = Tuple[Tuple[str, int], ...]

#: above this many runs a signature is summarised rather than expanded
_SIG_RUN_CAP = 65536


class DatatypeError(ValueError):
    """Invalid datatype construction or use."""


def _rle_compress(runs: Sequence[Tuple[str, int]]) -> TypeSignature:
    """Merge adjacent runs of the same primitive; drop zero-count runs."""
    out: list[tuple[str, int]] = []
    for name, count in runs:
        if count <= 0:
            continue
        if out and out[-1][0] == name:
            out[-1] = (name, out[-1][1] + count)
        else:
            out.append((name, count))
    return tuple(out)


def _rle_repeat(sig: TypeSignature, n: int) -> TypeSignature:
    """The signature of ``n`` back-to-back copies of ``sig``."""
    if n <= 0 or not sig:
        return ()
    if n == 1:
        return sig
    if len(sig) == 1:
        name, count = sig[0]
        return ((name, count * n),)
    if sig[0][0] == sig[-1][0]:
        # the boundary runs of adjacent copies merge:
        #   [h, mid..., t] * n  ->  h, mid..., (t+h, mid...) * (n-1), t
        head = sig[0]
        tail = sig[-1]
        mid = sig[1:-1]
        if (len(sig) - 1) * n > _SIG_RUN_CAP:
            return (("...", sum(c for _n, c in sig) * n),)
        body: tuple = ((tail[0], tail[1] + head[1]),) + mid
        return _rle_compress((head,) + mid + (body * (n - 1)) + (tail,))
    if len(sig) * n > _SIG_RUN_CAP:
        # summarise enormous heterogeneous signatures (hash stays stable)
        return (("...", sum(c for _n, c in sig) * n),)
    return _rle_compress(tuple(sig) * n)


def sig_crc(sig: TypeSignature) -> int:
    """Deterministic 32-bit hash of a type signature (stable across
    processes, unlike builtin ``hash()``)."""
    return zlib.crc32(repr(sig).encode("ascii")) & 0xFFFFFFFF


def signature_hash(datatype: "Datatype", count: int = 1) -> int:
    """A deterministic 32-bit hash of ``count`` copies of the type's
    primitive signature."""
    return sig_crc(_rle_repeat(datatype.typemap_signature(), count))


class Datatype:
    """Base class; a concrete type sets ``size``/``extent`` and implements
    :meth:`_build_ir` (its translation to the canonical strided-block IR the
    compiler consumes) and :meth:`_struct_key_parts`."""

    #: payload bytes per instance of this type
    size: int
    #: span in bytes from lower bound to upper bound (may exceed ``size``)
    extent: int

    _plan: Optional["_ir.CompiledPlan"] = None
    _struct_key: Optional[tuple] = None

    def _compiled(self) -> "_ir.CompiledPlan":
        """The plan of one instance, looked up once per object."""
        if self._plan is None:
            self._plan = _ir.compile_datatype(self)
        return self._plan

    def flatten(self) -> BlockList:
        """The merged contiguous-block stream of one instance of the type.

        Served from the :mod:`repro.datatypes.ir` compile cache: every
        instance with the same :meth:`struct_key` shares one plan, whose
        ``BlockList`` is expanded the first time any of them asks.
        """
        return self._compiled().blocks

    def _build_ir(self) -> "_ir.IRNode":  # pragma: no cover - abstract
        raise NotImplementedError

    def struct_key(self) -> tuple:
        """A hashable structural identity: equal keys mean byte-identical
        layouts built from the same constructor tree (the compile-cache
        key; numpy index arrays enter via their raw bytes)."""
        if self._struct_key is None:
            self._struct_key = self._struct_key_parts()
        return self._struct_key

    def _struct_key_parts(self) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def num_blocks(self) -> int:
        return self.flatten().num_blocks

    def typemap_signature(self) -> TypeSignature:
        """The run-length-encoded primitive sequence of one instance.

        This is MPI's *type signature*: the ordered list of basic datatypes
        in the typemap, ignoring displacements.  Send/receive pairs must
        have compatible signatures (MPI-3.0 section 3.3.1); the analyzer's
        SIG001 rule checks exactly this.  A type built over one ``base`` is
        ``size // base.size`` copies of the base's signature.
        """
        return _rle_repeat(self.base.typemap_signature(),
                           self.size // self.base.size)

    def is_contiguous(self) -> bool:
        """One block at offset 0 filling the extent -- read off the
        canonical IR, so asking never expands the type."""
        plan = self._compiled()
        return (plan.contiguous and plan.start_bytes == 0
                and self.size == self.extent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(size={self.size}, extent={self.extent})"


class Primitive(Datatype):
    """A basic MPI type backed by a numpy scalar dtype."""

    def __init__(self, name: str, np_dtype: np.dtype):
        self.name = name
        self.np_dtype = np.dtype(np_dtype)
        self.size = self.np_dtype.itemsize
        self.extent = self.size

    def _build_ir(self) -> _ir.IRNode:
        return _ir.Block(0, self.size)

    def _struct_key_parts(self) -> tuple:
        return ("prim", self.name, self.size)

    def typemap_signature(self) -> TypeSignature:
        return ((self.name, 1),)

    def __repr__(self) -> str:
        return f"Primitive({self.name})"


DOUBLE = Primitive("DOUBLE", np.float64)
FLOAT = Primitive("FLOAT", np.float32)
INT = Primitive("INT", np.int32)
LONG = Primitive("LONG", np.int64)
CHAR = Primitive("CHAR", np.int8)
BYTE = Primitive("BYTE", np.uint8)

_PRIMITIVE_BY_DTYPE = {
    p.np_dtype.str: p for p in (DOUBLE, FLOAT, INT, LONG, CHAR, BYTE)
}


def primitive_for(np_dtype) -> Primitive:
    """The canonical :class:`Primitive` for a numpy dtype.

    Returns the shared module-level primitive when one exists (so inferred
    and explicit datatypes produce identical type signatures); otherwise a
    fresh ``Primitive`` named after the dtype.
    """
    dt = np.dtype(np_dtype)
    prim = _PRIMITIVE_BY_DTYPE.get(dt.str)
    if prim is not None:
        return prim
    return Primitive(str(dt).upper(), dt)


def _check_base(base: Datatype) -> Datatype:
    if not isinstance(base, Datatype):
        raise DatatypeError(f"base type must be a Datatype, got {type(base).__name__}")
    return base


class Contiguous(Datatype):
    """``count`` back-to-back copies of ``base``."""

    def __init__(self, count: int, base: Datatype):
        if count < 1:
            raise DatatypeError(f"count must be >= 1, got {count}")
        self.count = count
        self.base = _check_base(base)
        self.size = count * base.size
        self.extent = count * base.extent

    def _build_ir(self) -> _ir.IRNode:
        return _ir.loop(self.count, self.base.extent, _ir.ir_of(self.base))

    def _struct_key_parts(self) -> tuple:
        return ("contig", self.count, self.base.struct_key())


class Vector(Datatype):
    """``count`` blocks of ``blocklength`` base-elements, stride in elements.

    The paper's column type: ``Vector(8, 1, 8, element)``.
    """

    def __init__(self, count: int, blocklength: int, stride: int, base: Datatype):
        if count < 1 or blocklength < 1:
            raise DatatypeError("count and blocklength must be >= 1")
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = _check_base(base)
        self.size = count * blocklength * base.size
        # MPI extent: from first byte to last byte spanned (strides may be
        # negative; we only support non-negative here for clarity)
        if stride < blocklength and count > 1:
            raise DatatypeError("overlapping vector (stride < blocklength)")
        self.extent = ((count - 1) * stride + blocklength) * base.extent

    def _build_ir(self) -> _ir.IRNode:
        ext = self.base.extent
        run = _ir.loop(self.blocklength, ext, _ir.ir_of(self.base))
        return _ir.loop(self.count, self.stride * ext, run)

    def _struct_key_parts(self) -> tuple:
        return ("vector", self.count, self.blocklength, self.stride,
                self.base.struct_key())


class HVector(Datatype):
    """Like :class:`Vector` but the stride is given in bytes."""

    def __init__(self, count: int, blocklength: int, stride_bytes: int, base: Datatype):
        self.base = _check_base(base)
        if count < 1 or blocklength < 1:
            raise DatatypeError("count and blocklength must be >= 1")
        if stride_bytes < blocklength * base.extent and count > 1:
            raise DatatypeError("overlapping hvector")
        self.count = count
        self.blocklength = blocklength
        self.stride_bytes = stride_bytes
        self.size = count * blocklength * base.size
        self.extent = (count - 1) * stride_bytes + blocklength * base.extent

    def _build_ir(self) -> _ir.IRNode:
        ext = self.base.extent
        run = _ir.loop(self.blocklength, ext, _ir.ir_of(self.base))
        return _ir.loop(self.count, self.stride_bytes, run)

    def _struct_key_parts(self) -> tuple:
        return ("hvector", self.count, self.blocklength, self.stride_bytes,
                self.base.struct_key())


class Indexed(Datatype):
    """Blocks of varying length at varying displacements (in base elements)."""

    def __init__(self, blocklengths: Sequence[int], displacements: Sequence[int], base: Datatype):
        bl = np.asarray(blocklengths, dtype=np.int64)
        dp = np.asarray(displacements, dtype=np.int64)
        if bl.shape != dp.shape or bl.ndim != 1 or len(bl) == 0:
            raise DatatypeError("blocklengths/displacements must be equal-length, non-empty")
        if np.any(bl < 0) or np.all(bl == 0):
            raise DatatypeError("blocklengths must be >= 0 with at least one > 0")
        self.base = _check_base(base)
        keep = bl > 0
        self.blocklengths = bl[keep]
        self.displacements = dp[keep]
        self.size = int(self.blocklengths.sum()) * base.size
        self.extent = int(
            (self.displacements + self.blocklengths).max() * base.extent
        )

    def _build_ir(self) -> _ir.IRNode:
        ext = self.base.extent
        if self.base.is_contiguous():
            return _ir.Scatter(self.displacements * ext,
                               self.blocklengths * self.base.size)
        base_ir = _ir.ir_of(self.base)
        return _ir.seq(
            _ir.shift_ir(_ir.loop(int(blen), ext, base_ir), int(disp) * ext)
            for blen, disp in zip(self.blocklengths.tolist(),
                                  self.displacements.tolist())
        )

    def _struct_key_parts(self) -> tuple:
        return ("indexed", self.blocklengths.tobytes(),
                self.displacements.tobytes(), self.base.struct_key())


class HIndexed(Datatype):
    """Like :class:`Indexed` but displacements are in bytes."""

    def __init__(self, blocklengths: Sequence[int], byte_displacements: Sequence[int], base: Datatype):
        bl = np.asarray(blocklengths, dtype=np.int64)
        dp = np.asarray(byte_displacements, dtype=np.int64)
        if bl.shape != dp.shape or bl.ndim != 1 or len(bl) == 0:
            raise DatatypeError("blocklengths/displacements must be equal-length, non-empty")
        if np.any(bl < 0) or np.all(bl == 0):
            raise DatatypeError("blocklengths must be >= 0 with at least one > 0")
        self.base = _check_base(base)
        if not base.is_contiguous():
            raise DatatypeError("HIndexed over non-contiguous base not supported")
        keep = bl > 0
        self.blocklengths = bl[keep]
        self.byte_displacements = dp[keep]
        self.size = int(self.blocklengths.sum()) * base.size
        self.extent = int(
            (self.byte_displacements + self.blocklengths * base.extent).max()
        )

    def _build_ir(self) -> _ir.IRNode:
        return _ir.Scatter(self.byte_displacements,
                           self.blocklengths * self.base.size)

    def _struct_key_parts(self) -> tuple:
        return ("hindexed", self.blocklengths.tobytes(),
                self.byte_displacements.tobytes(), self.base.struct_key())


class IndexedBlock(Datatype):
    """Equal-length blocks at varying displacements (in base elements)."""

    def __init__(self, blocklength: int, displacements: Sequence[int], base: Datatype):
        if blocklength < 1:
            raise DatatypeError("blocklength must be >= 1")
        dp = np.asarray(displacements, dtype=np.int64)
        if dp.ndim != 1 or len(dp) == 0:
            raise DatatypeError("displacements must be 1-D, non-empty")
        self.blocklength = blocklength
        self.displacements = dp
        self.base = _check_base(base)
        self.size = len(dp) * blocklength * base.size
        self.extent = int((dp.max() + blocklength) * base.extent)

    def _build_ir(self) -> _ir.IRNode:
        ext = self.base.extent
        if self.base.is_contiguous():
            lens = np.full(len(self.displacements),
                           self.blocklength * self.base.size, dtype=np.int64)
            return _ir.Scatter(self.displacements * ext, lens)
        run = _ir.loop(self.blocklength, ext, _ir.ir_of(self.base))
        return _ir.seq(_ir.shift_ir(run, int(d) * ext)
                       for d in self.displacements.tolist())

    def _struct_key_parts(self) -> tuple:
        return ("indexedblock", self.blocklength,
                self.displacements.tobytes(), self.base.struct_key())


class Struct(Datatype):
    """Heterogeneous fields: per-field blocklength, byte displacement, type.

    The classic interlaced-fields case from the paper's section 2.1 (pressure,
    temperature, x-velocity, y-velocity stored per grid point).
    """

    def __init__(
        self,
        blocklengths: Sequence[int],
        byte_displacements: Sequence[int],
        types: Sequence[Datatype],
    ):
        if not (len(blocklengths) == len(byte_displacements) == len(types)) or not types:
            raise DatatypeError("struct fields must be equal-length, non-empty")
        self.blocklengths = [int(b) for b in blocklengths]
        self.byte_displacements = [int(d) for d in byte_displacements]
        self.types = [_check_base(t) for t in types]
        if any(b < 1 for b in self.blocklengths):
            raise DatatypeError("struct blocklengths must be >= 1")
        self.size = sum(b * t.size for b, t in zip(self.blocklengths, self.types))
        self.extent = max(
            d + b * t.extent
            for b, d, t in zip(self.blocklengths, self.byte_displacements, self.types)
        )

    def _build_ir(self) -> _ir.IRNode:
        return _ir.seq(
            _ir.shift_ir(_ir.loop(b, t.extent, _ir.ir_of(t)), d)
            for b, d, t in zip(self.blocklengths, self.byte_displacements,
                               self.types)
        )

    def _struct_key_parts(self) -> tuple:
        return ("struct", tuple(self.blocklengths),
                tuple(self.byte_displacements),
                tuple(t.struct_key() for t in self.types))

    def typemap_signature(self) -> TypeSignature:
        runs: list = []
        for b, t in zip(self.blocklengths, self.types):
            runs.extend(_rle_repeat(t.typemap_signature(), b))
        return _rle_compress(runs)


class Subarray(Datatype):
    """An n-dimensional sub-block of an n-dimensional array.

    ``sizes`` is the full local array shape, ``subsizes`` the selected block,
    ``starts`` its origin.  ``order='C'`` means the last dimension is
    contiguous (row-major), matching both numpy's default layout and
    ``MPI_ORDER_C``.  This is the type a DMDA ghost-face exchange builds.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        base: Datatype,
        order: str = "C",
    ):
        sizes = [int(s) for s in sizes]
        subsizes = [int(s) for s in subsizes]
        starts = [int(s) for s in starts]
        if not (len(sizes) == len(subsizes) == len(starts)) or not sizes:
            raise DatatypeError("sizes/subsizes/starts must be equal-length, non-empty")
        for full, sub, st in zip(sizes, subsizes, starts):
            if sub < 1 or st < 0 or st + sub > full:
                raise DatatypeError(
                    f"invalid subarray: sizes={sizes} subsizes={subsizes} starts={starts}"
                )
        if order not in ("C", "F"):
            raise DatatypeError("order must be 'C' or 'F'")
        self.sizes = sizes
        self.subsizes = subsizes
        self.starts = starts
        self.order = order
        self.base = _check_base(base)
        n = 1
        for s in subsizes:
            n *= s
        self.size = n * base.size
        full = 1
        for s in sizes:
            full *= s
        self.extent = full * base.extent  # like MPI: extent of the full array

    def _build_ir(self) -> _ir.IRNode:
        sizes, subsizes, starts = self.sizes, self.subsizes, self.starts
        if self.order == "F":
            sizes, subsizes, starts = sizes[::-1], subsizes[::-1], starts[::-1]
        elem = self.base.extent
        strides = [1] * len(sizes)
        for d in range(len(sizes) - 2, -1, -1):
            strides[d] = strides[d + 1] * sizes[d + 1]
        node = _ir.loop(subsizes[-1], elem, _ir.ir_of(self.base))
        for d in range(len(sizes) - 2, -1, -1):
            node = _ir.loop(subsizes[d], strides[d] * elem, node)
        shift = sum(st * sd for st, sd in zip(starts, strides)) * elem
        return _ir.shift_ir(node, shift)

    def _struct_key_parts(self) -> tuple:
        return ("subarray", tuple(self.sizes), tuple(self.subsizes),
                tuple(self.starts), self.order, self.base.struct_key())


class Resized(Datatype):
    """Override a type's extent (``MPI_Type_create_resized`` with lb=0)."""

    def __init__(self, base: Datatype, extent: int):
        self.base = _check_base(base)
        if extent < 1:
            raise DatatypeError("extent must be >= 1")
        self.size = base.size
        self.extent = extent

    def _build_ir(self) -> _ir.IRNode:
        return _ir.ir_of(self.base)

    def _struct_key_parts(self) -> tuple:
        return ("resized", self.extent, self.base.struct_key())
