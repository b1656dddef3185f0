"""Canonical strided-block IR for derived datatypes (the datatype compiler).

Every :class:`repro.datatypes.typemap.Datatype` compiles -- once per
*structure*, not per instance -- to a small loop nest over primitive byte
runs, in the spirit of TEMPI's canonical datatype representation and of
MPICH's internal dataloops:

====================  ======================================================
Node                  Meaning (applied at a byte shift ``s``)
====================  ======================================================
``Block(o, l)``       the contiguous bytes ``[s+o, s+o+l)``
``Loop(c, st, ch)``   ``c`` copies of ``ch``, copy ``i`` shifted by ``i*st``
``Seq(children)``     the children one after another, in definition order
``Scatter(offs,      irregular runs ``[s+offs[i], s+offs[i]+lens[i])`` in
``lens)``             array order (the ``Indexed``/``HIndexed`` leaf)
====================  ======================================================

All nodes preserve MPI *pack order*: expansion order is definition order,
never sorted order.  Each constructor's ``_build_ir`` is its only
translation; ``tests/_dtype_oracle.py`` enumerates the MPI typemap from the
definitions and the test-suite holds every compiled plan to it.

The compiler has three stages, each deterministic:

1. **Canonicalisation** (:func:`optimize`) is one bottom-up sweep over the
   nodes a constructor added; the children it builds on arrive canonical
   (``ir_of(base)`` is the cached result of the same sweep) and are not
   visited again.  Four local rules, each applied once per new node:
   back-to-back iterations of a ``Block`` are one ``Block`` and abutting
   ``Block`` neighbours in a ``Seq`` fuse; a perfect nest ``Loop(c1, c2*s2,
   Loop(c2, s2, ch))`` is ``Loop(c1*c2, s2, ch)``; a small loop over a
   multi-run body unrolls into a ``Seq`` (which exposes cross-iteration
   fusing a rolled loop cannot express); a ``Scatter`` whose runs are
   uniform and evenly strided re-rolls into a ``Loop``.  A chain of new
   loops is rolled (the first two rules) all the way up before any of it
   unrolls, so equivalent specs -- ``Vector(4, 2, 4, DOUBLE)``,
   ``Indexed([2]*4, [0,4,8,12], DOUBLE)``, ``IndexedBlock(2, [0,4,8,12],
   DOUBLE)`` -- reach the *same* canonical node.  Every node carries its
   payload size, byte bounds, raw run count and lowered-op count from
   construction, so none of those is a tree walk.
2. **Caching**: plans are memoized in a process-wide table keyed by the
   type's structural signature (:meth:`Datatype.struct_key`) and count, so
   equal-structure instances share one :class:`CompiledPlan` -- the single
   authority for layout (``blocks``), byte movement (``program``), bounds
   (``start_bytes``/``end_bytes``/``nbytes``) and type signature.  A miss
   runs stage 1 and reads the bounds off the root; it expands nothing.
3. **Materialisation on first use**: a plan's ``program`` is lowered
   (:func:`lower`) the first time something packs through it -- a
   :class:`CopyProgram` of bulk numpy-slice copy ops (``contig`` slice
   copies, 2-D ``strided`` views, and a cached ``gather`` fallback for
   irregular layouts) with every source shift and packed-stream
   destination precomputed -- and its ``blocks`` are expanded
   (:func:`to_blocklist`) the first time a cost engine or a caller of
   ``flatten()`` asks.  Both then stay on the shared plan.

``set_passes_enabled(False)`` skips stage 1 *and* lowers one
python-level copy op per raw block -- the deliberately de-optimized mode
the CI guideline gate self-test uses to prove the "pack must not lose to
manual copy" benchmarks actually trip.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datatypes.flatten import BlockList, merge_runs

__all__ = [
    "Block",
    "Loop",
    "Seq",
    "Scatter",
    "CompiledPlan",
    "CopyProgram",
    "cache_clear",
    "cache_stats",
    "compile_datatype",
    "loop",
    "lower",
    "optimize",
    "passes_enabled",
    "seq",
    "set_passes_enabled",
    "shift_ir",
    "to_blocklist",
]


# -- IR nodes ----------------------------------------------------------------


class IRNode:
    """Base of the four node kinds.

    Besides its defining fields every node carries what a later stage would
    otherwise re-derive by walking it, computed in O(1) from its children
    when it is built: ``size`` (payload bytes), ``lo``/``hi`` (the lowest
    byte one expansion touches and one past the highest), ``runs`` (raw
    contiguous runs of one expansion), ``ops`` (python-level copy ops a
    full expansion lowers to) and ``canon`` (set by :func:`optimize` on
    what it has normalised, so a later sweep stops there).  Equality and
    hashing look at the defining fields only.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Block(IRNode):
    """One contiguous byte run."""

    _fields = ("offset", "length")
    __slots__ = _fields + ("size", "lo", "hi")
    runs = ops = 1
    canon = True

    def __init__(self, offset: int, length: int):
        self.offset = self.lo = offset
        self.length = self.size = length
        self.hi = offset + length


class Loop(IRNode):
    """``count`` copies of ``child``; copy ``i`` is shifted by ``i*stride``."""

    _fields = ("count", "stride", "child")
    __slots__ = _fields + ("size", "lo", "hi", "runs", "ops", "canon")

    def __init__(self, count: int, stride: int, child: IRNode):
        self.count, self.stride, self.child = count, stride, child
        self.size = count * child.size
        reach = (count - 1) * stride
        self.lo = child.lo + min(reach, 0)
        self.hi = child.hi + max(reach, 0)
        self.runs = count * child.runs
        # a loop over one Block lowers to a single strided op
        self.ops = 1 if child.__class__ is Block else count * child.ops
        self.canon = False


class Seq(IRNode):
    """Children laid out one after another in pack order."""

    _fields = ("children",)
    __slots__ = _fields + ("size", "lo", "hi", "runs", "ops", "canon")

    def __init__(self, children: Tuple[IRNode, ...]):
        self.children = children
        self.size = sum([ch.size for ch in children])
        self.lo = min([ch.lo for ch in children])
        self.hi = max([ch.hi for ch in children])
        self.runs = sum([ch.runs for ch in children])
        self.ops = sum([ch.ops for ch in children])
        self.canon = False


#: a Scatter with at most this many runs lowers to per-run slice copies
_SCATTER_INLINE_RUNS = 4


class Scatter(IRNode):
    """Irregular byte runs (the ``Indexed`` family leaf).

    Holds int64 arrays.  Equality and hashing go through their raw bytes,
    taken when first asked for, so Scatter nodes compare like the other
    nodes do without every intermediate one paying for a key.  ``measured``
    is ``(size, lo, hi)`` from a caller that knows them already: the same
    payload merged or moved needs no second reduction (nor re-validation).
    """

    __slots__ = ("offsets", "lengths", "size", "lo", "hi", "runs", "ops",
                 "canon", "_key")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray,
                 measured: Optional[Tuple[int, int, int]] = None):
        if measured is None:
            offsets = np.ascontiguousarray(offsets, dtype=np.int64)
            lengths = np.ascontiguousarray(lengths, dtype=np.int64)
            if offsets.shape != lengths.shape or offsets.ndim != 1:
                raise ValueError("Scatter offsets/lengths must be 1-D, equal length")
            if len(offsets) == 0:
                raise ValueError("Scatter must hold at least one run")
            measured = (int(lengths.sum()), int(offsets.min()),
                        int((offsets + lengths).max()))
        self.offsets, self.lengths = offsets, lengths
        self.size, self.lo, self.hi = measured
        self.runs = len(offsets)
        self.ops = self.runs if self.runs <= _SCATTER_INLINE_RUNS else 1
        self.canon = False
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.offsets.tobytes(), self.lengths.tobytes())
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scatter(runs={self.runs})"


# -- smart constructors ------------------------------------------------------


def loop(count: int, stride: int, child: IRNode) -> IRNode:
    """``Loop`` constructor that drops degenerate single-iteration loops."""
    if count == 1:
        return child
    return Loop(int(count), int(stride), child)


def seq(children) -> IRNode:
    """``Seq`` constructor that splices nested Seqs and unwraps singletons."""
    flat: List[IRNode] = []
    for ch in children:
        if ch.__class__ is Seq:
            flat.extend(ch.children)
        else:
            flat.append(ch)
    if not flat:
        raise ValueError("empty Seq")
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def shift_ir(node: IRNode, delta: int) -> IRNode:
    """The same layout displaced by ``delta`` bytes (canonical if ``node``
    is: no rule of :func:`optimize` looks at absolute position)."""
    delta = int(delta)
    if delta == 0:
        return node
    cls = node.__class__
    if cls is Block:
        return Block(node.offset + delta, node.length)
    if cls is Loop:
        out = Loop(node.count, node.stride, shift_ir(node.child, delta))
    elif cls is Seq:
        out = Seq(tuple([shift_ir(ch, delta) for ch in node.children]))
    elif cls is Scatter:
        out = Scatter(node.offsets + delta, node.lengths,
                      (node.size, node.lo + delta, node.hi + delta))
    else:
        raise TypeError(cls.__name__)
    out.canon = node.canon
    return out


# -- expansion ---------------------------------------------------------------


def _expand(node: IRNode) -> Tuple[np.ndarray, np.ndarray]:
    """Raw ``(offsets, lengths)`` in pack order, unmerged."""
    if isinstance(node, Block):
        return (np.array([node.offset], dtype=np.int64),
                np.array([node.length], dtype=np.int64))
    if isinstance(node, Loop):
        offs, lens = _expand(node.child)
        disps = np.arange(node.count, dtype=np.int64) * node.stride
        return ((disps[:, None] + offs[None, :]).reshape(-1),
                np.tile(lens, node.count))
    if isinstance(node, Seq):
        parts = [_expand(ch) for ch in node.children]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    if isinstance(node, Scatter):
        return node.offsets, node.lengths
    raise TypeError(type(node).__name__)


def to_blocklist(node: IRNode) -> BlockList:
    """The merged contiguous-block stream of one expansion of ``node``.

    Merging adjacent abutting runs is confluent -- the merged result depends
    only on the final run order, never on which intermediate level merged
    first -- so no rewrite can change the stream the cost engines walk.
    """
    return BlockList(*merge_runs(*_expand(node)))


# -- normalisation -----------------------------------------------------------

#: small loops over multi-run bodies unroll up to this trip count
_UNROLL_COUNT = 4
#: ... provided the body has at most this many raw runs
_UNROLL_BODY_RUNS = 8


def _canonical(node: IRNode) -> IRNode:
    node.canon = True
    return node


def _canonicalize_scatter(node: Scatter) -> IRNode:
    """Merge abutting runs; recognise single runs and uniform strides."""
    offs, lens = merge_runs(node.offsets, node.lengths)
    if len(offs) == 1:
        return Block(int(offs[0]), int(lens[0]))
    # re-roll: equal lengths + uniform positive stride covering the run
    # length means this is a Vector in disguise
    if (lens == lens[0]).all():
        steps = np.diff(offs)
        if (steps == steps[0]).all() and steps[0] >= lens[0] and steps[0] > 0:
            return _canonical(Loop(len(offs), int(steps[0]),
                                   Block(int(offs[0]), int(lens[0]))))
    if offs is not node.offsets:
        node = Scatter(offs, lens, (node.size, node.lo, node.hi))
    return _canonical(node)


def _fused(pieces) -> IRNode:
    """Canonical pieces one after another: nested Seqs spliced, a Block
    that starts where the Block before it ends fused into it."""
    out: List[IRNode] = []
    for piece in pieces:
        for item in (piece.children if piece.__class__ is Seq else (piece,)):
            prev = out[-1] if out else None
            if (item.__class__ is Block and prev.__class__ is Block
                    and item.offset == prev.hi):
                out[-1] = Block(prev.offset, prev.length + item.length)
            else:
                out.append(item)
    return out[0] if len(out) == 1 else _canonical(Seq(tuple(out)))


def _rolled(node: Loop) -> IRNode:
    """The rules that keep a new loop rolled: back-to-back iterations of a
    Block are one Block, and a perfect nest (``stride`` equal to the inner
    loop's whole reach) is one loop.

    Applied down a whole chain of new loops before any of them unrolls,
    so ``Loop(c1, c2*s2, Loop(c2, s2, body))`` becomes ``Loop(c1*c2, s2,
    body)`` whether or not the inner loop alone is small enough to unroll.
    The result's own ``canon`` is not set yet: :func:`_spread` finishes it.
    """
    child = node.child
    if child.__class__ is Loop and not child.canon:
        child = _rolled(child)
    else:
        child = optimize(child)
    if node.count == 1:
        return child
    if child.__class__ is Block and node.stride == child.length:
        return Block(child.offset, node.count * child.length)
    if child.__class__ is Loop and node.stride == child.count * child.stride:
        return Loop(node.count * child.count, child.stride, child.child)
    if child is node.child:
        return node
    return Loop(node.count, node.stride, child)


def _spread(node: IRNode) -> IRNode:
    """Finish a rolled chain from the inside out: a small loop over a
    multi-run body becomes a ``Seq`` of its iterations.

    A rolled ``Loop`` cannot merge the tail run of iteration ``i`` with the
    head run of iteration ``i+1``; the ``Seq`` can.  Loops over a single
    ``Block`` stay rolled -- they lower to one strided op, which beats a
    handful of slice copies.  Each loop decides on its *finished* body:
    runs that an inner unrolling has fused count as one.
    """
    if node.canon:
        return node
    child = _spread(node.child)
    if (child.__class__ is not Block and node.count <= _UNROLL_COUNT
            and child.runs <= _UNROLL_BODY_RUNS):
        return _fused([shift_ir(child, i * node.stride)
                       for i in range(node.count)])
    if child is not node.child:
        node = Loop(node.count, node.stride, child)
    return _canonical(node)


def optimize(node: IRNode) -> IRNode:
    """The canonical form of ``node``, in one bottom-up sweep.

    A subtree that is already canonical -- every ``ir_of(base)`` a
    constructor builds on -- is returned as it is, so the sweep visits
    only the nodes the constructor added and is idempotent by construction.
    """
    if node.canon:
        return node
    cls = node.__class__
    if cls is Loop:
        return _spread(_rolled(node))
    if cls is Seq:
        return _fused([optimize(ch) for ch in node.children])
    if cls is Scatter:
        return _canonicalize_scatter(node)
    raise TypeError(cls.__name__)


# -- lowering ----------------------------------------------------------------


class _ContigOp:
    """``out[dst:dst+n] = buf[base+src : base+src+n]``."""

    __slots__ = ("src", "dst", "n")
    kind = "contig"

    def __init__(self, src: int, dst: int, n: int):
        self.src, self.dst, self.n = src, dst, n

    def pack(self, bts: np.ndarray, base: int, out: np.ndarray) -> None:
        s = base + self.src
        out[self.dst : self.dst + self.n] = bts[s : s + self.n]

    def unpack(self, bts: np.ndarray, base: int, data: np.ndarray) -> None:
        s = base + self.src
        bts[s : s + self.n] = data[self.dst : self.dst + self.n]


#: the unsigned machine word of each width a copy op may move at a time;
#: an op picks the widest that divides every stride and run length it has
_WORDS = {1: np.dtype(np.uint8), 2: np.dtype(np.uint16),
          4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}


class _StridedOp:
    """A 2-D strided copy: ``count`` runs of ``blen`` bytes every ``stride``.

    Lowered from ``Loop(count, stride, Block)``.  Both sides of the copy are
    ``(count, blen // word)`` views in the widest machine word dividing
    ``stride`` and ``blen`` -- numpy moves words, not bytes, and copies
    through a view whose base address is not word-aligned correctly.
    """

    __slots__ = ("src", "dst", "stride", "blen", "shape", "word")
    kind = "strided"

    def __init__(self, src: int, dst: int, count: int, stride: int, blen: int):
        self.src, self.dst = src, dst
        self.stride, self.blen = stride, blen
        width = math.gcd(8, stride, blen)
        self.word = _WORDS[width]
        self.shape = (count, blen // width)

    def _view(self, bts: np.ndarray, start: int, row_stride: int) -> np.ndarray:
        return np.ndarray(self.shape, self.word, bts, start,
                          (row_stride, self.word.itemsize))

    def pack(self, bts: np.ndarray, base: int, out: np.ndarray) -> None:
        self._view(out, self.dst, self.blen)[...] = self._view(
            bts, base + self.src, self.stride)

    def unpack(self, bts: np.ndarray, base: int, data: np.ndarray) -> None:
        self._view(bts, base + self.src, self.stride)[...] = self._view(
            data, self.dst, self.blen)


class _GatherOp:
    """Fancy-index fallback for irregular runs.

    The index counts machine words from the op's lowest byte and is built
    lazily once per *program* (shared across every TypedBuffer with this
    structure).  Executing the op indexes a word view of the buffer that
    starts at that byte, so no base offset is ever added to the index.
    """

    __slots__ = ("offsets", "lengths", "dst", "low", "word", "span", "nwords",
                 "_index")
    kind = "gather"

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray, dst: int):
        self.offsets = offsets
        self.lengths = lengths
        self.dst = dst
        self.low = int(offsets.min())
        width = math.gcd(8, int(np.gcd.reduce(offsets - self.low)),
                         int(np.gcd.reduce(lengths)))
        self.word = _WORDS[width]
        #: words between the lowest and one past the highest byte touched
        self.span = (int((offsets + lengths).max()) - self.low) // width
        self.nwords = int(lengths.sum()) // width
        self._index: Optional[np.ndarray] = None

    def _views(self, bts: np.ndarray, base: int, packed: np.ndarray):
        """``(buffer words from the lowest byte, packed-side words, index)``."""
        if self._index is None:
            width = self.word.itemsize
            offs = (self.offsets - self.low) // width
            lens = self.lengths // width
            starts = np.cumsum(lens) - lens
            self._index = (np.arange(self.nwords, dtype=np.int64)
                           + np.repeat(offs - starts, lens))
        return (np.ndarray((self.span,), self.word, bts, base + self.low),
                np.ndarray((self.nwords,), self.word, packed, self.dst),
                self._index)

    def pack(self, bts: np.ndarray, base: int, out: np.ndarray) -> None:
        words, dst, index = self._views(bts, base, out)
        # every index is inside ``words`` by construction; a mode other than
        # "raise" lets take() write ``dst`` directly instead of via a copy
        np.take(words, index, out=dst, mode="clip")

    def unpack(self, bts: np.ndarray, base: int, data: np.ndarray) -> None:
        words, src, index = self._views(bts, base, data)
        words[index] = src


class CopyProgram:
    """An ordered list of bulk copy ops; executing it moves the payload."""

    __slots__ = ("ops", "nbytes")

    def __init__(self, ops: List[Any], nbytes: int):
        self.ops = ops
        self.nbytes = nbytes

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def op_kinds(self) -> Dict[str, int]:
        kinds: Dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        return kinds

    def pack(self, bts: np.ndarray, base: int) -> np.ndarray:
        out = np.empty(self.nbytes, dtype=np.uint8)
        for op in self.ops:
            op.pack(bts, base, out)
        return out

    def unpack(self, bts: np.ndarray, base: int, data: np.ndarray) -> None:
        for op in self.ops:
            op.unpack(bts, base, data)


#: expanding loops stops once a subtree would exceed this many python ops
#: (every node's ``ops`` is that count, carried from its construction)
_EXPAND_OPS_LIMIT = 96


def _emit(node: IRNode, shift: int, dst: int, ops: List[Any]) -> int:
    """Append ops for ``node`` displaced by ``shift``; returns next dst."""
    cls = node.__class__
    if cls is Block:
        ops.append(_ContigOp(shift + node.offset, dst, node.length))
        return dst + node.length
    if cls is Seq:
        for ch in node.children:
            dst = _emit(ch, shift, dst, ops)
        return dst
    if cls is Scatter:
        if node.runs <= _SCATTER_INLINE_RUNS:
            for o, n in zip(node.offsets.tolist(), node.lengths.tolist()):
                ops.append(_ContigOp(shift + o, dst, n))
                dst += n
            return dst
        ops.append(_GatherOp(node.offsets + shift, node.lengths, dst))
        return dst + node.size
    if cls is not Loop:
        raise TypeError(cls.__name__)
    child = node.child
    if child.__class__ is Block:
        if node.stride > child.length:
            ops.append(_StridedOp(shift + child.offset, dst,
                                  node.count, node.stride, child.length))
            return dst + node.size
        if node.stride == child.length:
            ops.append(_ContigOp(shift + child.offset, dst, node.size))
            return dst + node.size
        # overlapping hand-built loop: falls through to exact sequential
        # order, one op per iteration
    elif node.ops > _EXPAND_OPS_LIMIT:
        # too many python ops: gather the whole subtree through one index
        offs, lens = merge_runs(*_expand(node))
        ops.append(_GatherOp(offs + shift, lens, dst))
        return dst + node.size
    for i in range(node.count):
        dst = _emit(child, shift + i * node.stride, dst, ops)
    return dst


def lower(node: IRNode) -> CopyProgram:
    """Lower optimized IR to a bulk-copy program."""
    ops: List[Any] = []
    if node.ops > _EXPAND_OPS_LIMIT:
        ops.append(_GatherOp(*merge_runs(*_expand(node)), 0))
    else:
        _emit(node, 0, 0, ops)
    return CopyProgram(ops, node.size)


#: above this many raw runs the de-optimized program gathers anyway (keeps
#: pathological self-test types bounded)
_DEOPT_OPS_CAP = 100_000


def lower_deoptimized(node: IRNode) -> CopyProgram:
    """One python-level slice copy per *raw* run -- no coalescing, no
    strided views.  Used only when the pass pipeline is disabled, to give
    the CI guideline gate something that demonstrably loses to manual copy."""
    offs, lens = _expand(node)
    if len(offs) > _DEOPT_OPS_CAP:
        return CopyProgram([_GatherOp(*merge_runs(offs, lens), 0)], node.size)
    ops: List[Any] = []
    dst = 0
    for o, n in zip(offs.tolist(), lens.tolist()):
        ops.append(_ContigOp(o, dst, n))
        dst += n
    return CopyProgram(ops, dst)


# -- compilation cache -------------------------------------------------------


class CompiledPlan:
    """Everything the stack needs about one (structure, count) pair.

    A new plan holds the canonical IR and what comes off it in closed form
    (bounds, payload size, contiguity).  Its two expansions -- ``blocks``,
    the merged :class:`BlockList` the cost engines walk, and ``program``,
    the lowered :class:`CopyProgram` -- are built the first time something
    reads them and then stay on the plan, shared like the rest of it.  A
    type that only ever serves as another's base builds neither.
    """

    __slots__ = ("key", "ir", "raw_blocks", "start_bytes", "end_bytes",
                 "nbytes", "contiguous", "signature", "engines",
                 "blocks", "program")

    def __init__(self, key, ir: IRNode, raw_blocks: int):
        self.key = key
        self.ir = ir
        self.raw_blocks = raw_blocks
        #: first byte any block touches (negative for a displacement below
        #: the origin) and one past the last: the buffer bounds
        self.start_bytes, self.end_bytes = ir.lo, ir.hi
        #: payload bytes
        self.nbytes = ir.size
        #: one merged block: canonical IR is a Block exactly then
        self.contiguous = ir.__class__ is Block
        #: the MPI type signature of the whole (structure, count) pair;
        #: filled in by the first TypedBuffer.signature() that asks
        self.signature: Optional[tuple] = None
        #: the pack engines that have costed this plan, by ``(CostModel,
        #: dual_context)``; see :func:`repro.datatypes.engine.engine_for`
        self.engines: Dict[tuple, Any] = {}

    def __getattr__(self, name: str):
        # reached only while the ``blocks`` / ``program`` slot is still
        # empty; once filled, reading it is a plain slot read
        if name == "blocks":
            value = self.blocks = to_blocklist(self.ir)
        elif name == "program":
            value = self.program = lower(self.ir)
        else:
            raise AttributeError(name)
        return value

    @property
    def coalesced_ratio(self) -> float:
        """Merged blocks per raw run (1.0 = nothing coalesced)."""
        return self.blocks.num_blocks / max(1, self.raw_blocks)

    def info(self) -> Dict[str, Any]:
        """Compact description used as profiling span attributes."""
        return {
            "ir_ops": self.program.num_ops,
            "ir_blocks": self.blocks.num_blocks,
            "ir_raw_blocks": self.raw_blocks,
            "ir_coalesced_ratio": round(self.coalesced_ratio, 6),
        }


_CACHE: Dict[Any, CompiledPlan] = {}
_HITS = 0
_MISSES = 0
_PASSES_ENABLED = True
#: ``repro.prof.session``, resolved by the first compile (importing it
#: here would close an import cycle)
_session = None


def passes_enabled() -> bool:
    return _PASSES_ENABLED


def set_passes_enabled(flag: bool) -> None:
    """Toggle the optimization pipeline (the guideline-gate self-test)."""
    global _PASSES_ENABLED
    _PASSES_ENABLED = bool(flag)


def cache_clear() -> None:
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0


def cache_stats() -> Dict[str, int]:
    return {"entries": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def _session_registry():
    """The profiling session's metrics registry, or None when none is on."""
    global _session
    if _session is None:
        from repro.prof import session as _session
    return _session.registry() if _session.is_enabled() else None


def compile_datatype(datatype, count: int = 1) -> CompiledPlan:
    """Compile ``count`` back-to-back copies of ``datatype``.

    Memoized process-wide on ``(struct_key, count, passes_enabled)`` --
    equal-structure instances share the plan and everything later built on
    it (``BlockList``, copy program, gather indices, pack engines).  A miss
    canonicalises the IR and reads the bounds off it; nothing is expanded.
    """
    global _HITS, _MISSES
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    key = (datatype.struct_key(), count, _PASSES_ENABLED)
    plan = _CACHE.get(key)
    reg = _session_registry()
    if plan is not None:
        _HITS += 1
        if reg is not None:
            reg.counter("repro_datatype_ir_cache_hits_total").inc()
        return plan
    t0 = time.perf_counter() if reg is not None else 0.0
    node = datatype._build_ir()
    if count > 1:
        node = loop(count, datatype.extent, node)
    if _PASSES_ENABLED:
        plan = CompiledPlan(key, optimize(node), node.runs)
    else:
        # the self-test mode keeps the raw IR and expands it here and now
        plan = CompiledPlan(key, node, node.runs)
        plan.program = lower_deoptimized(node)
        plan.contiguous = plan.blocks.num_blocks == 1
    _CACHE[key] = plan
    _MISSES += 1
    if reg is not None:
        wall = time.perf_counter() - t0
        reg.counter("repro_datatype_ir_compile_total").inc()
        reg.counter("repro_datatype_ir_cache_misses_total").inc()
        reg.histogram("repro_datatype_ir_compile_seconds").observe(wall)
        reg.histogram("repro_datatype_ir_coalesced_ratio").observe(
            plan.coalesced_ratio)
    return plan


def ir_of(datatype) -> IRNode:
    """The optimized canonical IR of one instance of ``datatype``."""
    return compile_datatype(datatype).ir
