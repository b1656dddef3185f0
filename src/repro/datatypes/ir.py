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

1. **Normalisation passes** (:func:`optimize`) run to a fixpoint --
   like-block coalescing (abutting runs fuse; ``Loop`` whose stride equals
   its child length becomes one ``Block``; a ``Scatter`` whose runs are
   uniform and evenly strided re-rolls into a ``Loop``), loop collapsing
   (``Loop(c1, c2*s2, Loop(c2, s2, ch))`` flattens to ``Loop(c1*c2, s2,
   ch)``), and small-loop unrolling over multi-run bodies (which exposes
   cross-iteration coalescing a rolled loop cannot express).  Equivalent
   specs -- ``Vector(4, 2, 4, DOUBLE)``, ``Indexed([2]*4, [0,4,8,12],
   DOUBLE)``, ``IndexedBlock(2, [0,4,8,12], DOUBLE)`` -- reach the *same*
   canonical node.
2. **Lowering** (:func:`lower`) emits a :class:`CopyProgram` of bulk
   numpy-slice copy ops (``contig`` slice copies, 2-D ``strided`` views,
   and a cached ``gather`` fallback for irregular layouts) instead of
   element-gather indices.  Loop-invariant address arithmetic is hoisted:
   every op precomputes its source shift and packed-stream destination, so
   executing a program is a handful of slice assignments.
3. **Caching**: plans are memoized in a process-wide table keyed by the
   type's structural signature (:meth:`Datatype.struct_key`) and count, so
   equal-structure instances share one :class:`CompiledPlan` -- the single
   authority for layout (``blocks``), byte movement (``program``), bounds
   (``start_bytes``/``end_bytes``) and type signature.

``set_passes_enabled(False)`` disables the pass pipeline *and* lowers one
python-level copy op per raw block -- the deliberately de-optimized mode
the CI guideline gate self-test uses to prove the "pack must not lose to
manual copy" benchmarks actually trip.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datatypes.flatten import BlockList, merge_adjacent, merge_runs

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
    "ir_num_blocks",
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
    __slots__ = ()


@dataclass(frozen=True)
class Block(IRNode):
    """One contiguous byte run."""

    offset: int
    length: int


@dataclass(frozen=True)
class Loop(IRNode):
    """``count`` copies of ``child``; copy ``i`` is shifted by ``i*stride``."""

    count: int
    stride: int
    child: IRNode


@dataclass(frozen=True)
class Seq(IRNode):
    """Children laid out one after another in pack order."""

    children: Tuple[IRNode, ...]


class Scatter(IRNode):
    """Irregular byte runs (the ``Indexed`` family leaf).

    Holds int64 arrays; equality and hashing go through the raw bytes so
    Scatter nodes participate in canonical-form comparison like the frozen
    dataclass nodes do.
    """

    __slots__ = ("offsets", "lengths", "_key")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if self.offsets.shape != self.lengths.shape or self.offsets.ndim != 1:
            raise ValueError("Scatter offsets/lengths must be 1-D, equal length")
        if len(self.offsets) == 0:
            raise ValueError("Scatter must hold at least one run")
        self._key = (self.offsets.tobytes(), self.lengths.tobytes())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scatter) and self._key == other._key

    def __hash__(self) -> int:
        return hash(("Scatter", self._key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scatter(runs={len(self.offsets)})"


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
        if isinstance(ch, Seq):
            flat.extend(ch.children)
        else:
            flat.append(ch)
    if not flat:
        raise ValueError("empty Seq")
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def shift_ir(node: IRNode, delta: int) -> IRNode:
    """The same layout displaced by ``delta`` bytes."""
    delta = int(delta)
    if delta == 0:
        return node
    if isinstance(node, Block):
        return Block(node.offset + delta, node.length)
    if isinstance(node, Loop):
        return Loop(node.count, node.stride, shift_ir(node.child, delta))
    if isinstance(node, Seq):
        return Seq(tuple(shift_ir(ch, delta) for ch in node.children))
    if isinstance(node, Scatter):
        return Scatter(node.offsets + delta, node.lengths)
    raise TypeError(type(node).__name__)


# -- structural queries ------------------------------------------------------


def ir_num_blocks(node: IRNode) -> int:
    """Raw (pre-merge) contiguous-run count of one expansion."""
    if isinstance(node, Block):
        return 1
    if isinstance(node, Loop):
        return node.count * ir_num_blocks(node.child)
    if isinstance(node, Seq):
        return sum(ir_num_blocks(ch) for ch in node.children)
    if isinstance(node, Scatter):
        return len(node.offsets)
    raise TypeError(type(node).__name__)


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
    first -- so no pass can change the stream the cost engines walk.
    """
    offs, lens = _expand(node)
    return merge_adjacent(offs, lens)


# -- normalisation passes ----------------------------------------------------

#: small loops over multi-run bodies unroll up to this trip count
_UNROLL_COUNT = 4
#: ... provided the body has at most this many raw runs
_UNROLL_BODY_RUNS = 8
#: fixpoint iteration cap (every pass shrinks or preserves node count, so
#: real inputs converge in 2-3 rounds; the cap is a safety net)
_MAX_PASS_ROUNDS = 8


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
            return Loop(len(offs), int(steps[0]),
                        Block(int(offs[0]), int(lens[0])))
    return Scatter(offs, lens)


def _coalesce(node: IRNode) -> IRNode:
    """Bottom-up like-block coalescing."""
    if isinstance(node, Block):
        return node
    if isinstance(node, Scatter):
        return _canonicalize_scatter(node)
    if isinstance(node, Loop):
        child = _coalesce(node.child)
        if isinstance(child, Block) and node.stride == child.length:
            # back-to-back iterations: the loop is one contiguous run
            return Block(child.offset, node.count * child.length)
        return loop(node.count, node.stride, child)
    if isinstance(node, Seq):
        children: List[IRNode] = []
        for raw in node.children:
            ch = _coalesce(raw)
            sub = ch.children if isinstance(ch, Seq) else (ch,)
            for piece in sub:
                prev = children[-1] if children else None
                if (isinstance(prev, Block) and isinstance(piece, Block)
                        and piece.offset == prev.offset + prev.length):
                    children[-1] = Block(prev.offset, prev.length + piece.length)
                else:
                    children.append(piece)
        return seq(children)
    raise TypeError(type(node).__name__)


def _collapse(node: IRNode) -> IRNode:
    """Bottom-up collapsing of perfectly nested loops."""
    if isinstance(node, (Block, Scatter)):
        return node
    if isinstance(node, Seq):
        return seq(_collapse(ch) for ch in node.children)
    if isinstance(node, Loop):
        child = _collapse(node.child)
        if isinstance(child, Loop) and node.stride == child.count * child.stride:
            return Loop(node.count * child.count, child.stride, child.child)
        return loop(node.count, node.stride, child)
    raise TypeError(type(node).__name__)


def _unroll(node: IRNode) -> IRNode:
    """Unroll small loops over multi-run bodies.

    A rolled ``Loop`` cannot merge the tail run of iteration ``i`` with the
    head run of iteration ``i+1``; unrolling hands those runs to the Seq
    coalescer.  Loops over a single ``Block`` stay rolled -- they lower to
    one strided op, which beats a handful of slice copies.
    """
    if isinstance(node, (Block, Scatter)):
        return node
    if isinstance(node, Seq):
        return seq(_unroll(ch) for ch in node.children)
    if isinstance(node, Loop):
        child = _unroll(node.child)
        if (not isinstance(child, Block)
                and node.count <= _UNROLL_COUNT
                and ir_num_blocks(child) <= _UNROLL_BODY_RUNS):
            return seq(shift_ir(child, i * node.stride)
                       for i in range(node.count))
        return loop(node.count, node.stride, child)
    raise TypeError(type(node).__name__)


def optimize(node: IRNode) -> IRNode:
    """Run the pass pipeline to a fixpoint."""
    prev: Optional[IRNode] = None
    for _ in range(_MAX_PASS_ROUNDS):
        if node == prev:
            break
        prev = node
        node = _unroll(_collapse(_coalesce(node)))
    return node


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


#: a Scatter with at most this many runs lowers to per-run slice copies
_SCATTER_INLINE_RUNS = 4
#: expanding loops stops once a subtree would exceed this many python ops
_EXPAND_OPS_LIMIT = 96


def _estimate_ops(node: IRNode) -> int:
    if isinstance(node, Block):
        return 1
    if isinstance(node, Scatter):
        n = len(node.offsets)
        return n if n <= _SCATTER_INLINE_RUNS else 1
    if isinstance(node, Loop):
        if isinstance(node.child, Block):
            return 1
        return node.count * _estimate_ops(node.child)
    if isinstance(node, Seq):
        return sum(_estimate_ops(ch) for ch in node.children)
    raise TypeError(type(node).__name__)


def _emit(node: IRNode, shift: int, dst: int, ops: List[Any]) -> int:
    """Append ops for ``node`` displaced by ``shift``; returns next dst."""
    if isinstance(node, Block):
        ops.append(_ContigOp(shift + node.offset, dst, node.length))
        return dst + node.length
    if isinstance(node, Scatter):
        runs = len(node.offsets)
        if runs <= _SCATTER_INLINE_RUNS:
            for o, n in zip(node.offsets.tolist(), node.lengths.tolist()):
                ops.append(_ContigOp(shift + o, dst, n))
                dst += n
            return dst
        ops.append(_GatherOp(node.offsets + shift, node.lengths, dst))
        return dst + int(node.lengths.sum())
    if isinstance(node, Loop):
        child = node.child
        if isinstance(child, Block):
            if node.stride > child.length:
                ops.append(_StridedOp(shift + child.offset, dst,
                                      node.count, node.stride, child.length))
                return dst + node.count * child.length
            if node.stride == child.length:
                n = node.count * child.length
                ops.append(_ContigOp(shift + child.offset, dst, n))
                return dst + n
            # overlapping hand-built loop: preserve exact sequential order
            for i in range(node.count):
                dst = _emit(child, shift + i * node.stride, dst, ops)
            return dst
        if node.count * _estimate_ops(child) <= _EXPAND_OPS_LIMIT:
            for i in range(node.count):
                dst = _emit(child, shift + i * node.stride, dst, ops)
            return dst
        # too many python ops: gather the whole subtree through one index
        offs, lens = _expand(node)
        merged = merge_adjacent(offs, lens)
        ops.append(_GatherOp(merged.offsets + shift, merged.lengths, dst))
        return dst + merged.size
    if isinstance(node, Seq):
        for ch in node.children:
            dst = _emit(ch, shift, dst, ops)
        return dst
    raise TypeError(type(node).__name__)


def lower(node: IRNode) -> CopyProgram:
    """Lower optimized IR to a bulk-copy program."""
    ops: List[Any] = []
    if _estimate_ops(node) > _EXPAND_OPS_LIMIT:
        blocks = to_blocklist(node)
        ops.append(_GatherOp(blocks.offsets, blocks.lengths, 0))
        nbytes = blocks.size
    else:
        nbytes = _emit(node, 0, 0, ops)
    return CopyProgram(ops, nbytes)


#: above this many raw runs the de-optimized program gathers anyway (keeps
#: pathological self-test types bounded)
_DEOPT_OPS_CAP = 100_000


def lower_deoptimized(node: IRNode) -> CopyProgram:
    """One python-level slice copy per *raw* run -- no coalescing, no
    strided views.  Used only when the pass pipeline is disabled, to give
    the CI guideline gate something that demonstrably loses to manual copy."""
    offs, lens = _expand(node)
    if len(offs) > _DEOPT_OPS_CAP:
        merged = merge_adjacent(offs, lens)
        return CopyProgram([_GatherOp(merged.offsets, merged.lengths, 0)],
                           merged.size)
    ops: List[Any] = []
    dst = 0
    for o, n in zip(offs.tolist(), lens.tolist()):
        ops.append(_ContigOp(o, dst, n))
        dst += n
    return CopyProgram(ops, dst)


# -- compilation cache -------------------------------------------------------


class CompiledPlan:
    """Everything the stack needs about one (structure, count) pair."""

    __slots__ = ("key", "ir", "blocks", "program", "raw_blocks",
                 "start_bytes", "end_bytes", "signature", "engines")

    def __init__(self, key, ir: IRNode, blocks: BlockList,
                 program: CopyProgram, raw_blocks: int):
        self.key = key
        self.ir = ir
        self.blocks = blocks
        self.program = program
        self.raw_blocks = raw_blocks
        #: first byte any block touches (negative for a displacement below
        #: the origin) and one past the last: the buffer bounds
        self.start_bytes = int(blocks.offsets.min())
        self.end_bytes = int((blocks.offsets + blocks.lengths).max())
        #: the MPI type signature of the whole (structure, count) pair;
        #: filled in by the first TypedBuffer.signature() that asks
        self.signature: Optional[tuple] = None
        #: the pack engines that have costed this plan, by ``(CostModel,
        #: dual_context)``; see :func:`repro.datatypes.engine.engine_for`
        self.engines: Dict[tuple, Any] = {}

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
    from repro.prof import session

    if not session.is_enabled():
        return None
    return session.registry()


def _note_hit() -> None:
    global _HITS
    _HITS += 1
    reg = _session_registry()
    if reg is not None:
        reg.counter("repro_datatype_ir_cache_hits_total").inc()


def _note_compile(plan: CompiledPlan, wall: float) -> None:
    global _MISSES
    _MISSES += 1
    reg = _session_registry()
    if reg is not None:
        reg.counter("repro_datatype_ir_compile_total").inc()
        reg.counter("repro_datatype_ir_cache_misses_total").inc()
        reg.histogram("repro_datatype_ir_compile_seconds").observe(wall)
        reg.histogram("repro_datatype_ir_coalesced_ratio").observe(
            plan.coalesced_ratio)


def compile_datatype(datatype, count: int = 1) -> CompiledPlan:
    """Compile ``count`` back-to-back copies of ``datatype``.

    Memoized process-wide on ``(struct_key, count, passes_enabled)`` --
    equal-structure instances share the plan, its ``BlockList``, and its
    (lazily indexed) gather ops.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    key = (datatype.struct_key(), count, _PASSES_ENABLED)
    plan = _CACHE.get(key)
    if plan is not None:
        _note_hit()
        return plan
    t0 = time.perf_counter()
    node = datatype._build_ir()
    if count > 1:
        node = loop(count, datatype.extent, node)
    raw = ir_num_blocks(node)
    if _PASSES_ENABLED:
        node = optimize(node)
        program = lower(node)
    else:
        program = lower_deoptimized(node)
    blocks = to_blocklist(node)
    plan = CompiledPlan(key, node, blocks, program, raw)
    _CACHE[key] = plan
    _note_compile(plan, time.perf_counter() - t0)
    return plan


def ir_of(datatype) -> IRNode:
    """The optimized canonical IR of one instance of ``datatype``."""
    return compile_datatype(datatype).ir
