"""The single-context (baseline) and dual-context (optimised) pack engines.

Both engines plan the *pipelined* processing of a noncontiguous send: the
payload is handled in ``pipeline_chunk``-byte stages so packing can overlap
the wire transfer of the previous chunk (section 3.1 of the paper).  Before
each stage the engine looks ahead ``lookahead_depth`` blocks to classify the
upcoming region as *dense* (medium-to-large contiguous segments: send
directly, writev-style) or *sparse* (many short segments: pack into an
intermediate buffer first).

The difference the paper analyses:

``SingleContextEngine`` (MPICH2 / MVAPICH2-0.9.5 behaviour)
    Keeps ONE context (cursor) into the datatype.  The look-ahead advances
    that cursor; when the region is sparse the pack must restart from the
    *previous* position, which the engine has lost -- it re-searches the
    datatype from the beginning.  The per-stage search walks all blocks
    already processed, so total search time grows quadratically with the
    datatype size.

``DualContextEngine`` (the paper's section 4.1 design)
    Keeps TWO contexts: one rolls forward parsing only datatype *signatures*
    for the look-ahead, the other tracks the pack position.  No re-search
    ever happens; the look-ahead cost is near-constant per stage.

The engines return :class:`PackStage` records with the simulated CPU cost of
each phase; the MPI layer turns those into pipelined simulated time.  The
real byte movement is done separately by
:class:`repro.datatypes.packing.TypedBuffer` (vectorised), so wall-clock time
stays small even when simulated search time is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.datatypes.flatten import BlockList
from repro.util.costmodel import CostModel


@dataclass(frozen=True)
class PackStage:
    """One pipeline stage of a noncontiguous send.

    ``start``/``nbytes`` address the packed stream; the ``*_s`` fields are
    nominal CPU seconds (before per-rank speed scaling) split by phase so
    Fig. 13-style breakdowns can be produced.
    """

    start: int
    nbytes: int
    dense: bool
    lookahead_s: float
    search_s: float
    pack_s: float
    #: blocks walked to recover the lost pack context (0 when no re-search
    #: happened; the profiler's re-search depth histogram reads this)
    search_blocks: int = 0

    @property
    def cpu_s(self) -> float:
        return self.lookahead_s + self.search_s + self.pack_s


class _EngineBase:
    """Shared stage-planning logic; subclasses set the search policy.

    An engine is the costed walk of one block stream under one cost model:
    the stages and their per-phase totals are fixed at construction, and
    :func:`engine_for` shares engines between sends.
    """

    #: subclasses: does a sparse decision force a context re-search?
    researches_on_sparse: bool

    def __init__(self, blocks: BlockList, cost: CostModel):
        self.blocks = blocks
        self.cost = cost
        #: every pipeline stage of one full pass over the payload
        self.stages: Tuple[PackStage, ...] = tuple(self._walk())
        # simulated time is pinned bit for bit: each total is summed in
        # stage order from 0.0, exactly as the senders used to sum it
        look = search = pack = 0.0
        for stage in self.stages:
            look += stage.lookahead_s
            search += stage.search_s
            pack += stage.pack_s
        self.lookahead_s, self.search_s, self.pack_s = look, search, pack
        self.cpu_s = sum(s.cpu_s for s in self.stages)

    def classify(self, first_block: int) -> bool:
        """True if the region starting at ``first_block`` is dense."""
        mean = self.blocks.mean_block_length(first_block, self.cost.lookahead_depth)
        return mean >= self.cost.dense_block_threshold

    def plan(self) -> Tuple[PackStage, ...]:
        """All pipeline stages of one full pass over the payload."""
        return self.stages

    def _walk(self) -> Iterator[PackStage]:
        cost = self.cost
        blocks = self.blocks
        size = blocks.size
        if blocks.num_blocks == 1:
            # Fully contiguous: sent straight from the user buffer, no
            # datatype processing at all (the MPI fast path).
            for pos in range(0, size, cost.pipeline_chunk):
                yield PackStage(pos, min(cost.pipeline_chunk, size - pos),
                                True, 0.0, 0.0, 0.0)
            return
        pos = 0
        while pos < size:
            chunk = min(cost.pipeline_chunk, size - pos)
            first, last = blocks.blocks_in_range(pos, pos + chunk)
            nblocks = last - first
            look_blocks = min(cost.lookahead_depth, blocks.num_blocks - first)
            lookahead_s = look_blocks * cost.lookahead_block
            dense = self.classify(first)
            search_blocks = 0
            if dense:
                # writev-style direct send: per-block iovec setup, no copy
                search_s = 0.0
                pack_s = nblocks * cost.block_overhead
            else:
                # pack into the intermediate buffer
                if self.researches_on_sparse:
                    # context was advanced by the look-ahead; walk the
                    # datatype from block 0 back to the pack position
                    search_s = first * cost.search_block
                    search_blocks = first
                else:
                    search_s = 0.0
                pack_s = chunk * cost.copy_byte + nblocks * cost.block_overhead
            yield PackStage(pos, chunk, dense, lookahead_s, search_s,
                            pack_s, search_blocks)
            pos += chunk


class SingleContextEngine(_EngineBase):
    """Baseline MPICH2-style engine: sparse stages pay a context re-search."""

    researches_on_sparse = True


class DualContextEngine(_EngineBase):
    """Paper section 4.1: a second context eliminates the re-search."""

    researches_on_sparse = False


def engine_for(typed, cost: CostModel, dual_context: bool) -> _EngineBase:
    """The engine the MPI configuration flag selects, over a
    :class:`~repro.datatypes.packing.TypedBuffer`'s layout.

    Engines live on the buffer's compiled plan (shared across equal-structure
    types and across ``offset_bytes``), one per cost model and kind, so a
    repeated send re-derives neither the ``BlockList`` nor the stage costs;
    both kinds see the same merged block stream.
    """
    engines = typed.plan.engines
    engine = engines.get((cost, dual_context))
    if engine is None:
        cls = DualContextEngine if dual_context else SingleContextEngine
        engine = engines[cost, dual_context] = cls(typed.blocks, cost)
    return engine


def unpack_stage_cost(nbytes: int, nblocks: int, cost: CostModel, contiguous: bool) -> float:
    """Receiver-side CPU cost of scattering one chunk into a typed layout.

    Receivers keep a single monotone context (no density decision, hence no
    look-ahead and no lost context) in both MPI configurations, so the cost
    is the same for baseline and optimised runs.
    """
    if contiguous:
        return 0.0
    return nbytes * cost.copy_byte + nblocks * cost.block_overhead
