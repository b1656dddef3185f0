"""Flattened block representation of a derived datatype.

A datatype, applied at byte offset 0, describes an ordered sequence of
contiguous ``(offset, length)`` byte blocks -- MPI's *typemap* with like
types merged.  :class:`BlockList` stores that sequence as numpy arrays plus a
prefix-sum over lengths, which gives the pack engines O(log n) random access
("where in the buffer does packed byte position p fall?") and O(1) block
counting -- the *functional* machinery stays fast even while the *cost model*
charges the baseline engine its quadratic re-search time.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np


class BlockList:
    """An immutable ordered list of contiguous byte blocks.

    Attributes
    ----------
    offsets, lengths:
        int64 arrays; block ``i`` covers bytes
        ``[offsets[i], offsets[i] + lengths[i])`` of the (relative) buffer.
    cum:
        exclusive prefix sum of ``lengths`` with a trailing total, i.e.
        ``cum[i]`` is the packed-stream position where block ``i`` begins and
        ``cum[-1]`` is the total payload size.
    size:
        total payload bytes (``cum[-1]`` as a Python int).
    """

    __slots__ = ("offsets", "lengths", "cum", "size")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if offsets.shape != lengths.shape or offsets.ndim != 1:
            raise ValueError("offsets/lengths must be 1-D and equal length")
        if np.any(lengths <= 0):
            raise ValueError("all block lengths must be positive")
        self.offsets = offsets
        self.lengths = lengths
        self.cum = np.concatenate(([0], np.cumsum(lengths)))
        self.size = int(self.cum[-1])

    # -- basic properties --------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.offsets)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.offsets.tolist(), self.lengths.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockList(num_blocks={self.num_blocks}, size={self.size})"

    # -- queries used by the pack engines -----------------------------------

    def block_at(self, packed_pos: int) -> int:
        """Index of the block containing packed-stream byte ``packed_pos``."""
        if not 0 <= packed_pos < self.size:
            raise IndexError(packed_pos)
        return int(np.searchsorted(self.cum, packed_pos, side="right") - 1)

    def blocks_in_range(self, start: int, stop: int) -> tuple[int, int]:
        """Half-open block-index range touched by packed bytes [start, stop)."""
        if start >= stop:
            return (0, 0)
        first = self.block_at(start)
        last = self.block_at(stop - 1)
        return (first, last + 1)

    def mean_block_length(self, first_block: int, nblocks: int) -> float:
        """Average length of ``nblocks`` blocks starting at ``first_block``
        (clipped to the end) -- the density statistic of the look-ahead."""
        hi = min(first_block + nblocks, self.num_blocks)
        if hi <= first_block:
            return 0.0
        span = self.cum[hi] - self.cum[first_block]
        return float(span) / (hi - first_block)

    # -- transformations -----------------------------------------------------

    def shifted(self, delta: int) -> "BlockList":
        """The same blocks ``delta`` bytes further on.  Only the offsets
        are new: the (never mutated, already validated) ``lengths`` and
        ``cum`` arrays are shared, not rebuilt."""
        out = BlockList.__new__(BlockList)
        out.offsets = self.offsets + int(delta)
        out.lengths = self.lengths
        out.cum = self.cum
        out.size = self.size
        return out


def merge_runs(offsets: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fuse every run that starts exactly where the previous one ends
    (order kept; the inputs come back unchanged when nothing abuts).

    Mirrors what MPI implementations do when building the internal "dataloop"
    representation; without it a ``Contiguous(n, DOUBLE)`` would count ``n``
    blocks instead of one and every density estimate would be wrong.
    """
    if len(offsets) < 2:
        return offsets, lengths
    # a new run starts where the previous block does NOT abut this one
    starts = np.empty(len(offsets), dtype=bool)
    starts[0] = True
    starts[1:] = offsets[1:] != offsets[:-1] + lengths[:-1]
    if starts.all():
        return offsets, lengths
    idx = np.flatnonzero(starts)
    return offsets[idx], np.add.reduceat(lengths, idx)
