"""The single calibrated cost model shared by every experiment.

All simulated durations in the repository are derived from the constants in
:class:`CostModel`.  The defaults are calibrated once against the paper's
testbed class (InfiniBand DDR cluster, mid-2000s x86-64 nodes) and are *not*
tuned per figure -- see DESIGN.md section 2.

Rationale for the defaults:

- ``alpha`` ~ 4 us: small-message MPI latency on IB DDR with MVAPICH2.
- ``beta``  ~ 1/1.4 GB/s: large-message point-to-point bandwidth.
- ``copy_byte`` ~ 1/2.5 GB/s: memcpy bandwidth of DDR/DDR2-400 nodes.
- ``block_overhead`` ~ 7 ns: per contiguous-block bookkeeping in the
  general-purpose dataloop (descriptor fetch, pointer arithmetic, loop
  control) -- slightly more than a hand-tuned gather pays per element,
  which is how the datatype path ends up a few percent behind hand-tuned
  code even with a perfect engine (paper section 5.4).
- ``search_block`` ~ 2.5 ns: per-block cost of walking the datatype while
  re-searching for a lost context (baseline engine, paper section 3.1); a
  bare descriptor walk, cheaper than processing a block.
- ``lookahead_block`` ~ 15 ns: per-block cost of parsing the datatype
  *signature* during look-ahead (section 4.1) -- pricier per block than the
  search walk (it classifies density), but only ever 15 blocks per stage.
- ``handtuned_elem`` ~ 3 ns: per-element cost of PETSc's hand-tuned
  pack/unpack loops (an indexed gather in C).
- ``flop`` ~ 0.9 ns: per grid-point cost of one stencil/smoother update.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Tunable constants (seconds / bytes) for the simulated cluster."""

    # network
    alpha: float = 4.0e-6          # per-message latency (s)
    beta: float = 1.0 / 1.4e9      # per-byte wire time (s/B)
    rdma_alpha: float = 1.5e-6     # per-RDMA-operation initiation (s)

    # memory / datatype processing
    copy_byte: float = 1.0 / 2.5e9  # per-byte pack/unpack copy cost (s/B)
    block_overhead: float = 7e-9    # per contiguous block handled in a pack
    search_block: float = 2.5e-9    # per block walked during context re-search
    lookahead_block: float = 15e-9  # per block of signature-only look-ahead
    handtuned_elem: float = 3e-9    # per element of a hand-tuned pack loop

    # pack-engine policy knobs (mirroring MPICH2's segment code)
    pipeline_chunk: int = 16 * 1024   # bytes packed/sent per pipeline stage
    lookahead_depth: int = 15         # blocks examined to classify density
    dense_block_threshold: int = 256  # avg block >= this many bytes => dense

    # nonuniform-collective policy knobs (paper section 4.2)
    outlier_fraction: float = 0.125   # OUTLIER_FRACT in Eq. 1
    outlier_ratio_threshold: float = 8.0  # Eq. 1 ratio above which we adapt
    small_message_threshold: int = 4096   # alltoallw small/large bin split (B)

    # computation
    flop: float = 0.9e-9           # per stencil-point update (s)

    # storage (shared parallel file system)
    io_op_latency: float = 50e-6   # per file-system operation (s)
    io_byte: float = 1.0 / 0.5e9   # per byte through the (shared) server

    # heterogeneity / noise
    cpu_noise: float = 0.02        # uniform per-call CPU jitter fraction
    hetero_factor: float = 3.6 / 2.8  # Opteron 2.8 GHz vs Intel 3.6 GHz

    def __post_init__(self) -> None:
        # a chunk under 1 byte never ends the pack walk; a negative fails deep in a run
        if self.pipeline_chunk < 1:
            raise ValueError(
                f"pipeline_chunk must be >= 1, got {self.pipeline_chunk!r}")
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(
                    f"{f.name} must be >= 0, got {getattr(self, f.name)!r}")

    def transfer_time(self, nbytes: int) -> float:
        """Wire time of one message of ``nbytes`` bytes (alpha-beta model)."""
        return self.alpha + self.beta * max(0, nbytes)

    def with_(self, **kwargs) -> "CostModel":
        """A copy with some constants replaced (for ablation studies)."""
        return replace(self, **kwargs)


@dataclass
class CostLedger:
    """Accumulates per-category simulated time (for Fig. 13-style breakdowns).

    Categories used by the repository: ``"comm"``, ``"pack"``, ``"search"``,
    ``"lookahead"``, ``"compute"``, ``"sync"``.
    """

    totals: Dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds!r}")
        self.totals[category] = self.totals.get(category, 0.0) + seconds

    def get(self, category: str) -> float:
        return self.totals.get(category, 0.0)

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def merged(self, other: "CostLedger") -> "CostLedger":
        out = CostLedger(dict(self.totals))
        for k, v in other.totals.items():
            out.totals[k] = out.totals.get(k, 0.0) + v
        return out

    def fractions(self) -> Dict[str, float]:
        """Normalised shares per category (sums to 1.0 when non-empty)."""
        tot = self.total
        if tot <= 0:
            return {k: 0.0 for k in self.totals}
        return {k: v / tot for k, v in self.totals.items()}
