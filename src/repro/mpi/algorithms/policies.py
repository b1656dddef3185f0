"""Selection policies: which registered algorithm does one call get?

One policy, :class:`RulePolicy`, which :func:`policy_for` builds (once
per config) for every call.

:class:`RulePolicy`
    Per collective, the adaptive or the mpich rule, chosen by the feature
    flag that governs the collective: ``adaptive_allgatherv`` for
    Allgatherv, ``binned_alltoallw`` for Alltoallw and the sparse
    exchange, both flags for every other collective.

    *mpich* is the stock MPICH2 / MVAPICH2-0.9.5 selection table of the
    paper's section 3.2: tree algorithms below the Allgatherv long-message
    threshold, the ring above it; round-robin Alltoallw; the dense sparse
    exchange.  *adaptive* is the paper's section 4.2 rules: in the
    Allgatherv long-message regime run the Floyd-Rivest outlier-ratio
    check (Eq. 1) and abandon the ring when the set is nonuniform; bin
    Alltoallw peers by message size; NBX for the sparse exchange.  So
    :meth:`MPIConfig.baseline` decides by mpich everywhere,
    :meth:`MPIConfig.optimized` by adaptive everywhere, and single-flag
    ablation configs mix the two per collective.

A per-call ``algorithm=`` (see :func:`select`) pins one implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional

from repro.mpi import outlier
from repro.mpi.algorithms.registry import REGISTRY, SelectionContext
from repro.mpi.config import MPIConfig
from repro.prof import NULL_PROFILER


class Decision:
    """Outcome of one selection: the algorithm plus accounting metadata."""

    __slots__ = ("collective", "algorithm", "policy", "reason",
                 "detect_seconds")

    def __init__(self, collective: str, algorithm: str, policy: str,
                 reason: str = "", detect_seconds: float = 0.0):
        self.collective = collective
        self.algorithm = algorithm
        self.policy = policy
        self.reason = reason
        #: CPU seconds the decision itself cost (charged by the caller on
        #: the simulated rank -- e.g. the linear-time outlier pass)
        self.detect_seconds = detect_seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Decision({self.collective}:{self.algorithm} "
                f"policy={self.policy} reason={self.reason!r})")


#: Allgatherv total payload (bytes) at/above which the rules pick the ring
#: algorithm (the "large message" regime of section 3.2)
ALLGATHERV_LONG_THRESHOLD = 16 * 1024


def _sole(ctx: SelectionContext, policy: str) -> Optional[Decision]:
    """Single-candidate collectives need no policy logic."""
    candidates = REGISTRY.candidates(ctx.collective)
    if len(candidates) == 1:
        return Decision(ctx.collective, candidates[0].name, policy,
                        reason="sole")
    return None


def _tree(ctx: SelectionContext) -> str:
    """The short-message / adapted Allgatherv algorithm for this N."""
    return "recursive_doubling" if ctx.pow2 else "dissemination"


class RulePolicy:
    """The mpich or adaptive rule per collective, as the config's flags say."""

    def __init__(self, config: MPIConfig):
        self.config = config

    def _rule(self, collective: str) -> str:
        """``"adaptive"`` when the flag governing ``collective`` is on."""
        if collective == "allgatherv":
            adaptive = self.config.adaptive_allgatherv
        elif collective in ("alltoallw", "sparse_alltoall"):
            adaptive = self.config.binned_alltoallw
        else:
            adaptive = (self.config.adaptive_allgatherv
                        and self.config.binned_alltoallw)
        return "adaptive" if adaptive else "mpich"

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        rule = self._rule(ctx.collective)
        sole = _sole(ctx, rule)
        if sole is not None:
            return sole
        if ctx.collective == "allgatherv":
            return self._allgatherv(ctx, rule, prof)
        if ctx.collective == "alltoallw":
            algorithm = "binned" if rule == "adaptive" else "round_robin"
            return Decision(ctx.collective, algorithm, rule, reason=rule)
        if ctx.collective == "sparse_alltoall":
            if rule == "adaptive":
                return self._adaptive_sparse(ctx)
            # the pre-NBX protocol: a dense counts exchange on every call
            return Decision(ctx.collective, "dense", rule, reason=rule)
        candidates = REGISTRY.candidates(ctx.collective, ctx)
        if not candidates:
            from repro.mpi.comm import MPIError

            raise MPIError(
                f"no applicable algorithm for {ctx.collective} (N={ctx.size})")
        return Decision(ctx.collective, candidates[0].name, rule,
                        reason="first-applicable")

    def _allgatherv(self, ctx: SelectionContext, rule: str, prof: Any) -> Decision:
        if not ctx.contiguous:
            # tree algorithms forward multi-block regions as one HIndexed
            # message, which requires a contiguous element type; the ring
            # moves single blocks and is always applicable
            return Decision(ctx.collective, "ring", rule,
                            reason=f"{rule}:noncontiguous")
        if ctx.total_bytes < ALLGATHERV_LONG_THRESHOLD:
            return Decision(ctx.collective, _tree(ctx), rule,
                            reason=f"{rule}:short")
        if rule == "mpich":
            return Decision(ctx.collective, "ring", rule, reason="mpich:long")
        # section 4.2.1: a linear-time Floyd-Rivest outlier pass over the
        # (locally known) volume set, charged to the deciding rank
        detect = outlier.detection_cpu_seconds(ctx.size)
        if prof.enabled:
            stats = outlier.SelectStats()
            found = outlier.has_outliers(ctx.volumes, ctx.cost, stats=stats)
            prof.count("repro_outlier_checks_total")
            prof.count("repro_kselect_calls_total", stats.calls)
            prof.count("repro_kselect_pivot_passes_total", stats.pivot_passes)
            if found:
                prof.count("repro_outlier_detected_total")
        else:
            found = outlier.has_outliers(ctx.volumes, ctx.cost)
        if found:
            return Decision(ctx.collective, _tree(ctx), rule,
                            reason="adaptive:outliers", detect_seconds=detect)
        return Decision(ctx.collective, "ring", rule,
                        reason="adaptive:uniform", detect_seconds=detect)

    def _adaptive_sparse(self, ctx: SelectionContext) -> Decision:
        """NBX-family choice for one sparse exchange.

        The dense-vs-NBX boundary crosses wire protocols, so that call is
        never made here (the caller already committed to NBX on
        rank-uniform grounds); ``nbx`` vs ``nbx_binned`` interoperate on
        the wire, so the binning choice may consult the local volume set.
        """
        threshold = ctx.cost.small_message_threshold if ctx.cost else 0
        sizes = [v for v in ctx.volumes if v > 0]
        mixed = bool(threshold and sizes
                     and any(v < threshold for v in sizes)
                     and any(v >= threshold for v in sizes))
        if mixed:
            return Decision(ctx.collective, "nbx_binned", "adaptive",
                            reason="adaptive:mixed-sizes")
        return Decision(ctx.collective, "nbx", "adaptive", reason="adaptive")


@lru_cache(maxsize=128)
def policy_for(config: MPIConfig) -> RulePolicy:
    """The (cached) flag-driven rule one config maps onto.

    ``MPIConfig`` is frozen/hashable, so identical configs share one policy
    instance.
    """
    return RulePolicy(config)


def select(comm: Any, collective: str,
           ctx: Optional[SelectionContext] = None,
           algorithm: Optional[str] = None) -> Decision:
    """Select the algorithm for one collective call on ``comm``.

    ``algorithm`` forces a specific implementation (microbenchmarks); the
    decision is still validated against the registry.  Emits the
    selection-decision counter.
    """
    if ctx is None:
        ctx = SelectionContext.for_comm(comm, collective)
    cluster = getattr(comm, "cluster", None)
    prof = cluster.profiler if cluster is not None else NULL_PROFILER
    if algorithm is not None:
        REGISTRY.get(collective, algorithm)  # raises MPIError when unknown
        decision = Decision(collective, algorithm, "forced", reason="forced")
    else:
        decision = policy_for(comm.config).decide(ctx, prof)
    if prof.enabled:
        prof.count("repro_algorithm_selections_total", labels={
            "collective": collective,
            "algorithm": decision.algorithm,
            "policy": decision.policy,
        })
    return decision
