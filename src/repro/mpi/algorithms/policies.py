"""Algorithm selection: which registered algorithm does one call get?

:func:`decide` is the one rule.  Per collective it applies the adaptive
or the mpich rule, chosen by the feature flag that governs the
collective: ``adaptive_allgatherv`` for Allgatherv, ``binned_alltoallw``
for Alltoallw and the sparse exchange, both flags for every other
collective.

*mpich* is the stock MPICH2 / MVAPICH2-0.9.5 selection table of the
paper's section 3.2: tree algorithms below the Allgatherv long-message
threshold, the ring above it; round-robin Alltoallw; the dense sparse
exchange.  *adaptive* is the paper's section 4.2 rules: in the Allgatherv
long-message regime run the Floyd-Rivest outlier-ratio check (Eq. 1) and
abandon the ring when the set is nonuniform; bin Alltoallw peers by
message size; NBX for the sparse exchange.  So :meth:`MPIConfig.baseline`
decides by mpich everywhere, :meth:`MPIConfig.optimized` by adaptive
everywhere, and single-flag ablation configs mix the two per collective.
Every other collective has one registered algorithm and gets it.

Each implementation guards its own domain (recursive doubling raises
:class:`MPIError` off a power-of-two communicator, the tree algorithms
on multi-block regions of a noncontiguous element type); the rule never
picks outside it.  A per-call ``algorithm=`` (see :func:`select`) pins
one implementation.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.mpi import outlier
from repro.mpi.algorithms.registry import REGISTRY, SelectionContext
from repro.mpi.comm import MPIError
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


def _tree(ctx: SelectionContext) -> str:
    """The short-message / adapted Allgatherv algorithm for this N."""
    return "recursive_doubling" if ctx.pow2 else "dissemination"


def _rule(config: MPIConfig, collective: str) -> str:
    """``"adaptive"`` when the flag governing ``collective`` is on."""
    if collective == "allgatherv":
        adaptive = config.adaptive_allgatherv
    elif collective in ("alltoallw", "sparse_alltoall"):
        adaptive = config.binned_alltoallw
    else:
        adaptive = config.adaptive_allgatherv and config.binned_alltoallw
    return "adaptive" if adaptive else "mpich"


def decide(config: MPIConfig, ctx: SelectionContext,
           prof: Any = NULL_PROFILER) -> Decision:
    """The algorithm ``config``'s rule picks for the call ``ctx`` describes.

    Raises :class:`MPIError` for a collective with no registered
    algorithm, or with several and no rule above to choose among them.
    """
    collective = ctx.collective
    rule = _rule(config, collective)
    if collective == "allgatherv":
        return _allgatherv(ctx, rule, prof)
    if collective == "alltoallw":
        algorithm = "binned" if rule == "adaptive" else "round_robin"
        return Decision(collective, algorithm, rule, reason=rule)
    if collective == "sparse_alltoall":
        if rule == "adaptive":
            return _adaptive_sparse(ctx)
        # the pre-NBX protocol: a dense counts exchange on every call
        return Decision(collective, "dense", rule, reason=rule)
    names = REGISTRY.names(collective)
    if len(names) != 1:
        raise MPIError(f"no selection rule for collective {collective!r} "
                       f"(registered: {names})")
    return Decision(collective, names[0], rule, reason="sole")


def _allgatherv(ctx: SelectionContext, rule: str, prof: Any) -> Decision:
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


def _adaptive_sparse(ctx: SelectionContext) -> Decision:
    """NBX-family choice for one sparse exchange.

    The dense-vs-NBX boundary crosses wire protocols, so that call is
    never made here (the caller already committed to NBX on rank-uniform
    grounds); ``nbx`` vs ``nbx_binned`` interoperate on the wire, so the
    binning choice may consult the local volume set.
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


def select(comm: Any, collective: str,
           ctx: Optional[SelectionContext] = None,
           algorithm: Optional[str] = None) -> Decision:
    """Select the algorithm for one collective call on ``comm``.

    :func:`decide` by ``comm``'s config over ``ctx`` (None: the
    control-plane context of ``comm``).  ``algorithm`` forces a specific
    implementation (microbenchmarks); the name is still validated against
    the registry.  Emits the selection-decision counter.
    """
    prof = comm.cluster.profiler
    if algorithm is not None:
        REGISTRY.get(collective, algorithm)  # raises MPIError when unknown
        decision = Decision(collective, algorithm, "forced", reason="forced")
    else:
        if ctx is None:
            ctx = SelectionContext.for_comm(comm, collective)
        decision = decide(comm.config, ctx, prof)
    if prof.enabled:
        prof.count("repro_algorithm_selections_total", labels={
            "collective": collective,
            "algorithm": decision.algorithm,
            "policy": decision.policy,
        })
    return decision
