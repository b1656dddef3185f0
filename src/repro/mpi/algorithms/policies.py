"""Selection policies: which registered algorithm does one call get?

Four policies (chosen by :attr:`repro.mpi.config.MPIConfig.selection_policy`):

``fixed:<name>``
    Pin every collective that registers an (applicable) algorithm of that
    name; others fall back to the ``mpich`` rule.  For microbenchmarks.

``mpich``
    The stock MPICH2 / MVAPICH2-0.9.5 selection tables of the paper's
    section 3.2: tree algorithms below the Allgatherv long-message
    threshold, the ring above it; round-robin Alltoallw.  Bit-for-bit the
    decisions :meth:`MPIConfig.baseline` made before the registry existed.

``adaptive``
    The paper's section 4.2 rules, generalised so any collective with a
    volume set can consult the outlier detector: in the Allgatherv
    long-message regime run the Floyd-Rivest outlier-ratio check (Eq. 1)
    and abandon the ring when the set is nonuniform; bin Alltoallw peers
    by message size.  Bit-for-bit :meth:`MPIConfig.optimized`'s decisions.

``autotuned``
    Look the call's bucket up in a tuning table measured in the simulator
    (``python -m repro.bench --autotune``); an LRU decision cache keeps the
    per-call overhead at one dict probe.  Untrained buckets fall back to
    the ``adaptive`` rule (including its detection-cost accounting).

A config whose ``selection_policy`` is None derives the policy from its
feature flags per collective (``adaptive_allgatherv``/``binned_alltoallw``),
which keeps single-flag ablation configs meaningful; with all flags off
that *is* the ``mpich`` policy, with all on it *is* ``adaptive``.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Any, Optional

from repro.mpi import outlier
from repro.mpi.algorithms.registry import REGISTRY, SelectionContext
from repro.mpi.algorithms.tuning import TuningTable, bucket_key, load_table
from repro.mpi.config import MPIConfig
from repro.prof import NULL_PROFILER


class Decision:
    """Outcome of one selection: the algorithm plus accounting metadata."""

    __slots__ = ("collective", "algorithm", "policy", "reason",
                 "detect_seconds", "cache")

    def __init__(self, collective: str, algorithm: str, policy: str,
                 reason: str = "", detect_seconds: float = 0.0,
                 cache: Optional[str] = None):
        self.collective = collective
        self.algorithm = algorithm
        self.policy = policy
        self.reason = reason
        #: CPU seconds the decision itself cost (charged by the caller on
        #: the simulated rank -- e.g. the linear-time outlier pass)
        self.detect_seconds = detect_seconds
        #: "hit"/"miss" when a tuning-table decision cache was consulted
        self.cache = cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Decision({self.collective}:{self.algorithm} "
                f"policy={self.policy} reason={self.reason!r})")


class SelectionPolicy:
    """Base class; subclasses implement :meth:`decide`."""

    name = "abstract"

    def __init__(self, config: MPIConfig):
        self.config = config

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        raise NotImplementedError

    # -- shared building blocks ---------------------------------------------

    def _sole(self, ctx: SelectionContext) -> Optional[Decision]:
        """Single-candidate collectives need no policy logic."""
        candidates = REGISTRY.candidates(ctx.collective)
        if len(candidates) == 1:
            return Decision(ctx.collective, candidates[0].name, self.name,
                            reason="sole")
        return None

    def _tree(self, ctx: SelectionContext) -> str:
        """The short-message / adapted Allgatherv algorithm for this N."""
        return "recursive_doubling" if ctx.pow2 else "dissemination"

    def _mpich_allgatherv(self, ctx: SelectionContext, reason_prefix: str = "mpich") -> Decision:
        if not ctx.contiguous:
            # tree algorithms forward multi-block regions as one HIndexed
            # message, which requires a contiguous element type; the ring
            # moves single blocks and is always applicable
            return Decision(ctx.collective, "ring", self.name,
                            reason=f"{reason_prefix}:noncontiguous")
        threshold = self.config.allgatherv_long_threshold
        if ctx.total_bytes < threshold:
            return Decision(ctx.collective, self._tree(ctx), self.name,
                            reason=f"{reason_prefix}:short")
        return Decision(ctx.collective, "ring", self.name,
                        reason=f"{reason_prefix}:long")

    def _adaptive_allgatherv(self, ctx: SelectionContext, prof: Any) -> Decision:
        if not ctx.contiguous:
            return Decision(ctx.collective, "ring", self.name,
                            reason="adaptive:noncontiguous")
        threshold = self.config.allgatherv_long_threshold
        if ctx.total_bytes < threshold:
            return Decision(ctx.collective, self._tree(ctx), self.name,
                            reason="adaptive:short")
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
            return Decision(ctx.collective, self._tree(ctx), self.name,
                            reason="adaptive:outliers", detect_seconds=detect)
        return Decision(ctx.collective, "ring", self.name,
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
            return Decision(ctx.collective, "nbx_binned", self.name,
                            reason="adaptive:mixed-sizes")
        return Decision(ctx.collective, "nbx", self.name, reason="adaptive")


class MpichPolicy(SelectionPolicy):
    """Today's baseline thresholds, everywhere."""

    name = "mpich"

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        sole = self._sole(ctx)
        if sole is not None:
            return sole
        if ctx.collective == "allgatherv":
            return self._mpich_allgatherv(ctx)
        if ctx.collective == "alltoallw":
            return Decision(ctx.collective, "round_robin", self.name,
                            reason="mpich")
        if ctx.collective == "sparse_alltoall":
            # the pre-NBX protocol: a dense counts exchange on every call
            return Decision(ctx.collective, "dense", self.name,
                            reason="mpich")
        return self._first_applicable(ctx)

    def _first_applicable(self, ctx: SelectionContext) -> Decision:
        candidates = REGISTRY.candidates(ctx.collective, ctx)
        if not candidates:
            from repro.mpi.comm import MPIError

            raise MPIError(
                f"no applicable algorithm for {ctx.collective} (N={ctx.size})")
        return Decision(ctx.collective, candidates[0].name, self.name,
                        reason="first-applicable")


class AdaptivePolicy(MpichPolicy):
    """The paper's section 4.2 rules for every volume-carrying collective."""

    name = "adaptive"

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        sole = self._sole(ctx)
        if sole is not None:
            return sole
        if ctx.collective == "allgatherv":
            return self._adaptive_allgatherv(ctx, prof)
        if ctx.collective == "alltoallw":
            return Decision(ctx.collective, "binned", self.name,
                            reason="adaptive")
        if ctx.collective == "sparse_alltoall":
            return self._adaptive_sparse(ctx)
        return self._first_applicable(ctx)


class FlagPolicy(SelectionPolicy):
    """Per-collective mpich/adaptive derived from the config's feature
    flags -- the pre-registry dispatch, written once.  Reports the
    underlying rule ("mpich"/"adaptive") as its policy name so metrics
    reflect what actually decided."""

    def __init__(self, config: MPIConfig):
        super().__init__(config)
        self._mpich = MpichPolicy(config)
        self._adaptive = AdaptivePolicy(config)

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.config.adaptive_allgatherv and self.config.binned_alltoallw:
            return "adaptive"
        if self.config.adaptive_allgatherv or self.config.binned_alltoallw:
            return "flags"
        return "mpich"

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        if ctx.collective == "allgatherv":
            delegate = (self._adaptive if self.config.adaptive_allgatherv
                        else self._mpich)
        elif ctx.collective in ("alltoallw", "sparse_alltoall"):
            delegate = (self._adaptive if self.config.binned_alltoallw
                        else self._mpich)
        else:
            delegate = self._mpich
        return delegate.decide(ctx, prof)


class FixedPolicy(SelectionPolicy):
    """Force one named algorithm wherever it is registered and applicable."""

    def __init__(self, config: MPIConfig, algorithm: str):
        super().__init__(config)
        self.algorithm = algorithm
        self.name = f"fixed:{algorithm}"
        self._fallback = MpichPolicy(config)

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        if self.algorithm in REGISTRY.names(ctx.collective):
            algorithm = REGISTRY.get(ctx.collective, self.algorithm)
            if algorithm.applicable(ctx):
                return Decision(ctx.collective, self.algorithm, self.name,
                                reason="fixed")
            reason = "fixed:inapplicable"
        else:
            reason = "fixed:unregistered"
        decision = self._fallback.decide(ctx, prof)
        decision.policy = self.name
        decision.reason = f"{reason}->{decision.reason}"
        return decision


class AutotunedPolicy(SelectionPolicy):
    """Tuning-table lookups with an LRU decision cache.

    A table hit costs one bucket classification plus a dict probe -- no
    simulated CPU is charged, unlike the adaptive policy's linear-time
    detection pass.  Untrained buckets fall back to the adaptive rule
    (with its honest detection cost)."""

    name = "autotuned"
    CACHE_SIZE = 256

    def __init__(self, config: MPIConfig, table: Optional[TuningTable] = None):
        super().__init__(config)
        if table is None and config.tuning_table:
            table = load_table(config.tuning_table)
        self.table = table
        self._fallback = AdaptivePolicy(config)
        #: bucket key -> algorithm
        self._cache: "OrderedDict[str, str]" = OrderedDict()

    def decide(self, ctx: SelectionContext, prof: Any = NULL_PROFILER) -> Decision:
        sole = self._sole(ctx)
        if sole is not None:
            return sole
        key = bucket_key(ctx)
        algorithm = self._cache.get(key)
        if algorithm is not None:
            self._cache.move_to_end(key)
            if REGISTRY.get(ctx.collective, algorithm).applicable(ctx):
                return Decision(ctx.collective, algorithm, self.name,
                                reason="table", cache="hit")
        algorithm = self.table.lookup(key) if self.table is not None else None
        if (algorithm is not None
                and algorithm in REGISTRY.names(ctx.collective)
                and REGISTRY.get(ctx.collective, algorithm).applicable(ctx)):
            self._remember(key, algorithm)
            return Decision(ctx.collective, algorithm, self.name,
                            reason="table", cache="miss")
        decision = self._fallback.decide(ctx, prof)
        decision.policy = self.name
        decision.reason = f"untrained->{decision.reason}"
        decision.cache = "miss"
        return decision

    def _remember(self, key: str, algorithm: str) -> None:
        self._cache[key] = algorithm
        self._cache.move_to_end(key)
        while len(self._cache) > self.CACHE_SIZE:
            self._cache.popitem(last=False)


@lru_cache(maxsize=128)
def policy_for(config: MPIConfig) -> SelectionPolicy:
    """Resolve (and cache) the policy object one config maps onto.

    ``MPIConfig`` is frozen/hashable, so identical configs share one policy
    instance -- which is what gives the autotuned policy a process-wide
    decision cache per config.
    """
    spec = config.selection_policy
    if spec is None:
        if config.adaptive_allgatherv and config.binned_alltoallw:
            return AdaptivePolicy(config)
        if not config.adaptive_allgatherv and not config.binned_alltoallw:
            return MpichPolicy(config)
        return FlagPolicy(config)
    if spec == "mpich":
        return MpichPolicy(config)
    if spec == "adaptive":
        return AdaptivePolicy(config)
    if spec == "autotuned":
        return AutotunedPolicy(config)
    if spec.startswith("fixed:"):
        return FixedPolicy(config, spec.split(":", 1)[1])
    raise ValueError(f"unknown selection_policy {spec!r}")


def select(comm: Any, collective: str,
           ctx: Optional[SelectionContext] = None,
           algorithm: Optional[str] = None) -> Decision:
    """Select the algorithm for one collective call on ``comm``.

    ``algorithm`` forces a specific implementation (microbenchmarks); the
    decision is still validated against the registry.  Emits the
    selection-decision counter and tuning-cache metrics.
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
        if decision.cache == "hit":
            prof.count("repro_tuning_cache_hits_total")
        elif decision.cache == "miss":
            prof.count("repro_tuning_cache_misses_total")
    return decision
