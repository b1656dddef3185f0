"""``repro.prof`` -- the instrumentation currency of the whole stack.

One :class:`Profiler` per simulated cluster bundles:

- a :class:`repro.prof.spans.Tracer` (nestable spans stamped from
  ``engine.now``: pack/unpack, look-ahead, datatype re-search, collective
  rounds, VecScatter, KSP iterations, request waits),
- a :class:`repro.prof.metrics.MetricsRegistry` (counters / gauges /
  histograms under the documented name catalogue),
- the wire-transfer event stream (via the cluster observer API).

Attach it *before* running the cluster::

    cluster = Cluster(8, config=MPIConfig.optimized())
    prof = Profiler.attach(cluster)
    cluster.run(main)
    print(prof.metrics.render_prometheus())
    rows = prof.breakdown()                       # Fig. 13-style attribution
    write_chrome_trace("trace.json", prof)        # chrome://tracing

Instrumented code never checks whether profiling is on: every cluster
carries a profiler attribute that defaults to :data:`NULL_PROFILER`, whose
operations are no-ops, so the disabled-by-default overhead is a handful of
attribute lookups per instrumented call (~0.3 us per span+count pair; an
*attached* profiler costs 40-60 % host time, see docs/OBSERVABILITY.md).

Profiling for a whole process (every cluster constructed anywhere, e.g.
inside ``repro.bench`` figure sweeps) is switched on through
:mod:`repro.prof.session`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.prof import export as _export
from repro.prof.metrics import (  # noqa: F401  (re-exported API)
    CATALOGUE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    snapshot_delta,
)
from repro.prof.spans import SPAN_CATEGORIES, Span, Tracer  # noqa: F401
from repro.prof.export import (  # noqa: F401
    aggregate_breakdown,
    breakdown,
    chrome_trace,
    render_breakdown,
    validate_breakdown,
    write_chrome_trace,
)
from repro.prof.critical import (  # noqa: F401
    CriticalPath,
    critical_path,
)
from repro.prof.critical import write_report as write_critpath_report  # noqa: F401
from repro.prof.flame import (  # noqa: F401
    collapsed_stacks,
    critical_stacks,
    write_flamegraph,
)


class _NullSpan:
    """Shared inert span handed out by the null profiler."""

    __slots__ = ()
    attrs: Dict[str, Any] = {}
    category = name = ""
    rank = -1
    t_start = 0.0
    t_end = 0.0
    duration = 0.0


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullProfiler:
    """No-op stand-in carried by unprofiled clusters.

    Every recording method does nothing; ``enabled`` is False so rare
    heavyweight call sites can skip argument preparation entirely.
    """

    enabled = False
    tracer = None
    metrics = None
    transfers: List[Any] = []

    def span(self, category: str, name: str, rank: int,
             lane: str = "main", **attrs: Any) -> _NullContext:
        return _NULL_CONTEXT

    def instant(self, category: str, name: str, rank: int, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1,
              labels: Optional[Dict[str, Any]] = None) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Dict[str, Any]] = None) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {}


#: the singleton every cluster starts with
NULL_PROFILER = NullProfiler()


class Profiler:
    """Tracer + metrics + transfer stream for one cluster run."""

    enabled = True

    def __init__(self, cluster, registry: Optional[MetricsRegistry] = None,
                 label: Optional[str] = None):
        self.cluster = cluster
        self.tracer = Tracer(cluster.engine)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.transfers: List[Any] = []
        self.label = label

    @classmethod
    def attach(cls, cluster, registry: Optional[MetricsRegistry] = None,
               label: Optional[str] = None) -> "Profiler":
        """Instrument ``cluster`` (call before ``cluster.run``).

        Registers as an ordinary observer (wire transfers, collective
        entries) and installs itself as ``cluster.profiler`` so the
        instrumented layers emit spans/metrics into it.
        """
        prof = cls(cluster, registry=registry, label=label)
        cluster.profiler = prof
        cluster.add_observer(prof)
        return prof

    # -- observer callbacks (cluster events) ---------------------------------

    def on_transfer(self, ev) -> None:
        self.transfers.append(ev)
        m = self.metrics
        m.counter("repro_transfer_messages_total").inc()
        m.counter("repro_transfer_bytes_total").inc(ev.nbytes)
        m.counter("repro_wire_seconds_total").inc(ev.t_end - ev.t_start)

    def on_collective(self, grank, ctx, seq, op, detail) -> None:
        self.metrics.counter("repro_collectives_total").inc(labels={"op": op})
        self.tracer.instant("marker", f"enter:{op}", grank, seq=seq)

    # -- recording facade ----------------------------------------------------

    def span(self, category: str, name: str, rank: int,
             lane: str = "main", **attrs: Any):
        return self.tracer.span(category, name, rank, lane=lane, **attrs)

    def instant(self, category: str, name: str, rank: int, **attrs: Any):
        return self.tracer.instant(category, name, rank, **attrs)

    def count(self, name: str, value: float = 1,
              labels: Optional[Dict[str, Any]] = None) -> None:
        self.metrics.counter(name).inc(value, labels=labels)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Dict[str, Any]] = None) -> None:
        self.metrics.gauge(name).set(value, labels=labels)

    # -- views ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot, refreshed with the engine gauges."""
        engine = self.cluster.engine
        self.set_gauge("repro_engine_events", getattr(engine, "events_fired", 0))
        self.set_gauge("repro_engine_processes",
                       getattr(engine, "processes_spawned", 0))
        return self.metrics.snapshot()

    def breakdown(self, category: str = "collective") -> List[Dict[str, Any]]:
        """Per-(collective, rank) pack/compute/wire/wait attribution rows."""
        return _export.breakdown(self, category=category)

    def render_breakdown(self, category: str = "collective") -> str:
        return _export.render_breakdown(self.breakdown(category))


__all__ = [
    "CATALOGUE",
    "Counter",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "SPAN_CATEGORIES",
    "Span",
    "Tracer",
    "aggregate_breakdown",
    "breakdown",
    "chrome_trace",
    "collapsed_stacks",
    "critical_path",
    "critical_stacks",
    "render_breakdown",
    "snapshot_delta",
    "validate_breakdown",
    "write_chrome_trace",
    "write_critpath_report",
    "write_flamegraph",
]
