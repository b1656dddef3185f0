"""Process-wide profiling session (``prof.session``).

``repro.bench`` constructs clusters many layers below its figure loops, so
per-cluster ``Profiler.attach`` calls cannot reach them.  A *session* flips
one process-global switch: while enabled, every :class:`repro.mpi.Cluster`
constructed anywhere auto-attaches a :class:`repro.prof.Profiler` that
shares one session-wide :class:`MetricsRegistry`, and
:meth:`repro.bench.harness.FigureData.add_row` snapshots the metric delta
attributable to each figure row.

Typical use (what ``python -m repro.bench figures --profile`` does)::

    from repro.prof import session
    session.enable()
    try:
        ...build figures...
        report = session.report()          # metrics + breakdown + rows
        session.write_chrome_trace(path)
    finally:
        session.disable()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.prof import Profiler, export
from repro.prof.metrics import MetricsRegistry, snapshot_delta


class _Session:
    def __init__(self) -> None:
        self.enabled = False
        self.registry: Optional[MetricsRegistry] = None
        self.profilers: List[Profiler] = []
        #: figure name -> list of per-row metric snapshot deltas
        self.rows: Dict[str, List[Dict[str, Any]]] = {}
        self._last_snapshot: Dict[str, Any] = {}


_SESSION = _Session()


def enable() -> MetricsRegistry:
    """Start (or restart) a profiling session; returns its registry."""
    _SESSION.enabled = True
    _SESSION.registry = MetricsRegistry()
    _SESSION.profilers = []
    _SESSION.rows = {}
    _SESSION._last_snapshot = {}
    return _SESSION.registry


def disable() -> None:
    """Stop the session (already-attached profilers keep their data)."""
    _SESSION.enabled = False


def is_enabled() -> bool:
    return _SESSION.enabled


def registry() -> Optional[MetricsRegistry]:
    return _SESSION.registry


def profilers() -> List[Profiler]:
    return list(_SESSION.profilers)


def attach_if_enabled(cluster) -> Optional[Profiler]:
    """Called by ``Cluster.__init__``; no-op unless a session is active."""
    if not _SESSION.enabled:
        return None
    prof = Profiler.attach(
        cluster, registry=_SESSION.registry,
        label=f"cluster {len(_SESSION.profilers)} ({cluster.nranks} ranks)",
    )
    _SESSION.profilers.append(prof)
    return prof


def notify_row(figure: str, values: List[Any]) -> None:
    """Row hook from :meth:`FigureData.add_row`: snapshot the metric delta
    since the previous row so the JSON artifact can embed per-row costs."""
    if not _SESSION.enabled or _SESSION.registry is None:
        return
    snap = _SESSION.registry.snapshot()
    delta = snapshot_delta(snap, _SESSION._last_snapshot)
    _SESSION._last_snapshot = snap
    _SESSION.rows.setdefault(figure, []).append(delta)


#: span categories attributed in the session breakdown; p2p covers
#: benchmarks (fig12/fig13 transposes) that never enter a collective
BREAKDOWN_CATEGORIES = ("collective", "p2p", "petsc")


def breakdown_rows(categories=BREAKDOWN_CATEGORIES) -> List[Dict[str, Any]]:
    if isinstance(categories, str):
        categories = (categories,)
    rows: List[Dict[str, Any]] = []
    for prof in _SESSION.profilers:
        for cat in categories:
            rows.extend(prof.breakdown(cat))
    return rows


def report() -> Dict[str, Any]:
    """The session-level profile report embedded in bench JSON artifacts."""
    for prof in _SESSION.profilers:
        prof.snapshot()  # refresh engine gauges into the shared registry
    metrics = _SESSION.registry.snapshot() if _SESSION.registry else {}
    rows = breakdown_rows()
    return {
        "clusters": len(_SESSION.profilers),
        "metrics": metrics,
        "prometheus": (_SESSION.registry.render_prometheus()
                       if _SESSION.registry else ""),
        "row_metrics": _SESSION.rows,
        "breakdown": export.aggregate_breakdown(rows),
        "breakdown_rows": len(rows),
        "breakdown_valid": export.validate_breakdown(rows),
        "wait_report": export.wait_for_peers_report(rows),
    }


def write_chrome_trace(path: str) -> Dict[str, Any]:
    """One Chrome trace for every cluster profiled in the session."""
    return export.write_chrome_trace(path, _SESSION.profilers)


def write_critpath(path: str, **kwargs) -> Dict[str, Any]:
    """The ``repro-critpath/1`` document over every profiled cluster
    (one critical-path run entry per cluster; see prof.critical)."""
    from repro.prof import critical

    return critical.write_report(path, _SESSION.profilers, **kwargs)


def write_flamegraph(path: str) -> Dict[str, int]:
    """Collapsed-stack flamegraph over every profiled cluster."""
    from repro.prof import flame

    return flame.write_flamegraph(path, _SESSION.profilers)
