"""Metrics registry (``prof.metrics``): counters, gauges, histograms.

A :class:`MetricsRegistry` is a process-wide, name-keyed store of metric
instruments in the style of a Prometheus client:

- :class:`Counter` -- monotone accumulators (``.inc(v)``), optionally
  sliced by a small label set (e.g. ``{"op": "allgatherv"}``),
- :class:`Gauge` -- last-write-wins values (``.set(v)``),
- :class:`Histogram` -- bucketed distributions (``.observe(v)``) with
  ``count``/``sum`` like Prometheus histograms.

``registry.snapshot()`` returns a plain-dict view (JSON-safe) and
``registry.render_prometheus()`` emits the Prometheus text exposition
format, so a simulated run can be scraped/diffed exactly like a real
mpiP/Score-P deployment.

Every metric name the instrumented stack emits is declared in
:data:`CATALOGUE`, and the registry refuses unknown names.
``python -m repro.prof check-catalogue`` verifies that the catalogue and
``docs/OBSERVABILITY.md`` never drift apart (run by CI).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: name -> (kind, help text).  The single source of truth for metric names.
CATALOGUE: Dict[str, Tuple[str, str]] = {
    # point-to-point / datatype processing
    "repro_send_messages_total": ("counter", "Typed point-to-point sends posted"),
    "repro_send_bytes_total": ("counter", "Payload bytes of typed sends"),
    "repro_pack_bytes_total": ("counter", "Bytes packed from noncontiguous send buffers"),
    "repro_unpack_bytes_total": ("counter", "Bytes unpacked into noncontiguous receive buffers"),
    "repro_pack_stages_total": ("counter", "Pipeline stages planned by the pack engine"),
    "repro_lookahead_dense_total": ("counter", "Look-ahead classifications that chose the dense (writev) path"),
    "repro_lookahead_sparse_total": ("counter", "Look-ahead classifications that chose the sparse (pack) path"),
    "repro_research_total": ("counter", "Datatype context re-searches (single-context engine only)"),
    "repro_research_depth_blocks": ("histogram", "Blocks walked per context re-search"),
    # datatype compiler (repro.datatypes.ir)
    "repro_datatype_ir_cache_hits_total": ("counter", "Datatype IR plan-cache hits"),
    "repro_datatype_ir_cache_misses_total": ("counter", "Datatype IR plan-cache misses (each one compiles a plan)"),
    "repro_datatype_ir_compile_seconds": ("histogram", "Wall-clock seconds per datatype IR compilation (canonicalisation + bounds)"),
    "repro_datatype_ir_coalesced_ratio": ("histogram", "Merged blocks per raw run after IR coalescing (1.0 = nothing merged)"),
    "repro_datatype_pack_exec_seconds": ("histogram", "Wall-clock seconds executing one lowered pack/unpack copy program"),
    "repro_datatype_pack_ops_total": ("counter", "Copy-program ops executed by pack/unpack"),
    "repro_rendezvous_stall_seconds": ("histogram", "Sender stall waiting for the matching receive (rendezvous)"),
    "repro_request_wait_seconds": ("histogram", "Blocking time per Request.wait call"),
    # collectives
    "repro_collectives_total": ("counter", "Collective operations entered (label: op)"),
    "repro_zero_byte_sends_total": ("counter", "Zero-byte synchronisation messages actually sent"),
    "repro_zero_byte_elided_total": ("counter", "Zero-byte messages elided by the binned Alltoallw zero bin"),
    "repro_alltoallw_zero_bin_size": ("histogram", "Peers per rank landing in the Alltoallw zero bin"),
    "repro_alltoallw_small_bin_size": ("histogram", "Peers per rank landing in the Alltoallw small bin"),
    "repro_alltoallw_large_bin_size": ("histogram", "Peers per rank landing in the Alltoallw large bin"),
    "repro_outlier_checks_total": ("counter", "Adaptive-Allgatherv outlier-detection passes"),
    "repro_outlier_detected_total": ("counter", "Outlier-detection passes that abandoned the ring"),
    "repro_kselect_calls_total": ("counter", "Floyd-Rivest k_select invocations"),
    "repro_kselect_pivot_passes_total": ("counter", "Floyd-Rivest partition passes across all k_select calls"),
    # algorithm selection
    "repro_algorithm_selections_total": ("counter", "Selection-policy decisions (labels: collective, algorithm, policy)"),
    # wire
    "repro_transfer_messages_total": ("counter", "Messages (wire chunks) moved by the network model"),
    "repro_transfer_bytes_total": ("counter", "Bytes moved by the network model"),
    "repro_wire_seconds_total": ("counter", "Accumulated wire occupancy seconds"),
    # sparse dynamic data exchange (NBX)
    "repro_nbx_consensus_rounds": ("histogram", "Event-loop wakeups per rank per NBX sparse exchange"),
    # PETSc / solvers
    "repro_vecscatter_ops_total": ("counter", "VecScatter applications (label: backend)"),
    "repro_vecscatter_bytes_total": ("counter", "Off-rank bytes moved per VecScatter application"),
    "repro_plan_cache_hits_total": ("counter", "Assembly communication-plan reuses (subset_off_proc_entries)"),
    "repro_plan_cache_misses_total": ("counter", "Assemblies that discovered a pattern with plan caching enabled"),
    "repro_plan_cache_invalidations_total": ("counter", "Cached assembly plans dropped (label: reason)"),
    "repro_ksp_iterations_total": ("counter", "KSP solver iterations (label: method)"),
    # engine
    "repro_engine_events": ("gauge", "Discrete events fired by the simulation engine"),
    "repro_engine_processes": ("gauge", "Processes spawned on the simulation engine"),
    # fault injection / reliable transport (repro.faults, mpi.comm)
    "repro_faults_injected_total": ("counter", "Faults fired by the injector (label: kind)"),
    "repro_retransmits_total": ("counter", "Reliable-transport retransmission attempts"),
    "repro_checksum_failures_total": ("counter", "Reliable-transport attempts that arrived corrupted"),
    "repro_rank_failures_total": ("counter", "Ranks declared failed (crashes and detected hangs)"),
}

#: default histogram buckets: log-spaced, covers ns stalls to whole seconds
#: as well as small integer set sizes
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-9, 3)) + (math.inf,)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, Any]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote and newline must be ``\\\\``, ``\\"``, ``\\n``."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(key: _LabelKey, extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = list(key) + list(extra or [])
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class Metric:
    """Base class: a named instrument with per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def snapshot(self) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def render(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _header(self) -> List[str]:
        out = []
        if self.help:
            out.append(f"# HELP {self.name} {self.help}")
        out.append(f"# TYPE {self.name} {self.kind}")
        return out


class Counter(Metric):
    """Monotone accumulator, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._series: Dict[_LabelKey, float] = {}

    def inc(self, value: float = 1, labels: Optional[Mapping[str, Any]] = None) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {value})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + value

    def value(self, labels: Optional[Mapping[str, Any]] = None) -> float:
        return self._series.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        return sum(self._series.values())

    def snapshot(self) -> Any:
        if set(self._series) == {()}:
            return self._series[()]
        return {_render_labels(k) or "total": v for k, v in sorted(self._series.items())}

    def render(self) -> List[str]:
        out = self._header()
        for key, v in sorted(self._series.items()):
            out.append(f"{self.name}{_render_labels(key)} {_num(v)}")
        if not self._series:
            out.append(f"{self.name} 0")
        return out


class Gauge(Metric):
    """Last-write-wins value."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._series: Dict[_LabelKey, float] = {}

    def set(self, value: float, labels: Optional[Mapping[str, Any]] = None) -> None:
        self._series[_label_key(labels)] = value

    def value(self, labels: Optional[Mapping[str, Any]] = None) -> float:
        return self._series.get(_label_key(labels), 0)

    def snapshot(self) -> Any:
        if set(self._series) == {()}:
            return self._series[()]
        return {_render_labels(k) or "total": v for k, v in sorted(self._series.items())}

    def render(self) -> List[str]:
        out = self._header()
        for key, v in sorted(self._series.items()):
            out.append(f"{self.name}{_render_labels(key)} {_num(v)}")
        if not self._series:
            out.append(f"{self.name} 0")
        return out


class Histogram(Metric):
    """Prometheus-style cumulative-bucket histogram."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = sorted(set(float(b) for b in buckets))
        if not bounds or bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.bounds = bounds
        self._counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self._counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Any:
        return {"count": self.count, "sum": self.sum, "mean": self.mean}

    def render(self) -> List[str]:
        out = self._header()
        cumulative = 0
        for bound, c in zip(self.bounds, self._counts):
            cumulative += c
            le = "+Inf" if bound == math.inf else _num(bound)
            out.append(f'{self.name}_bucket{{le="{le}"}} {cumulative}')
        out.append(f"{self.name}_sum {_num(self.sum)}")
        out.append(f"{self.name}_count {self.count}")
        return out


def _num(v: float) -> str:
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


class MetricsRegistry:
    """Get-or-create store of named metrics.

    Names are restricted to :data:`CATALOGUE`, so an instrumentation typo
    fails fast instead of silently forking a new time series -- the same
    guarantee the CI drift check enforces for the documentation.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls, help: Optional[str], **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        entry = CATALOGUE.get(name)
        if entry is None:
            raise KeyError(
                f"metric {name!r} is not in the documented catalogue "
                "(repro.prof.metrics.CATALOGUE)"
            )
        kind, default_help = entry
        if kind != cls.kind:
            raise TypeError(
                f"metric {name!r} is catalogued as a {kind}, "
                f"not a {cls.kind}"
            )
        metric = cls(name, help or default_help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: Optional[str] = None) -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: Optional[str] = None) -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: Optional[str] = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, help, buckets=buckets)

    # -- views ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe ``{name: value}`` view of every registered metric."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for _name, metric in sorted(self._metrics.items()):
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")


def snapshot_delta(now: Mapping[str, Any], before: Mapping[str, Any]) -> Dict[str, Any]:
    """Difference of two :meth:`MetricsRegistry.snapshot` dicts.

    Numeric entries are subtracted; histogram dicts are diffed field-wise;
    labelled-counter dicts are diffed key-wise.  Entries absent from
    ``before`` count from zero.
    """
    out: Dict[str, Any] = {}
    for name, cur in now.items():
        prev = before.get(name)
        if isinstance(cur, dict):
            prev = prev if isinstance(prev, dict) else {}
            d = {k: v - prev.get(k, 0) for k, v in cur.items()
                 if isinstance(v, (int, float))}
            if "count" in d and "count" in cur and cur["count"]:
                d["mean"] = (d["sum"] / d["count"]) if d.get("count") else 0.0
            if any(v for v in d.values()):
                out[name] = d
        else:
            prev = prev if isinstance(prev, (int, float)) else 0
            if cur - prev:
                out[name] = cur - prev
    return out
