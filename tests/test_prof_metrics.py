"""Unit tests for the metrics registry (``repro.prof.metrics``)."""

import math
from pathlib import Path

import pytest

from repro.prof.__main__ import main as check_catalogue
from repro.prof.metrics import (
    CATALOGUE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    snapshot_delta,
)


def test_counter_inc_and_total():
    c = Counter("repro_send_messages_total")
    c.inc()
    c.inc(4)
    assert c.value() == 5
    assert c.total == 5


def test_counter_labels_slice_series():
    c = Counter("repro_collectives_total")
    c.inc(labels={"op": "allgatherv"})
    c.inc(2, labels={"op": "barrier"})
    assert c.value(labels={"op": "allgatherv"}) == 1
    assert c.value(labels={"op": "barrier"}) == 2
    assert c.value(labels={"op": "bcast"}) == 0
    assert c.total == 3
    snap = c.snapshot()
    assert snap == {'{op="allgatherv"}': 1, '{op="barrier"}': 2}


def test_counter_rejects_decrease():
    c = Counter("repro_send_messages_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_write_wins():
    g = Gauge("repro_engine_events")
    g.set(10)
    g.set(3)
    assert g.value() == 3
    assert g.snapshot() == 3


def test_histogram_count_sum_mean_buckets():
    h = Histogram("repro_request_wait_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(55.55)
    assert h.mean == pytest.approx(55.55 / 4)
    assert h.bounds[-1] == math.inf
    text = "\n".join(h.render())
    # cumulative buckets, Prometheus style
    assert 'le="0.1"} 1' in text
    assert 'le="1"} 2' in text
    assert 'le="10"} 3' in text
    assert 'le="+Inf"} 4' in text
    assert "repro_request_wait_seconds_count 4" in text


def test_registry_strict_rejects_unknown_names():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.counter("repro_totally_made_up_total")


def test_registry_strict_rejects_kind_mismatch():
    reg = MetricsRegistry()
    # catalogued as a counter, asked for as a gauge
    with pytest.raises(TypeError):
        reg.gauge("repro_send_messages_total")


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("repro_send_messages_total")
    b = reg.counter("repro_send_messages_total")
    assert a is b
    with pytest.raises(TypeError):
        reg.histogram("repro_send_messages_total")


def test_registry_nonstrict_allows_adhoc_names():
    reg = MetricsRegistry(strict=False)
    reg.counter("my_experiment_total").inc()
    assert reg.counter("my_experiment_total").value() == 1


def test_registry_strict_uses_catalogue_help():
    reg = MetricsRegistry()
    c = reg.counter("repro_send_messages_total")
    assert c.help == CATALOGUE["repro_send_messages_total"][1]


def test_snapshot_and_names():
    reg = MetricsRegistry()
    reg.counter("repro_send_messages_total").inc(3)
    reg.histogram("repro_request_wait_seconds").observe(0.5)
    assert "repro_send_messages_total" in reg
    assert "repro_pack_bytes_total" not in reg
    snap = reg.snapshot()
    assert snap["repro_send_messages_total"] == 3
    assert snap["repro_request_wait_seconds"]["count"] == 1
    assert reg.names() == sorted(snap)


def test_render_prometheus_exposition():
    reg = MetricsRegistry()
    reg.counter("repro_send_messages_total").inc(2)
    reg.gauge("repro_engine_events").set(7)
    text = reg.render_prometheus()
    assert "# TYPE repro_send_messages_total counter" in text
    assert "# HELP repro_send_messages_total" in text
    assert "repro_send_messages_total 2" in text
    assert "# TYPE repro_engine_events gauge" in text
    assert "repro_engine_events 7" in text
    assert text.endswith("\n")


def test_render_prometheus_escapes_label_values():
    # the text exposition format requires \ -> \\, " -> \", newline -> \n
    reg = MetricsRegistry(strict=False)
    reg.counter("repro_adhoc_total").inc(
        labels={"op": 'say "hi"', "path": "a\\b", "note": "two\nlines"})
    text = reg.render_prometheus()
    assert 'op="say \\"hi\\""' in text
    assert 'path="a\\\\b"' in text
    assert 'note="two\\nlines"' in text
    # every sample line stays a single physical line
    for line in text.splitlines():
        assert "\r" not in line
    from repro.prof.metrics import _escape_label_value

    assert _escape_label_value('\\"\n') == '\\\\\\"\\n'
    assert _escape_label_value("plain") == "plain"


def test_snapshot_delta_numeric_and_dict():
    before = {
        "repro_send_messages_total": 2,
        "repro_request_wait_seconds": {"count": 1, "sum": 1.0, "mean": 1.0},
    }
    now = {
        "repro_send_messages_total": 5,
        "repro_pack_bytes_total": 100,
        "repro_request_wait_seconds": {"count": 3, "sum": 7.0, "mean": 7 / 3},
    }
    d = snapshot_delta(now, before)
    assert d["repro_send_messages_total"] == 3
    assert d["repro_pack_bytes_total"] == 100      # absent-before counts from 0
    assert d["repro_request_wait_seconds"]["count"] == 2
    assert d["repro_request_wait_seconds"]["sum"] == pytest.approx(6.0)
    assert d["repro_request_wait_seconds"]["mean"] == pytest.approx(3.0)


def test_snapshot_delta_drops_unchanged():
    snap = {"repro_send_messages_total": 4,
            "repro_request_wait_seconds": {"count": 1, "sum": 1.0}}
    assert snapshot_delta(snap, snap) == {}


def test_catalogue_is_well_formed():
    assert len(CATALOGUE) >= 30
    kinds = {"counter", "gauge", "histogram"}
    for name, (kind, help_text) in CATALOGUE.items():
        assert name.startswith("repro_"), name
        assert kind in kinds, name
        assert help_text
        if kind == "counter":
            assert name.endswith(("_total", "_seconds_total")), name


def test_catalogue_matches_the_observability_docs(tmp_path, capsys):
    """``python -m repro.prof check-catalogue``: every catalogued metric is
    documented in docs/OBSERVABILITY.md and the page names no other."""
    docs = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    assert check_catalogue(["check-catalogue", "--docs", str(docs)]) == 0
    # the check trips on drift in either direction
    stale = tmp_path / "stale.md"
    stale.write_text(docs.read_text().replace(
        "`repro_send_messages_total`", "`repro_no_such_metric_total`"))
    assert check_catalogue(["check-catalogue", "--docs", str(stale)]) == 1
    out = capsys.readouterr().out
    assert "`repro_send_messages_total` is not documented" in out
    assert "`repro_no_such_metric_total` is not in the catalogue" in out
