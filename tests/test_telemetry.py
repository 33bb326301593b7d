"""Telemetry unit tests: spans, metrics, and the export surfaces.

The tracing tests enable/disable the tracer around each test so the
global buffer never leaks between tests; the metrics tests use either
fresh :class:`MetricsRegistry` instances or uniquely named series in the
global registry.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.generators.rewiring.counting import count_dk_rewirings
from repro.graph.simple_graph import SimpleGraph
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    chrome_trace,
    counter_inc,
    counter_value,
    disable_tracing,
    enable_tracing,
    event_count,
    maybe_enable_from_env,
    render_prometheus,
    span,
    take_events,
    tracing_enabled,
    write_chrome_trace,
)
from repro.telemetry.core import _NOOP_SPAN


@pytest.fixture
def tracing():
    """Tracing on for the test, off (and drained) afterwards."""
    enable_tracing()
    take_events()
    yield
    disable_tracing()


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
def test_span_records_chrome_event_with_attributes(tracing):
    with span("outer", topology="hot", d=2) as sp:
        sp.set(cache="hit")
    events = take_events()
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "outer"
    assert event["ph"] == "X"
    assert event["cat"] == "repro"
    assert event["args"] == {"topology": "hot", "d": 2, "cache": "hit", "depth": 0}
    assert event["ts"] > 0 and event["dur"] >= 0
    assert isinstance(event["pid"], int) and isinstance(event["tid"], int)


def test_span_nesting_depth(tracing):
    with span("outer"):
        with span("middle"):
            with span("inner"):
                pass
    by_name = {event["name"]: event for event in take_events()}
    assert by_name["outer"]["args"]["depth"] == 0
    assert by_name["middle"]["args"]["depth"] == 1
    assert by_name["inner"]["args"]["depth"] == 2
    # inner spans close first and nest inside the outer span's time range
    outer, inner = by_name["outer"], by_name["inner"]
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1


def test_span_name_keyword_lands_in_attributes(tracing):
    # `name` is positional-only, so a name= keyword becomes an attribute
    with span("experiment.run", name="grid-1"):
        pass
    (event,) = take_events()
    assert event["name"] == "experiment.run"
    assert event["args"]["name"] == "grid-1"


def test_span_records_error_attribute(tracing):
    with pytest.raises(ValueError):
        with span("boom"):
            raise ValueError("nope")
    (event,) = take_events()
    assert event["args"]["error"] == "ValueError"


def test_chrome_trace_document_schema(tracing, tmp_path):
    with span("a"):
        with span("b"):
            pass
    assert event_count() == 2
    path = tmp_path / "trace.json"
    written = write_chrome_trace(str(path))
    assert written == 2
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert {event["ph"] for event in doc["traceEvents"]} == {"X"}
    assert event_count() == 0  # writing drains the buffer


def test_chrome_trace_wraps_explicit_events():
    doc = chrome_trace([{"name": "x", "ph": "X"}])
    assert doc == {"traceEvents": [{"name": "x", "ph": "X"}], "displayTimeUnit": "ms"}


def test_rewiring_counter_records_kernel_span(tracing):
    """Table-5 counting runs under ``kernel.count_rewirings`` with its size,
    the number of end pairs it enumerated and the valid-move count."""
    path = SimpleGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
    assert count_dk_rewirings(path, 1).total == 1
    assert count_dk_rewirings(path, 2).total == 1
    events = [e for e in take_events() if e["name"] == "kernel.count_rewirings"]
    # d = 1 pairs all 2m = 6 ends; d = 2 pairs only inside the head-degree
    # buckets (four ends with a degree-2 head, two with a degree-1 head)
    assert [e["args"] for e in events] == [
        {"d": 1, "n": 4, "m": 3, "end_pairs": 15, "valid": 1, "depth": 0},
        {"d": 2, "n": 4, "m": 3, "end_pairs": 7, "valid": 1, "depth": 0},
    ]


# --------------------------------------------------------------------------- #
# disabled mode
# --------------------------------------------------------------------------- #
def test_disabled_span_is_shared_noop():
    disable_tracing()
    assert not tracing_enabled()
    sp = span("anything", big=list(range(100)))
    assert sp is _NOOP_SPAN
    assert span("other") is sp  # one shared instance, nothing allocated
    with sp as inner:
        inner.set(cache="hit")  # attribute writes are swallowed
    assert take_events() == []
    assert event_count() == 0


def test_disabled_span_overhead_is_bounded():
    disable_tracing()
    rounds = 20_000
    start = time.perf_counter()
    for _ in range(rounds):
        with span("hot.path", n=10, m=20):
            pass
    per_call = (time.perf_counter() - start) / rounds
    # one global check + a shared no-op context manager: generously under 20µs
    # even on a loaded CI machine (typically well under 1µs)
    assert per_call < 20e-6


def test_maybe_enable_from_env():
    disable_tracing()
    assert maybe_enable_from_env({"REPRO_TRACE": ""}) is None
    assert not tracing_enabled()
    assert maybe_enable_from_env({"REPRO_TRACE": "0"}) is None
    assert not tracing_enabled()
    try:
        assert maybe_enable_from_env({"REPRO_TRACE": "1"}) is None
        assert tracing_enabled()
        disable_tracing()
        # a non-boolean value doubles as the trace-file destination
        assert maybe_enable_from_env({"REPRO_TRACE": "/tmp/out.json"}) == "/tmp/out.json"
        assert tracing_enabled()
    finally:
        disable_tracing()


# --------------------------------------------------------------------------- #
# histograms
# --------------------------------------------------------------------------- #
def test_histogram_percentiles_and_mean():
    hist = Histogram()
    for value in range(1, 101):
        hist.observe(float(value))
    assert hist.count == 100
    assert hist.mean == pytest.approx(50.5)
    assert hist.percentile(0) == 1.0
    assert hist.percentile(50) == pytest.approx(50.0, abs=1.0)
    assert hist.percentile(100) == 100.0
    assert Histogram().percentile(95) == 0.0  # empty histogram


def test_histogram_window_is_bounded_but_count_is_lifetime():
    hist = Histogram(maxlen=8)
    for value in range(100):
        hist.observe(float(value))
    assert hist.count == 100
    assert len(hist.to_dict()["samples"]) == 8
    assert hist.percentile(0) >= 92.0  # only the most recent samples remain


def test_histogram_merge_from_snapshot_dict():
    a, b = Histogram(), Histogram()
    for value in (1.0, 2.0):
        a.observe(value)
    for value in (10.0, 20.0):
        b.observe(value)
    a.merge(b.to_dict())
    assert a.count == 4
    assert a.total == pytest.approx(33.0)
    a.merge(b)  # merging a live Histogram works too
    assert a.count == 6


# --------------------------------------------------------------------------- #
# registry: counters, aggregation, snapshot/merge
# --------------------------------------------------------------------------- #
def test_counter_labels_and_unlabelled_sum():
    registry = MetricsRegistry()
    registry.counter_inc("reads_total", category="graphs", outcome="hit")
    registry.counter_inc("reads_total", 2, category="graphs", outcome="miss")
    registry.counter_inc("reads_total", category="cells", outcome="hit")
    assert registry.counter_value("reads_total", category="graphs", outcome="hit") == 1
    assert registry.counter_value("reads_total", category="graphs", outcome="miss") == 2
    assert registry.counter_value("reads_total") == 4  # sum over every series
    assert registry.counter_value("reads_total", category="nope") == 0


def test_snapshot_merge_is_additive_across_registries():
    # the pool-worker protocol: workers snapshot(reset=True) and the parent
    # merges the shipped dicts — values add up, gauges take the last write
    parent, worker1, worker2 = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    for worker in (worker1, worker2):
        worker.counter_inc("cells_total", outcome="computed")
        worker.counter_inc("moves_total", 10, chain="2k")
        worker.observe("latency_seconds", 0.5, route="/x")
        worker.gauge_set("inflight", 3)
    parent.counter_inc("cells_total", outcome="computed")

    for worker in (worker1, worker2):
        snap = worker.snapshot(reset=True)
        parent.merge(snap)
        assert worker.counter_value("cells_total") == 0  # reset drained it

    assert parent.counter_value("cells_total", outcome="computed") == 3
    assert parent.counter_value("moves_total", chain="2k") == 20
    text = parent.render_prometheus()
    assert 'latency_seconds_count{route="/x"} 2' in text

    # snapshots survive a JSON round-trip (what pickling to workers implies)
    parent.merge(json.loads(json.dumps(parent.snapshot())))
    assert parent.counter_value("moves_total", chain="2k") == 40


def test_global_registry_helpers():
    counter_inc("test_only_global_series_total", 5, kind="unit")
    assert counter_value("test_only_global_series_total", kind="unit") >= 5
    assert "test_only_global_series_total" in render_prometheus()


# --------------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------------- #
def _parse_exposition(text: str) -> tuple[dict[str, str], dict[str, float]]:
    """Parse exposition text into ({family: type}, {series-line: value})."""
    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
        else:
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    return types, samples


def test_render_prometheus_format():
    registry = MetricsRegistry()
    registry.counter_inc("repro_reads_total", 3, category="graphs", outcome="hit")
    registry.gauge_set("repro_inflight", 2)
    for value in (0.1, 0.2, 0.3):
        registry.observe("repro_latency_seconds", value, route="/v1/x")
    types, samples = _parse_exposition(registry.render_prometheus())

    assert types == {
        "repro_reads_total": "counter",
        "repro_inflight": "gauge",
        "repro_latency_seconds": "summary",
    }
    assert samples['repro_reads_total{category="graphs",outcome="hit"}'] == 3
    assert samples["repro_inflight"] == 2
    assert samples['repro_latency_seconds_count{route="/v1/x"}'] == 3
    assert samples['repro_latency_seconds_sum{route="/v1/x"}'] == pytest.approx(0.6)
    assert 'repro_latency_seconds{route="/v1/x",quantile="0.5"}' in samples


def test_render_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter_inc("repro_odd_total", label='he said "hi"\nback\\slash')
    text = registry.render_prometheus()
    assert '\\"hi\\"' in text
    assert "\\n" in text
    assert "\\\\slash" in text
