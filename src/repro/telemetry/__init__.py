"""Unified telemetry: tracing spans, metrics, and export surfaces.

Two pillars, both stdlib-only:

- :mod:`repro.telemetry.core` — hierarchical tracing spans with Chrome
  trace-event JSON export.  Off by default; one truthiness check per
  ``span()`` call when disabled.  Enable with :func:`enable_tracing`,
  ``REPRO_TRACE=1``, or ``repro trace <subcommand> ...``.
- :mod:`repro.telemetry.metrics` — always-on process-global counters /
  gauges / histograms with Prometheus text exposition
  (``GET /v1/metrics`` on the topology service) and additive cross-process
  merging for pool workers.

See the README "Telemetry & tracing" section and
``examples/telemetry_quickstart.py``.
"""

from repro.telemetry.core import (
    TRACE_ENV_VAR,
    Span,
    add_events,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    event_count,
    maybe_enable_from_env,
    span,
    take_events,
    tracing_enabled,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    counter_inc,
    counter_value,
    gauge_set,
    gauge_value,
    merge_metrics,
    metrics_snapshot,
    observe,
    render_prometheus,
    reset_metrics,
    sample_peak_rss,
)

__all__ = [
    # tracing
    "TRACE_ENV_VAR",
    "Span",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "take_events",
    "add_events",
    "event_count",
    "chrome_trace",
    "write_chrome_trace",
    "maybe_enable_from_env",
    # metrics
    "Histogram",
    "MetricsRegistry",
    "counter_inc",
    "counter_value",
    "gauge_set",
    "gauge_value",
    "observe",
    "metrics_snapshot",
    "merge_metrics",
    "render_prometheus",
    "reset_metrics",
    "sample_peak_rss",
]
