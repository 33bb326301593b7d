"""Process-global metrics: counters, gauges, and histograms.

A tiny, dependency-free metrics registry in the spirit of the Prometheus
client library, shared by every layer of the stack (store, memo, planner,
rewiring chains).  Unlike tracing spans (:mod:`repro.telemetry.core`),
metrics are *always on*: a counter bump is a dict lookup plus an integer add
under a lock, cheap enough to leave enabled in production paths, and the
service's ``GET /v1/metrics`` endpoint reads them without any opt-in.  Each
topology service keeps its own request families in a
:class:`MetricsRegistry` of its own, rendered after this one.

Metrics are keyed by ``(name, labels)`` where ``labels`` is a sorted tuple of
``(key, value)`` string pairs, e.g.::

    counter_inc("repro_store_reads_total", category="biggraphs", outcome="hit")
    registry.observe("repro_request_latency_seconds", 0.0123, route="POST /v1/graphs")

Snapshots (:func:`metrics_snapshot`) are plain JSON-able dicts so worker
processes can ship their deltas back to the parent over pickle, where
:func:`merge_metrics` folds them in additively.  :func:`render_prometheus`
emits the text exposition format (counters and gauges verbatim; histograms
as ``summary`` families with quantile labels).
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Iterable

__all__ = [
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

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """A bounded-memory observation sink with nearest-rank percentiles.

    Keeps the most recent ``maxlen`` samples for quantile estimates while
    ``count``/``total`` accumulate over the full lifetime, which is what the
    Prometheus ``summary`` type expects (``_count``/``_sum`` monotone, the
    quantiles a recent-window estimate).
    """

    __slots__ = ("maxlen", "count", "total", "_samples", "_next")

    def __init__(self, maxlen: int = 4096):
        self.maxlen = int(maxlen)
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []
        self._next = 0  # ring-buffer write cursor once _samples is full

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if len(self._samples) < self.maxlen:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self.maxlen

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` in [0, 100] over the retained window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram | dict[str, Any]") -> None:
        """Fold another histogram (or its snapshot dict) into this one."""
        if isinstance(other, Histogram):
            count, total, samples = other.count, other.total, list(other._samples)
        else:
            count, total = int(other["count"]), float(other["total"])
            samples = [float(s) for s in other.get("samples", ())]
        self.count += count
        self.total += total
        for value in samples:
            if len(self._samples) < self.maxlen:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self.maxlen

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "total": self.total, "samples": list(self._samples)}

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self._samples.clear()
        self._next = 0


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms."""

    #: quantiles rendered for each histogram in the Prometheus exposition
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], float] = {}
        self._gauges: dict[tuple[str, LabelKey], float] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------ #
    # write paths
    # ------------------------------------------------------------------ #
    def counter_inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------ #
    # read paths
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: Any) -> float:
        """Value of one labelled series, or the sum over all series of ``name``
        when no labels are given."""
        with self._lock:
            if labels:
                return self._counters.get((name, _label_key(labels)), 0)
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Last value set on one labelled gauge series (``default`` if never set)."""
        with self._lock:
            return self._gauges.get((name, _label_key(labels)), default)

    def snapshot(self, *, reset: bool = False) -> dict[str, Any]:
        """JSON-able dump of every series (pickled across process boundaries)."""
        with self._lock:
            snap = {
                "counters": [
                    [name, list(labels), value]
                    for (name, labels), value in self._counters.items()
                ],
                "gauges": [
                    [name, list(labels), value]
                    for (name, labels), value in self._gauges.items()
                ],
                "histograms": [
                    [name, list(labels), hist.to_dict()]
                    for (name, labels), hist in self._histograms.items()
                ],
            }
            if reset:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
            return snap

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Additively fold a :meth:`snapshot` from another process/registry."""
        with self._lock:
            for name, labels, value in snapshot.get("counters", ()):
                key = (name, tuple((str(k), str(v)) for k, v in labels))
                self._counters[key] = self._counters.get(key, 0) + value
            for name, labels, value in snapshot.get("gauges", ()):
                key = (name, tuple((str(k), str(v)) for k, v in labels))
                self._gauges[key] = value
            for name, labels, hist_dict in snapshot.get("histograms", ()):
                key = (name, tuple((str(k), str(v)) for k, v in labels))
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = Histogram()
                hist.merge(hist_dict)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    @staticmethod
    def _escape(value: str) -> str:
        return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

    @classmethod
    def _format_labels(cls, labels: Iterable[tuple[str, str]]) -> str:
        pairs = [f'{k}="{cls._escape(v)}"' for k, v in labels]
        return "{" + ",".join(pairs) + "}" if pairs else ""

    @staticmethod
    def _format_value(value: float) -> str:
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return repr(value) if isinstance(value, float) else str(value)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            hists = sorted(self._histograms.items(), key=lambda kv: kv[0])
        lines: list[str] = []
        seen_type: set[str] = set()

        def emit_type(name: str, kind: str) -> None:
            if name not in seen_type:
                seen_type.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), value in counters:
            emit_type(name, "counter")
            lines.append(f"{name}{self._format_labels(labels)} {self._format_value(value)}")
        for (name, labels), value in gauges:
            emit_type(name, "gauge")
            lines.append(f"{name}{self._format_labels(labels)} {self._format_value(value)}")
        for (name, labels), hist in hists:
            emit_type(name, "summary")
            for q in self.QUANTILES:
                q_labels = list(labels) + [("quantile", f"{q:g}")]
                lines.append(
                    f"{name}{self._format_labels(q_labels)} "
                    f"{self._format_value(hist.percentile(q * 100))}"
                )
            label_str = self._format_labels(labels)
            lines.append(f"{name}_sum{label_str} {self._format_value(hist.total)}")
            lines.append(f"{name}_count{label_str} {self._format_value(float(hist.count))}")
        return "\n".join(lines) + "\n"


#: the process-global registry every instrumented layer writes to
_REGISTRY = MetricsRegistry()


def counter_inc(name: str, amount: float = 1, **labels: Any) -> None:
    _REGISTRY.counter_inc(name, amount, **labels)


def counter_value(name: str, **labels: Any) -> float:
    return _REGISTRY.counter_value(name, **labels)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.gauge_set(name, value, **labels)


def gauge_value(name: str, default: float = 0.0, **labels: Any) -> float:
    return _REGISTRY.gauge_value(name, default, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    _REGISTRY.observe(name, value, **labels)


def metrics_snapshot(*, reset: bool = False) -> dict[str, Any]:
    return _REGISTRY.snapshot(reset=reset)


def merge_metrics(snapshot: dict[str, Any]) -> None:
    _REGISTRY.merge(snapshot)


def render_prometheus() -> str:
    return _REGISTRY.render_prometheus()


def reset_metrics() -> None:
    _REGISTRY.reset()


def sample_peak_rss() -> int:
    """Sample the process's lifetime peak RSS into ``repro_peak_rss_bytes``.

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` (kilobytes on Linux, bytes on
    macOS), sets the ``repro_peak_rss_bytes`` gauge, and returns the value in
    bytes — the memory observability hook of the million-node tier, sampled
    around experiment cells and exposed via ``GET /v1/metrics``.  Returns 0
    (and leaves the gauge untouched) on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bytes_peak = int(peak) if sys.platform == "darwin" else int(peak) * 1024
    gauge_set("repro_peak_rss_bytes", float(bytes_peak))
    return bytes_peak
