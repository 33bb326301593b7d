"""The measurement planner: metric sets → shared-intermediate DAG → values.

A :class:`MeasurementPlan` declares *what* to measure (a set of registered
metric names plus the measurement options); :meth:`MeasurementPlan.run`
resolves the set into the union of shared intermediates it needs (see
:mod:`repro.measure.intermediates`), computes each intermediate exactly
once, and evaluates every metric as a thin formula over them.  In
particular, ONE unified BFS sweep feeds d̄, σ_d, d(x), the diameter and
betweenness, whichever subset of those is requested.

The result is a :class:`Measurement` — an ordered name → value mapping that
also supports attribute access (``result.mean_distance``) and JSON
round-tripping as one flat ``{name: encoded value}`` dict, the form of
experiment rows, cell manifests and the service's measure responses.

Quickstart::

    from repro.measure import MeasurementPlan

    plan = MeasurementPlan(("mean_distance", "distance_std", "betweenness_by_degree"))
    result = plan.run(graph)            # one BFS sweep, three metrics
    print(result.mean_distance, result["betweenness_by_degree"])

    table2 = MeasurementPlan.table2().run(graph)   # == summarize(graph)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.simple_graph import SimpleGraph
from repro.measure.intermediates import (
    SweepResult,
    shared_edge_moments,
    shared_second_order,
    shared_spectrum,
    shared_sweep,
    shared_target,
    shared_triangles,
)
from repro.measure.registry import available_metrics, get_metric_def
from repro.metrics.distances import scale_histogram
from repro.utils.rng import RngLike

#: The nine always-on scalar metrics of the paper's Table 2 (plus sizes),
#: in table order.
TABLE2_CORE_METRICS = (
    "nodes",
    "edges",
    "average_degree",
    "assortativity",
    "mean_clustering",
    "mean_distance",
    "distance_std",
    "likelihood",
    "second_order_likelihood",
)

#: The Laplacian extremes — the expensive, SciPy-backed tail of Table 2.
SPECTRUM_METRICS = ("lambda_1", "lambda_n_1")


class Measurement:
    """Ordered metric name → value mapping returned by a planner run."""

    def __init__(self, values: dict[str, object]):
        self._values = dict(values)

    @property
    def metrics(self) -> tuple[str, ...]:
        """The measured metric names, in request order."""
        return tuple(self._values)

    def as_dict(self) -> dict[str, object]:
        """Plain dictionary view (a copy)."""
        return dict(self._values)

    def get(self, name: str, default=None):
        """The value of ``name`` or ``default``."""
        return self._values.get(name, default)

    def __getitem__(self, name: str):
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getattr__(self, name: str):
        # _values itself is resolved normally
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(f"no measured metric {name!r}") from None

    def __eq__(self, other) -> bool:
        if isinstance(other, Measurement):
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in list(self._values.items())[:4])
        more = "" if len(self._values) <= 4 else ", ..."
        return f"Measurement({inner}{more})"

    # ------------------------------------------------------------------ #
    # JSON round trip (experiment rows, store entries)
    # ------------------------------------------------------------------ #
    def to_jsonable(self) -> dict[str, object]:
        """The flat, ordered ``{name: encoded value}`` dict (see
        :func:`encode_metric_value`); reversed by :meth:`from_jsonable`."""
        return {
            name: encode_metric_value(name, value) for name, value in self._values.items()
        }

    @classmethod
    def from_jsonable(cls, payload: dict[str, object]) -> "Measurement":
        """Rebuild a measurement from :meth:`to_jsonable` output."""
        return cls({name: decode_metric_value(name, value) for name, value in payload.items()})


def encode_metric_value(name: str, value):
    """JSON-safe form of one metric value (distributions become pair lists)."""
    if get_metric_def(name).kind == "distribution":
        return [[key, val] for key, val in sorted(value.items())]
    if isinstance(value, list):
        return [float(v) for v in value]
    return value


def decode_metric_value(name: str, encoded):
    """Inverse of :func:`encode_metric_value`."""
    if get_metric_def(name).kind == "distribution":
        return {int(key): float(val) for key, val in encoded}
    return encoded


def average_measurements(measurements: list[Measurement]) -> Measurement:
    """Element-wise average of several measurements (multi-seed experiments).

    Scalars are averaged (integer-valued ones rounded back to int);
    distributions are averaged key-wise over the union of keys (absent keys
    count as 0); per-node and per-edge vectors are averaged element-wise and
    must agree in length.  The measurements must cover the same metric *set*; ordering
    may differ (e.g. store-restored cells written by a spec that listed the
    metrics in another order), the first measurement's order wins.
    """
    if not measurements:
        raise ValueError("cannot average an empty list of measurements")
    names = measurements[0].metrics
    for other in measurements[1:]:
        if other.metrics != names and set(other.metrics) != set(names):
            raise ValueError(
                f"cannot average measurements of different metric sets: "
                f"{names} vs {other.metrics}"
            )
    count = len(measurements)
    averaged: dict[str, object] = {}
    for name in names:
        spec = get_metric_def(name)
        values = [m[name] for m in measurements]
        if spec.kind == "scalar":
            mean = sum(values) / count
            averaged[name] = int(round(mean)) if spec.dtype == "int" else mean
        elif spec.kind == "distribution":
            keys = sorted({key for value in values for key in value})
            averaged[name] = {
                key: sum(value.get(key, 0.0) for value in values) / count for key in keys
            }
        else:  # per_node / per_edge
            lengths = {len(value) for value in values}
            if len(lengths) > 1:
                raise ValueError(
                    f"cannot average {spec.kind} metric {name!r} over graphs of "
                    f"different sizes: {sorted(lengths)}"
                )
            averaged[name] = [
                sum(value[i] for value in values) / count
                for i in range(lengths.pop() if lengths else 0)
            ]
    return Measurement(averaged)


def battery_plan(
    metrics: "tuple[str, ...] | list[str] | None",
    *,
    compute_spectrum: bool = True,
    distance_sources: int | None = None,
    use_giant_component: bool = True,
) -> "MeasurementPlan":
    """The plan of an experiment grid's metric set.

    ``metrics is None`` selects the full Table-2 battery (the λ metrics iff
    ``compute_spectrum``); an explicit tuple selects exactly those metrics.
    """
    if metrics is None:
        return MeasurementPlan.table2(
            compute_spectrum=compute_spectrum,
            use_giant_component=use_giant_component,
            distance_sources=distance_sources,
        )
    return MeasurementPlan(
        tuple(metrics),
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
    )


class _RunContext:
    """Per-run evaluation context handed to the metric formulas.

    Resolves each shared intermediate lazily and memoizes it for the run, on
    top of the per-graph cache of :mod:`repro.measure.intermediates` — so a
    sampled sweep (never cached on the graph) is still drawn exactly once
    per run and shared by every metric that consumes it.
    """

    __slots__ = (
        "target", "sources", "rng",
        "want_betweenness", "want_edge_load", "_memo",
    )

    def __init__(
        self, target, *, sources, rng, want_betweenness,
        want_edge_load=False,
    ):
        self.target = target
        self.sources = sources
        self.rng = rng
        self.want_betweenness = want_betweenness
        self.want_edge_load = want_edge_load
        self._memo: dict[str, object] = {}

    def sweep(self) -> SweepResult:
        result = self._memo.get("sweep")
        if result is None:
            result = shared_sweep(
                self.target,
                sources=self.sources,
                rng=self.rng,
                want_betweenness=self.want_betweenness,
                want_edge_load=self.want_edge_load,
            )
            self._memo["sweep"] = result
        return result

    def scaled_histogram(self) -> dict[int, int]:
        histogram = self._memo.get("scaled_histogram")
        if histogram is None:
            sweep = self.sweep()
            histogram = scale_histogram(sweep.histogram, sweep.scale)
            self._memo["scaled_histogram"] = histogram
        return histogram

    def node_betweenness(self) -> list[float]:
        """Finalized (normalized) betweenness vector, once per run."""
        values = self._memo.get("node_betweenness")
        if values is None:
            from repro.metrics.betweenness import finalize_betweenness

            n = self.target.number_of_nodes
            if n == 0:
                values = []
            else:
                sweep = self.sweep()
                values = finalize_betweenness(
                    sweep.centrality, n, sweep.scale, normalized=True
                )
            self._memo["node_betweenness"] = values
        return values

    def edge_load(self) -> list[float]:
        """Normalized per-edge routing load (sorted canonical edge order)."""
        values = self._memo.get("edge_load")
        if values is None:
            from repro.workloads.routing import finalize_edge_load

            n = self.target.number_of_nodes
            if n == 0:
                values = []
            else:
                sweep = self.sweep()
                values = finalize_edge_load(
                    sweep.edge_load, n, sweep.scale, normalized=True
                )
            self._memo["edge_load"] = values
        return values

    def node_load(self) -> list[float]:
        """Raw per-node transit load (unnormalized betweenness), once per run."""
        values = self._memo.get("node_load")
        if values is None:
            from repro.metrics.betweenness import finalize_betweenness

            n = self.target.number_of_nodes
            if n == 0:
                values = []
            else:
                sweep = self.sweep()
                values = finalize_betweenness(
                    sweep.centrality, n, sweep.scale, normalized=False
                )
            self._memo["node_load"] = values
        return values

    def triangles(self) -> list[int]:
        return shared_triangles(self.target)

    def edge_moments(self) -> tuple[int, int, int]:
        return shared_edge_moments(self.target)

    def second_order(self) -> int:
        return shared_second_order(self.target)

    def spectrum(self) -> tuple[float, float]:
        return shared_spectrum(self.target)


@dataclass(frozen=True)
class MeasurementPlan:
    """Declarative measurement request: metric names + measurement options.

    Attributes
    ----------
    metrics:
        Registered metric names (see
        :func:`repro.measure.registry.available_metrics`); duplicates are
        dropped, order is preserved.
    use_giant_component:
        Measure on the giant connected component (the paper's protocol).
    distance_sources:
        Optional number of sampled BFS sources for the traversal metrics
        (exact sweep when ``None``).  The sample is drawn once per run and
        shared by every distance/betweenness metric.
    """

    metrics: tuple[str, ...]
    use_giant_component: bool = True
    distance_sources: int | None = None

    def __post_init__(self) -> None:
        # the one check of metric names: the experiment spec, the CLI and the
        # service map its ValueError to their own errors
        bad = [name for name in self.metrics if not isinstance(name, str)]
        if bad:
            raise ValueError(f"metric names must be strings, got {', '.join(map(repr, bad))}")
        deduped = tuple(dict.fromkeys(self.metrics))
        known = available_metrics()
        unknown = [name for name in deduped if name not in known]
        if unknown:
            raise ValueError(
                f"unknown metric(s) {', '.join(map(repr, unknown))}; "
                f"available: {', '.join(known)}"
            )
        object.__setattr__(self, "metrics", deduped)

    @classmethod
    def table2(
        cls,
        *,
        compute_spectrum: bool = True,
        use_giant_component: bool = True,
        distance_sources: int | None = None,
    ) -> "MeasurementPlan":
        """The paper's full Table-2 scalar battery."""
        metrics = TABLE2_CORE_METRICS + (SPECTRUM_METRICS if compute_spectrum else ())
        return cls(
            metrics,
            use_giant_component=use_giant_component,
            distance_sources=distance_sources,
        )

    def needs(self) -> frozenset[str]:
        """Union of shared intermediates the requested metrics consume."""
        needed: set[str] = set()
        for name in self.metrics:
            needed.update(get_metric_def(name).needs)
        return frozenset(needed)

    def run(
        self,
        graph: SimpleGraph,
        *,
        rng: RngLike = None,
    ) -> Measurement:
        """Measure ``graph``: every shared intermediate computed once.

        The target (the giant component unless ``use_giant_component`` is
        off) is swept once, in-process, by
        :func:`repro.measure.intermediates.shared_sweep`.
        """
        target = shared_target(graph, use_giant_component=self.use_giant_component)
        needed = self.needs()
        ctx = _RunContext(
            target,
            sources=self.distance_sources,
            rng=rng,
            want_betweenness="betweenness" in needed,
            want_edge_load="edge_load" in needed,
        )
        return Measurement(
            {name: get_metric_def(name).formula(ctx) for name in self.metrics}
        )


__all__ = [
    "TABLE2_CORE_METRICS",
    "SPECTRUM_METRICS",
    "battery_plan",
    "Measurement",
    "average_measurements",
    "encode_metric_value",
    "decode_metric_value",
    "MeasurementPlan",
]
