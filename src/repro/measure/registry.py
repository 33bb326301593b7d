"""Declarative metric registry for the measurement planner.

Each entry names a metric, the shared intermediates it needs (see
:mod:`repro.measure.intermediates`), and a thin formula evaluated over a
planner run context.  The planner resolves a requested metric *set* into the
union of needed intermediates, computes each intermediate exactly once, and
evaluates the formulas — so asking for ``mean_distance``, ``distance_std``,
``distance_distribution`` and ``betweenness_by_degree`` together costs one
BFS sweep, not four.

The formulas delegate to the exact same shared formula helpers the eager
functions in :mod:`repro.metrics` use, which keeps planner output
bit-identical to the standalone metric functions.

``kind`` distinguishes scalars from richer shapes:

* ``"scalar"`` — one float (or int, see ``dtype``): the Table-2 battery;
* ``"distribution"`` — an ``{x: y}`` mapping (d(x), betweenness per degree);
* ``"per_node"`` — one value per node of the measured component;
* ``"per_edge"`` — one value per edge, in sorted canonical edge order.

``cache_params`` lists the measurement options that change the metric's
value; the store's per-metric memoization folds exactly those into each
cache key, so e.g. changing ``distance_sources`` never invalidates a cached
clustering coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.metrics.assortativity import (
    assortativity_from_moments,
    likelihood_from_moments,
    second_order_from_total,
)
from repro.metrics.betweenness import group_mean_by_degree
from repro.metrics.clustering import (
    coefficients_from_triangles,
    transitivity_from_triangles,
)
from repro.metrics.distances import (
    distribution_from_histogram,
    histogram_mean,
    histogram_std,
)
from repro.workloads.congestion import effective_throughput, load_percentile, max_load
from repro.workloads.routing import canonical_edge_order, edge_load_by_degree

#: Intermediate names a metric may declare in ``needs``.
INTERMEDIATES = (
    "sweep",          # the unified BFS traversal (distance histogram)
    "betweenness",    # Brandes accumulation riding on the same traversal
    "edge_load",      # per-edge routing load riding on the same traversal
    "triangles",      # per-node triangle counts
    "edge_moments",   # integer edge-degree moments
    "second_order",   # ordered-wedge degree-product total
    "spectrum",       # Laplacian eigenvalue extremes
)


@dataclass(frozen=True)
class MetricDef:
    """One registered metric: its intermediates and its formula layer."""

    name: str
    kind: str  # "scalar" | "distribution" | "per_node" | "per_edge"
    needs: tuple[str, ...]
    formula: Callable[[Any], Any]
    dtype: str = "float"  # "int" for integer-valued scalars
    cache_params: tuple[str, ...] = ("use_giant_component",)
    description: str = ""

    def __post_init__(self) -> None:
        for need in self.needs:
            if need not in INTERMEDIATES:
                raise ValueError(
                    f"metric {self.name!r} needs unknown intermediate {need!r}"
                )


_METRICS: dict[str, MetricDef] = {}


def register_metric(spec: MetricDef, *, overwrite: bool = False) -> MetricDef:
    """Add a metric definition to the registry."""
    if spec.name in _METRICS and not overwrite:
        raise ValueError(f"metric {spec.name!r} is already registered")
    _METRICS[spec.name] = spec
    return spec


def get_metric_def(name: str) -> MetricDef:
    """The registered definition of ``name`` (raises ``KeyError`` if absent)."""
    try:
        return _METRICS[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; available: {', '.join(sorted(_METRICS))}"
        ) from None


def available_metrics() -> dict[str, MetricDef]:
    """Registered metrics by name (insertion order: Table 2 first)."""
    return dict(_METRICS)


def _metric(name, kind, needs, formula, **kwargs):
    return register_metric(
        MetricDef(name=name, kind=kind, needs=tuple(needs), formula=formula, **kwargs)
    )


# --------------------------------------------------------------------------- #
# The Table-2 scalar battery (in table order)
# --------------------------------------------------------------------------- #
_SWEEP_PARAMS = ("use_giant_component", "distance_sources")

_metric(
    "nodes", "scalar", (), lambda ctx: ctx.target.number_of_nodes,
    dtype="int", description="nodes of the measured (giant) component",
)
_metric(
    "edges", "scalar", (), lambda ctx: ctx.target.number_of_edges,
    dtype="int", description="edges of the measured (giant) component",
)
_metric(
    "average_degree", "scalar", (), lambda ctx: ctx.target.average_degree(),
    description="average degree k̄ = 2m/n",
)
_metric(
    "assortativity", "scalar", ("edge_moments",),
    lambda ctx: assortativity_from_moments(ctx.target.number_of_edges, ctx.edge_moments())
    if ctx.target.number_of_edges else 0.0,
    description="Newman's assortativity coefficient r",
)
_metric(
    "mean_clustering", "scalar", ("triangles",),
    lambda ctx: (
        sum(coefficients_from_triangles(ctx.target, ctx.triangles()))
        / ctx.target.number_of_nodes
        if ctx.target.number_of_nodes else 0.0
    ),
    description="mean local clustering C̄",
)
_metric(
    "mean_distance", "scalar", ("sweep",),
    lambda ctx: histogram_mean(ctx.scaled_histogram()),
    cache_params=_SWEEP_PARAMS, description="average hop distance d̄",
)
_metric(
    "distance_std", "scalar", ("sweep",),
    lambda ctx: histogram_std(ctx.scaled_histogram()),
    cache_params=_SWEEP_PARAMS, description="distance standard deviation σ_d",
)
_metric(
    "likelihood", "scalar", ("edge_moments",),
    lambda ctx: likelihood_from_moments(ctx.edge_moments()),
    description="likelihood S = Σ k_u·k_v over edges",
)
_metric(
    "second_order_likelihood", "scalar", ("second_order",),
    lambda ctx: second_order_from_total(ctx.second_order()),
    description="second-order likelihood S2 (wedge-end degree products)",
)
_metric(
    "lambda_1", "scalar", ("spectrum",), lambda ctx: ctx.spectrum()[0],
    description="smallest non-zero normalized-Laplacian eigenvalue",
)
_metric(
    "lambda_n_1", "scalar", ("spectrum",), lambda ctx: ctx.spectrum()[1],
    description="largest normalized-Laplacian eigenvalue",
)

# --------------------------------------------------------------------------- #
# À-la-carte extras: cheap scalars and the paper's distribution series
# --------------------------------------------------------------------------- #
_metric(
    "transitivity", "scalar", ("triangles",),
    lambda ctx: transitivity_from_triangles(ctx.target, ctx.triangles()),
    description="global transitivity 3·triangles / connected triples",
)
_metric(
    "diameter", "scalar", ("sweep",),
    lambda ctx: max(ctx.scaled_histogram(), default=0),
    dtype="int", cache_params=_SWEEP_PARAMS,
    description="largest observed hop distance",
)


_metric(
    "distance_distribution", "distribution", ("sweep",),
    lambda ctx: distribution_from_histogram(ctx.scaled_histogram()),
    cache_params=_SWEEP_PARAMS,
    description="normalized distance distribution d(x) — Figures 6-9",
)


_metric(
    "node_betweenness", "per_node", ("sweep", "betweenness"),
    lambda ctx: ctx.node_betweenness(),
    cache_params=_SWEEP_PARAMS,
    description="normalized node betweenness (Brandes)",
)
_metric(
    "betweenness_by_degree", "distribution", ("sweep", "betweenness"),
    lambda ctx: group_mean_by_degree(ctx.target, ctx.node_betweenness())
    if ctx.target.number_of_nodes else {},
    cache_params=_SWEEP_PARAMS,
    description="mean normalized betweenness per degree — Figures 6b / 9",
)


# --------------------------------------------------------------------------- #
# Traffic workload metrics (repro.workloads): shortest-path routing load and
# congestion under uniform demand — all riding on the one shared Brandes sweep
# --------------------------------------------------------------------------- #
_metric(
    "edge_load", "per_edge", ("sweep", "edge_load"),
    lambda ctx: ctx.edge_load(),
    cache_params=_SWEEP_PARAMS,
    description="normalized per-edge routing load (sorted canonical edge order)",
)
_metric(
    "max_edge_load", "scalar", ("sweep", "edge_load"),
    lambda ctx: max_load(ctx.edge_load()),
    cache_params=_SWEEP_PARAMS,
    description="bottleneck: largest normalized edge load",
)
_metric(
    "edge_load_p99", "scalar", ("sweep", "edge_load"),
    lambda ctx: load_percentile(ctx.edge_load(), 99.0),
    cache_params=_SWEEP_PARAMS,
    description="99th-percentile normalized edge load",
)
_metric(
    "effective_throughput", "scalar", ("sweep", "edge_load"),
    lambda ctx: effective_throughput(ctx.edge_load()),
    cache_params=_SWEEP_PARAMS,
    description="uniform-demand rate sustainable before the bottleneck saturates",
)
_metric(
    "edge_load_by_degree", "distribution", ("sweep", "edge_load"),
    lambda ctx: edge_load_by_degree(
        ctx.target, dict(zip(canonical_edge_order(ctx.target), ctx.edge_load()))
    ),
    cache_params=_SWEEP_PARAMS,
    description="mean edge load per endpoint degree product k_u·k_v",
)
_metric(
    "node_load", "per_node", ("sweep", "betweenness"),
    lambda ctx: ctx.node_load(),
    cache_params=_SWEEP_PARAMS,
    description="raw per-node transit load (pair-count betweenness)",
)
_metric(
    "max_node_load", "scalar", ("sweep", "betweenness"),
    lambda ctx: max_load(ctx.node_load()),
    cache_params=_SWEEP_PARAMS,
    description="largest raw per-node transit load",
)


__all__ = [
    "INTERMEDIATES",
    "MetricDef",
    "register_metric",
    "get_metric_def",
    "available_metrics",
]
