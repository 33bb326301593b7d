"""Figure-series data (the paper's Figures 5-9 as numeric series).

The paper's figures plot, for an original graph and its dK-random
counterparts:

* the distance distribution PDF (Figures 5b, 5c, 6a, 8),
* normalized node betweenness averaged per degree (Figures 6b, 9),
* clustering ``C(k)`` per degree (Figures 5a, 6c, 7).

Since this reproduction is head-less, each "figure" is a mapping
``series label -> {x: y}`` that benchmarks render as aligned text tables and
record in EXPERIMENTS.md; any plotting front-end can consume the same data.
Every series measures the graph's cached measurement target
(:func:`~repro.measure.intermediates.shared_target`), so the figures of one
graph extract its giant component once and share its exact sweep.
"""

from __future__ import annotations

from typing import Mapping

from repro.graph.simple_graph import SimpleGraph
from repro.measure.intermediates import shared_target
from repro.metrics.betweenness import betweenness_by_degree
from repro.metrics.clustering import clustering_by_degree
from repro.metrics.distances import distance_distribution
from repro.utils.rng import RngLike

FigureSeries = dict[str, dict]


def distance_distribution_series(
    graphs: Mapping[str, SimpleGraph],
    *,
    use_giant_component: bool = True,
    sources: int | None = None,
    rng: RngLike = None,
) -> FigureSeries:
    """Distance-distribution PDFs for several labelled graphs."""
    return {
        label: distance_distribution(
            shared_target(graph, use_giant_component=use_giant_component),
            sources=sources,
            rng=rng,
        )
        for label, graph in graphs.items()
    }


def betweenness_series(
    graphs: Mapping[str, SimpleGraph],
    *,
    use_giant_component: bool = True,
    sources: int | None = None,
    rng: RngLike = None,
) -> FigureSeries:
    """Normalized node betweenness averaged per degree, per labelled graph."""
    return {
        label: betweenness_by_degree(
            shared_target(graph, use_giant_component=use_giant_component),
            sources=sources,
            rng=rng,
        )
        for label, graph in graphs.items()
    }


def clustering_series(
    graphs: Mapping[str, SimpleGraph],
    *,
    use_giant_component: bool = True,
) -> FigureSeries:
    """Clustering ``C(k)`` per degree, per labelled graph."""
    return {
        label: clustering_by_degree(
            shared_target(graph, use_giant_component=use_giant_component)
        )
        for label, graph in graphs.items()
    }


def series_l1_difference(series_a: dict, series_b: dict) -> float:
    """Total absolute difference between two ``{x: y}`` series.

    Used by the tests and benchmarks as a scalar measure of how close a
    dK-random graph's figure series is to the original's.
    """
    keys = set(series_a) | set(series_b)
    return float(sum(abs(series_a.get(k, 0.0) - series_b.get(k, 0.0)) for k in keys))


__all__ = [
    "FigureSeries",
    "distance_distribution_series",
    "betweenness_series",
    "clustering_series",
    "series_l1_difference",
]
