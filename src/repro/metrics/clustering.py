"""Clustering metrics: local clustering, C(k), mean clustering C̄, transitivity.

Per-node triangle counts come from the shared measurement-intermediate layer
(:mod:`repro.measure.intermediates`), which caches the single triangle pass
on the graph — so ``mean_clustering`` followed by ``transitivity`` (or a
planner run asking for both) counts triangles once.  The counts are exact
integers, and the coefficient arithmetic below is shared with the planner,
so clustering values are the same bits on either path.  Degrees come from
the CSR view every kernel shares, so a :class:`SimpleGraph` and a
:class:`~repro.kernels.biggraph.BigGraph` run the same array formula.
"""

from __future__ import annotations

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import _view
from repro.measure.intermediates import shared_triangles
from repro.metrics.betweenness import group_mean_by_degree


def coefficients_from_triangles(graph: SimpleGraph, triangles: list[int]) -> list[float]:
    """Local clustering coefficients ``2t / (k(k−1))`` (0 where k < 2)."""
    degrees = _view(graph).degrees
    values = np.zeros(len(degrees))
    # float64 numerator over the int64 pair count: the same IEEE division
    # as the scalar ``2.0 * t / (k * (k - 1))``
    np.divide(
        2.0 * np.asarray(triangles, dtype=np.int64),
        degrees * (degrees - 1),
        out=values,
        where=degrees >= 2,
    )
    return values.tolist()


def local_clustering_coefficients(graph: SimpleGraph) -> list[float]:
    """Local clustering coefficient of every node (0 for degree < 2)."""
    return coefficients_from_triangles(graph, shared_triangles(graph))


def mean_clustering(graph: SimpleGraph) -> float:
    """``C̄``: mean of the local clustering coefficients over all nodes."""
    n = graph.number_of_nodes
    if n == 0:
        return 0.0
    return sum(local_clustering_coefficients(graph)) / n


def clustering_by_degree(graph: SimpleGraph) -> dict[int, float]:
    """``C(k)``: mean local clustering of k-degree nodes (k >= 2)."""
    by_degree = group_mean_by_degree(graph, local_clustering_coefficients(graph))
    return {k: value for k, value in by_degree.items() if k >= 2}


def transitivity_from_triangles(graph: SimpleGraph, triangles: list[int]) -> float:
    """Global transitivity from per-node triangle counts (shared formula)."""
    degrees = _view(graph).degrees
    triples = int(np.sum(degrees * (degrees - 1) // 2))
    if triples == 0:
        return 0.0
    # each triangle is counted once per member node
    triangle_total = sum(triangles) // 3
    return 3.0 * triangle_total / triples


def transitivity(graph: SimpleGraph) -> float:
    """Global transitivity ``3 * triangles / (number of connected triples)``."""
    return transitivity_from_triangles(graph, shared_triangles(graph))


__all__ = [
    "coefficients_from_triangles",
    "transitivity_from_triangles",
    "local_clustering_coefficients",
    "mean_clustering",
    "clustering_by_degree",
    "transitivity",
]
