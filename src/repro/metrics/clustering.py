"""Clustering metrics: local clustering, C(k), mean clustering C̄, transitivity.

Per-node triangle counts come from the shared measurement-intermediate layer
(:mod:`repro.measure.intermediates`), which caches the single triangle pass
on the graph — so ``mean_clustering`` followed by ``transitivity`` (or a
planner run asking for both) counts triangles once.  The counts are exact
integers, and the coefficient arithmetic below is shared with the planner,
so clustering values are the same bits on either path.
"""

from __future__ import annotations

from repro.graph.simple_graph import SimpleGraph
from repro.measure.intermediates import shared_triangles


def coefficients_from_triangles(graph: SimpleGraph, triangles: list[int]) -> list[float]:
    """Local clustering coefficients from per-node triangle counts."""
    values = []
    for node in graph.nodes():
        k = graph.degree(node)
        if k < 2:
            values.append(0.0)
        else:
            values.append(2.0 * triangles[node] / (k * (k - 1)))
    return values


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
    coefficients = local_clustering_coefficients(graph)
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for node in graph.nodes():
        k = graph.degree(node)
        if k < 2:
            continue
        sums[k] = sums.get(k, 0.0) + coefficients[node]
        counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sorted(sums)}


def transitivity_from_triangles(graph: SimpleGraph, triangles: list[int]) -> float:
    """Global transitivity from per-node triangle counts (shared formula)."""
    triples = sum(k * (k - 1) // 2 for k in graph.degrees())
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
