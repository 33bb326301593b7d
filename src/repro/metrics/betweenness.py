"""Betweenness centrality (Brandes' algorithm) and its degree profile.

Betweenness estimates the potential traffic load on a node or link under
uniform shortest-path routing.  The paper plots *normalized node betweenness
averaged per degree* against node degree (Figures 6b and 9).  Node
betweenness is Brandes' accumulation, with optional source sampling for
large graphs.

The heavy traversal is obtained from the shared measurement-intermediate
layer (:mod:`repro.measure.intermediates`): one unified BFS sweep (the
batched Brandes kernel of :mod:`repro.kernels.betweenness`) produces both
the distance histogram and the raw betweenness accumulation, so a caller
(or a :class:`~repro.measure.plan.MeasurementPlan`) that wants distance
metrics *and* betweenness pays for a single traversal.
"""

from __future__ import annotations

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import _view
from repro.measure.intermediates import shared_sweep
from repro.utils.rng import RngLike


def finalize_betweenness(
    centrality: list[float], n: int, scale: float, *, normalized: bool
) -> list[float]:
    """Shared scaling of a raw Brandes accumulation.

    Each undirected pair is counted from both endpoints when all sources are
    used, hence the ``1/2``; ``scale`` is the Brandes–Pich sampling factor
    ``n / sources``; normalization divides by the ``(n-1)(n-2)/2`` ordered
    pairs excluding the node itself (networkx's undirected convention).
    """
    factor = scale / 2.0
    values = [value * factor for value in centrality]
    if normalized and n > 2:
        norm = (n - 1) * (n - 2) / 2.0
        values = [value / norm for value in values]
    return values


def finalize_edge_load(
    values: list[float], n: int, scale: float, *, normalized: bool
) -> list[float]:
    """Shared scaling of a raw per-edge Brandes accumulation.

    Each undirected pair contributes from both endpoints when all sources
    are used, hence the ``1/2``; ``scale`` is the Brandes–Pich sampling
    factor; normalization divides by the ``n(n-1)/2`` demand pairs.
    """
    factor = scale / 2.0
    out = [value * factor for value in values]
    if normalized and n > 1:
        norm = n * (n - 1) / 2.0
        out = [value / norm for value in out]
    return out


def mean_by_key(keys: np.ndarray, values: list[float]) -> dict[int, float]:
    """Mean of ``values`` grouped by the integer ``keys`` (sorted keys).

    ``np.bincount`` adds each group's values in input order, so every mean
    is the same float as the running sum ``0.0 + v_0 + v_1 + …`` over it.
    """
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(
        inverse, weights=np.asarray(values, dtype=np.float64), minlength=len(unique)
    )
    counts = np.bincount(inverse, minlength=len(unique))
    return dict(zip(unique.tolist(), (sums / counts).tolist()))


def group_mean_by_degree(graph: SimpleGraph, values: list[float]) -> dict[int, float]:
    """Mean of a per-node quantity grouped by node degree (sorted keys)."""
    return mean_by_key(_view(graph).degrees, values)


def node_betweenness(
    graph: SimpleGraph,
    *,
    normalized: bool = True,
    sources: int | None = None,
    rng: RngLike = None,
) -> list[float]:
    """Betweenness centrality of every node.

    Parameters
    ----------
    normalized:
        Divide by the number of ordered pairs excluding the node itself,
        ``(n-1)(n-2)``, matching networkx's convention for undirected graphs.
    sources:
        When given, only this many BFS sources are used (sampled without
        replacement) and the result is scaled by ``n / sources``
        (Brandes–Pich estimator).
    """
    n = graph.number_of_nodes
    if n == 0:
        return []
    sweep = shared_sweep(graph, sources=sources, rng=rng, want_betweenness=True)
    return finalize_betweenness(sweep.centrality, n, sweep.scale, normalized=normalized)


def betweenness_by_degree(
    graph: SimpleGraph,
    *,
    normalized: bool = True,
    sources: int | None = None,
    rng: RngLike = None,
) -> dict[int, float]:
    """Mean (normalized) node betweenness per node degree -- Figures 6b / 9."""
    values = node_betweenness(graph, normalized=normalized, sources=sources, rng=rng)
    if not values:
        return {}
    return group_mean_by_degree(graph, values)


def edge_betweenness(
    graph: SimpleGraph,
    *,
    normalized: bool = True,
) -> dict[tuple[int, int], float]:
    """Betweenness centrality of every edge (exact, all sources).

    The per-edge accumulation of the shared Brandes sweep (the routing load
    of :mod:`repro.workloads.routing`), keyed by canonical edge in sorted
    order and normalized by the ``n(n-1)/2`` demand pairs.
    """
    n = graph.number_of_nodes
    if n == 0:
        return {}
    sweep = shared_sweep(graph, want_edge_load=True)
    values = finalize_edge_load(sweep.edge_load, n, sweep.scale, normalized=normalized)
    return dict(zip(sorted(graph.edge_list()), values))


__all__ = [
    "node_betweenness",
    "betweenness_by_degree",
    "edge_betweenness",
    "finalize_betweenness",
    "finalize_edge_load",
    "group_mean_by_degree",
    "mean_by_key",
]
