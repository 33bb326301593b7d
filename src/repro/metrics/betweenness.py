"""Betweenness centrality (Brandes' algorithm) and its degree profile.

Betweenness estimates the potential traffic load on a node or link under
uniform shortest-path routing.  The paper plots *normalized node betweenness
averaged per degree* against node degree (Figures 6b and 9).  The
implementation below is Brandes' single-source accumulation, with optional
source sampling for large graphs; networkx is used in the test-suite as an
oracle but not here.

The heavy traversal is obtained from the shared measurement-intermediate
layer (:mod:`repro.measure.intermediates`): one unified BFS sweep produces
both the distance histogram and the raw betweenness accumulation, so a
caller (or a :class:`~repro.measure.plan.MeasurementPlan`) that wants
distance metrics *and* betweenness pays for a single traversal.
"""

from __future__ import annotations

from collections import deque

from repro.graph.simple_graph import SimpleGraph
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


def group_mean_by_degree(graph: SimpleGraph, values: list[float]) -> dict[int, float]:
    """Mean of a per-node quantity grouped by node degree (sorted keys)."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for node in graph.nodes():
        k = graph.degree(node)
        sums[k] = sums.get(k, 0.0) + values[node]
        counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sorted(sums)}


def node_betweenness(
    graph: SimpleGraph,
    *,
    normalized: bool = True,
    sources: int | None = None,
    rng: RngLike = None,
    backend: str | None = None,
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
    sweep = shared_sweep(
        graph, sources=sources, rng=rng, backend=backend, want_betweenness=True
    )
    return finalize_betweenness(sweep.centrality, n, sweep.scale, normalized=normalized)


def brandes_source(
    graph: SimpleGraph,
    s: int,
    centrality: list[float],
    *,
    edge_load: list[float] | None = None,
    edge_index: dict[tuple[int, int], int] | None = None,
) -> list[int]:
    """One Brandes source: accumulate into ``centrality``, return distances.

    The reference (pure-Python) single-source pass.  The returned hop
    distances (-1 when unreachable) are the byproduct the unified
    ``bfs_sweep`` kernel turns into the distance histogram.

    When ``edge_load`` is given, the per-edge dependency contribution
    ``(σ_v/σ_w)·(1+δ_w)`` — which the accumulation computes anyway — is also
    added at ``edge_load[edge_index[(v, w)]]`` (canonical ``v <= w`` key), so
    edge bottleneck load rides on the same traversal at no extra BFS cost.
    """
    n = graph.number_of_nodes
    # single-source shortest-path counting (unweighted BFS variant)
    stack: list[int] = []
    predecessors: list[list[int]] = [[] for _ in range(n)]
    sigma = [0.0] * n
    sigma[s] = 1.0
    distance = [-1] * n
    distance[s] = 0
    queue = deque([s])
    while queue:
        v = queue.popleft()
        stack.append(v)
        for w in graph.neighbors(v):
            if distance[w] < 0:
                distance[w] = distance[v] + 1
                queue.append(w)
            if distance[w] == distance[v] + 1:
                sigma[w] += sigma[v]
                predecessors[w].append(v)
    # accumulation
    delta = [0.0] * n
    if edge_load is None:
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                centrality[w] += delta[w]
        return distance
    assert edge_index is not None
    while stack:
        w = stack.pop()
        for v in predecessors[w]:
            contribution = (sigma[v] / sigma[w]) * (1.0 + delta[w])
            delta[v] += contribution
            edge_load[edge_index[(v, w) if v <= w else (w, v)]] += contribution
        if w != s:
            centrality[w] += delta[w]
    return distance


def betweenness_by_degree(
    graph: SimpleGraph,
    *,
    normalized: bool = True,
    sources: int | None = None,
    rng: RngLike = None,
    backend: str | None = None,
) -> dict[int, float]:
    """Mean (normalized) node betweenness per node degree -- Figures 6b / 9."""
    values = node_betweenness(
        graph, normalized=normalized, sources=sources, rng=rng, backend=backend
    )
    if not values:
        return {}
    return group_mean_by_degree(graph, values)


def edge_betweenness(
    graph: SimpleGraph,
    *,
    normalized: bool = True,
) -> dict[tuple[int, int], float]:
    """Betweenness centrality of every edge (exact, all sources)."""
    n = graph.number_of_nodes
    centrality: dict[tuple[int, int], float] = {edge: 0.0 for edge in graph.edges()}
    if n == 0:
        return centrality
    for s in graph.nodes():
        stack: list[int] = []
        predecessors: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[s] = 1.0
        distance = [-1] * n
        distance[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in graph.neighbors(v):
                if distance[w] < 0:
                    distance[w] = distance[v] + 1
                    queue.append(w)
                if distance[w] == distance[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                contribution = (sigma[v] / sigma[w]) * (1.0 + delta[w])
                key = (v, w) if v <= w else (w, v)
                centrality[key] += contribution
                delta[v] += contribution
    centrality = {edge: value / 2.0 for edge, value in centrality.items()}
    if normalized and n > 1:
        norm = n * (n - 1) / 2.0
        centrality = {edge: value / norm for edge, value in centrality.items()}
    return centrality


__all__ = [
    "node_betweenness",
    "betweenness_by_degree",
    "edge_betweenness",
    "brandes_source",
    "finalize_betweenness",
    "group_mean_by_degree",
]
