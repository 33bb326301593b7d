"""Pure-Python unified BFS sweep: distance histogram + optional betweenness.

The reference implementation of the csr ``bfs_sweep`` and ``bfs_histogram``
kernels.  Without betweenness it is exactly the per-source queue-BFS
histogram sweep; with betweenness it runs Brandes' single-source
accumulation and histograms the hop distances that pass computes anyway —
one traversal either way.  The integer pair counts are identical in both
modes (and identical to the CSR kernel), which is what keeps every derived
distance metric bit-identical to this oracle across metric subsets.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.graph.simple_graph import SimpleGraph
from repro.metrics.distances import bfs_distances


def bfs_histogram(graph: SimpleGraph, source_nodes: list[int]) -> dict[int, int]:
    """Reference BFS sweep: per-source queue BFS, counts per hop distance."""
    histogram: dict[int, int] = {}
    for source in source_nodes:
        for distance in bfs_distances(graph, source):
            if distance < 0:
                continue
            histogram[distance] = histogram.get(distance, 0) + 1
    return histogram


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


def bfs_sweep(
    graph: SimpleGraph,
    source_nodes: Sequence[int],
    want_betweenness: bool,
    want_edge_load: bool = False,
) -> tuple[dict[int, int], list[float] | None, list[float] | None]:
    """One sweep over ``source_nodes``: ``(histogram, centrality, edge load)``.

    ``centrality`` is the raw Brandes accumulation (``None`` only when the
    plain histogram sweep ran, i.e. neither betweenness nor edge load was
    requested); scaling and normalization are applied by the shared code in
    :mod:`repro.metrics.betweenness`.  ``edge_load`` is the raw per-edge
    dependency accumulation in *sorted canonical edge order* (``None``
    unless ``want_edge_load``) — it rides on the same Brandes traversal, so
    betweenness + edge load together still cost one sweep.
    """
    if not want_betweenness and not want_edge_load:
        return bfs_histogram(graph, list(source_nodes)), None, None
    centrality = [0.0] * graph.number_of_nodes
    edge_load: list[float] | None = None
    edge_index: dict[tuple[int, int], int] | None = None
    if want_edge_load:
        edge_load = [0.0] * graph.number_of_edges
        edge_index = {edge: i for i, edge in enumerate(sorted(graph.edge_list()))}
    histogram: dict[int, int] = {}
    for s in source_nodes:
        distances = brandes_source(
            graph, s, centrality, edge_load=edge_load, edge_index=edge_index
        )
        for distance in distances:
            if distance < 0:
                continue
            histogram[distance] = histogram.get(distance, 0) + 1
    return histogram, centrality, edge_load


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


__all__ = ["bfs_histogram", "brandes_source", "bfs_sweep", "edge_betweenness"]
