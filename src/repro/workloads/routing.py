"""Shortest-path routing load: per-edge and per-node bottleneck load.

Under uniform all-pairs demand with shortest-path routing (traffic split
evenly across equal-cost paths), the expected load on a link or router is
exactly its (edge or node) betweenness.  The Brandes accumulation the
measurement planner already runs for betweenness computes the per-edge
dependency contribution as an inner term, so the unified ``bfs_sweep``
kernel accumulates it per edge within the same traversal —
betweenness + edge load + every congestion metric together cost ONE sweep.

Per-edge load vectors are emitted in *sorted canonical edge order*
(``(u, v)`` with ``u <= v``, ascending): the order is a pure function of the
edge set, independent of the mutation history of the underlying
:class:`SimpleGraph`, which keeps store-cached values content-stable.

Normalized edge load is the fraction of demand pairs whose (split) routing
crosses the edge: :func:`repro.metrics.betweenness.edge_betweenness`, which
shares the scaling (``finalize_edge_load``) and the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import _canonical_edges, _view
from repro.measure.intermediates import shared_sweep
from repro.metrics.betweenness import (
    finalize_betweenness,
    finalize_edge_load,
    mean_by_key,
)
from repro.utils.rng import RngLike


def canonical_edge_order(graph: SimpleGraph) -> list[tuple[int, int]]:
    """The sorted canonical edge list every per-edge load vector aligns with."""
    us, vs = _canonical_edges(_view(graph))
    return list(zip(us.tolist(), vs.tolist()))


def routing_load(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
    normalized: bool = True,
) -> tuple[dict[tuple[int, int], float], list[float]]:
    """Eager per-edge and per-node routing load of ``graph`` (one sweep).

    Returns ``(edge_load, node_load)``: ``edge_load`` maps each canonical
    edge to its load; ``node_load`` is the per-node transit load (node
    betweenness — normalized by the networkx pair convention when
    ``normalized``, the raw pair-count load otherwise).
    """
    n = graph.number_of_nodes
    if n == 0:
        return {}, []
    sweep = shared_sweep(
        graph,
        sources=sources,
        rng=rng,
        want_betweenness=True,
        want_edge_load=True,
    )
    edge_values = finalize_edge_load(
        sweep.edge_load, n, sweep.scale, normalized=normalized
    )
    node_values = finalize_betweenness(
        sweep.centrality, n, sweep.scale, normalized=normalized
    )
    return dict(zip(canonical_edge_order(graph), edge_values)), node_values


def edge_load_by_degree(
    graph: SimpleGraph, edge_load: dict[tuple[int, int], float]
) -> dict[int, float]:
    """Mean edge load grouped by endpoint degree product (sorted keys).

    The degree product ``k_u·k_v`` is the natural abscissa for bottleneck
    scaling in scale-free graphs ("Communication Bottlenecks in Scale-Free
    Networks"): hub–hub links concentrate the load.
    """
    degrees = _view(graph).degrees
    ends = np.array(list(edge_load), dtype=np.int64).reshape(-1, 2)
    products = degrees[ends[:, 0]] * degrees[ends[:, 1]]
    return mean_by_key(products, list(edge_load.values()))


__all__ = [
    "canonical_edge_order",
    "finalize_edge_load",
    "routing_load",
    "edge_load_by_degree",
]
