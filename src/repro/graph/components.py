"""Connected-component utilities.

The paper reports all metrics on the giant connected component (GCC) of the
generated graphs, because pseudograph/stochastic constructions may leave a
few tiny components behind.  Component labels come from one scipy pass over
the edge arrays (:func:`repro.kernels.biggraph.component_labels`), and the
giant component is picked by the rule a BigGraph's is
(:func:`repro.kernels.biggraph.giant_component_mask`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import component_labels, giant_component_mask


def _edge_array(graph: SimpleGraph) -> np.ndarray:
    """The edge list as an ``m x 2`` int64 array, in ``graph.edges()`` order."""
    return np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)


def _labels(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """``(count, label per node)`` of the ``n``-node graph with these edges."""
    from scipy.sparse import coo_matrix

    adjacency = coo_matrix(
        (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    return component_labels(adjacency)


def connected_components(graph: SimpleGraph) -> Iterator[list[int]]:
    """Yield connected components as ascending lists of node ids.

    Components come in the order of their smallest node id.
    """
    count, labels = _labels(graph.number_of_nodes, _edge_array(graph))
    if count == 0:
        return
    members = np.argsort(labels, kind="stable")
    groups = np.split(members, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    for group in sorted(groups, key=lambda group: group[0]):
        yield group.tolist()


def largest_component_nodes(graph: SimpleGraph) -> list[int]:
    """Node ids of the giant component, ascending (empty graph -> [])."""
    if graph.number_of_nodes == 0:
        return []
    labels = _labels(graph.number_of_nodes, _edge_array(graph))[1]
    return np.flatnonzero(giant_component_mask(labels)).tolist()


def giant_component(graph: SimpleGraph) -> SimpleGraph:
    """Induced subgraph on the giant component, relabelled ascending.

    The largest component wins; among equally large ones, the one holding
    the smallest node id.  Edges keep their order in ``graph.edges()``.
    """
    if graph.number_of_nodes == 0:
        return SimpleGraph(0)
    edges = _edge_array(graph)
    member = giant_component_mask(_labels(graph.number_of_nodes, edges)[1])
    new_ids = np.cumsum(member, dtype=np.int64) - 1
    kept = new_ids[edges[member[edges[:, 0]]]]
    return SimpleGraph.from_flat_edges(
        int(new_ids[-1]) + 1, kept[:, 0].tolist(), kept[:, 1].tolist()
    )


def component_size_distribution(graph: SimpleGraph) -> dict[int, int]:
    """Mapping ``component size -> number of components of that size``."""
    labels = _labels(graph.number_of_nodes, _edge_array(graph))[1]
    sizes, counts = np.unique(np.bincount(labels), return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


__all__ = [
    "connected_components",
    "largest_component_nodes",
    "giant_component",
    "component_size_distribution",
]
