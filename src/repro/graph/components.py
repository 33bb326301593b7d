"""Connected components of a SimpleGraph or a BigGraph.

The paper reports all metrics on the giant connected component (GCC) of the
generated graphs, because pseudograph/stochastic constructions may leave a
few tiny components behind.  Component labels come from one scipy pass
(:func:`repro.kernels.biggraph.component_labels`) over a SimpleGraph's edge
arrays or a BigGraph's CSR arrays, and one rule picks the giant component
of either (:func:`repro.kernels.biggraph.giant_component_mask`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import (
    BigGraph,
    adjacency_matrix,
    component_labels,
    giant_component_mask,
    index_dtype,
)

#: Member rows gathered per batch when a BigGraph's giant component is cut.
_GATHER_ROWS = 262_144


def _edge_array(graph: SimpleGraph) -> np.ndarray:
    """The edge list as an ``m x 2`` int64 array, in ``graph.edges()`` order."""
    return np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)


def _edge_labels(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """``(count, label per node)`` of the ``n``-node graph with these edges."""
    from scipy.sparse import coo_matrix

    adjacency = coo_matrix(
        (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    return component_labels(adjacency)


def _labels(graph: SimpleGraph | BigGraph) -> tuple[int, np.ndarray]:
    """``(count, label per node)`` of either graph type.

    A SimpleGraph is labelled from its edge arrays, not its CSR view, which
    it would first have to build.
    """
    if getattr(graph, "is_biggraph", False):
        return component_labels(adjacency_matrix(graph, np.int8))
    return _edge_labels(graph.number_of_nodes, _edge_array(graph))


def connected_components(graph: SimpleGraph | BigGraph) -> Iterator[list[int]]:
    """Yield connected components as ascending lists of node ids.

    Components come in the order of their smallest node id.
    """
    count, labels = _labels(graph)
    if count == 0:
        return
    members = np.argsort(labels, kind="stable")
    groups = np.split(members, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    for group in sorted(groups, key=lambda group: group[0]):
        yield group.tolist()


def giant_component(graph: SimpleGraph | BigGraph) -> SimpleGraph | BigGraph:
    """Induced subgraph on the giant component, relabelled ascending.

    The largest component wins; among equally large ones, the one holding
    the smallest node id.  A SimpleGraph's component keeps its edges in
    ``graph.edges()`` order; a BigGraph's is a BigGraph (the graph itself
    when it is connected).
    """
    if getattr(graph, "is_biggraph", False):
        if graph.n == 0:
            return graph
        member = giant_component_mask(_labels(graph)[1])
        return graph if member.all() else _member_rows(graph, member)
    if graph.number_of_nodes == 0:
        return SimpleGraph(0)
    edges = _edge_array(graph)
    member = giant_component_mask(_edge_labels(graph.number_of_nodes, edges)[1])
    new_ids = np.cumsum(member, dtype=np.int64) - 1
    kept = new_ids[edges[member[edges[:, 0]]]]
    return SimpleGraph.from_flat_edges(
        int(new_ids[-1]) + 1, kept[:, 0].tolist(), kept[:, 1].tolist()
    )


def _member_rows(graph: BigGraph, member: np.ndarray) -> BigGraph:
    """The BigGraph induced on a closed node set, relabelled ascending.

    Member rows are gathered batch by batch: the neighbors of members are
    members, and the monotone relabelling keeps every row sorted.
    """
    new_ids = np.cumsum(member, dtype=np.int64) - 1
    member_nodes = np.flatnonzero(member)
    sub_degrees = graph.degrees[member_nodes]
    sub_indptr = np.zeros(len(member_nodes) + 1, dtype=np.int64)
    np.cumsum(sub_degrees, out=sub_indptr[1:])
    dtype = index_dtype(len(member_nodes))
    sub_indices = np.empty(int(sub_indptr[-1]), dtype=dtype)
    out = 0
    starts = graph.indptr[member_nodes]
    for block in range(0, len(member_nodes), _GATHER_ROWS):
        stop = min(block + _GATHER_ROWS, len(member_nodes))
        counts = sub_degrees[block:stop]
        width = int(counts.sum())
        if width == 0:
            continue
        offsets = np.zeros(stop - block + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        positions = np.arange(width, dtype=np.int64)
        positions += np.repeat(starts[block:stop] - offsets[:-1], counts)
        gathered = np.asarray(graph.indices)[positions].astype(np.int64)
        sub_indices[out : out + width] = new_ids[gathered].astype(dtype)
        out += width
    return BigGraph(sub_indptr, sub_indices)


__all__ = ["connected_components", "giant_component"]
