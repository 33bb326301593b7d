"""Pure-Python triangle kernel: the set-intersection edge iterator."""

from __future__ import annotations

from repro.graph import subgraphs
from repro.graph.simple_graph import SimpleGraph


def triangles_per_node(graph: SimpleGraph) -> list[int]:
    """Number of triangles each node participates in, indexed by node id."""
    return subgraphs.triangles_per_node(graph)


__all__ = ["triangles_per_node"]
