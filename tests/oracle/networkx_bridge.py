"""Conversion of a :class:`SimpleGraph` into a :mod:`networkx` graph.

networkx is the test suite's independent reference for the library's
metrics (distances, betweenness, clustering, assortativity, spectrum and
components); the library itself never imports it.
"""

from __future__ import annotations

import networkx as nx

from repro.graph.simple_graph import SimpleGraph


def to_networkx(graph: SimpleGraph) -> nx.Graph:
    """Convert a :class:`SimpleGraph` into an undirected :class:`networkx.Graph`."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.number_of_nodes))
    g.add_edges_from(graph.edges())
    return g


__all__ = ["to_networkx"]
