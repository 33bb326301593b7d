"""Conversions between :class:`SimpleGraph` and :mod:`networkx` graphs.

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


def from_networkx(g: nx.Graph) -> tuple[SimpleGraph, dict]:
    """Convert a networkx graph into a :class:`SimpleGraph`.

    Nodes are relabelled to consecutive integers; the mapping
    ``original label -> integer id`` is returned alongside the graph.
    Self-loops are dropped; parallel edges (MultiGraph input) collapse.
    """
    labels = list(g.nodes())
    mapping = {label: index for index, label in enumerate(labels)}
    graph = SimpleGraph(len(labels))
    for u, v in g.edges():
        if u == v:
            continue
        graph.add_edge(mapping[u], mapping[v])
    return graph, mapping


def to_adjacency_lists(graph: SimpleGraph) -> list[list[int]]:
    """Plain list-of-lists adjacency representation (sorted neighbours)."""
    return [sorted(graph.neighbors(u)) for u in graph.nodes()]


__all__ = ["to_networkx", "from_networkx", "to_adjacency_lists"]
