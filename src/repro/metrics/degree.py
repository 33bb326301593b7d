"""Degree-based metrics: average and maximum degree."""

from __future__ import annotations

from repro.graph.simple_graph import SimpleGraph


def average_degree(graph: SimpleGraph) -> float:
    """Average node degree ``k̄``."""
    return graph.average_degree()


def max_degree(graph: SimpleGraph) -> int:
    """Largest node degree."""
    return graph.max_degree()


__all__ = [
    "average_degree",
    "max_degree",
]
