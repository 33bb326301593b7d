"""Extraction of dK-distributions from graphs (the paper's *analysis* side).

These functions implement the "dkdist" part of the paper's released tooling:
given an input graph, compute its 0K/1K/2K/3K-distribution.  P_1 is one
``np.bincount`` of the CSR view's degree array, and P_2 and P_3 are counted
by the chunked csr kernels of :mod:`repro.kernels.biggraph`
(:func:`~repro.kernels.biggraph.jdd_counts` and
:func:`~repro.kernels.biggraph.threek_counts`), so every extraction runs on
a SimpleGraph (through its cached CSR view) and on a BigGraph alike.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import (
    AverageDegree,
    DegreeDistribution,
    JointDegreeDistribution,
    ThreeKDistribution,
)
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import _view, jdd_counts, threek_counts


def average_degree(graph: SimpleGraph) -> AverageDegree:
    """Extract the 0K-distribution (graph size and average degree)."""
    return AverageDegree(nodes=graph.number_of_nodes, edges=graph.number_of_edges)


def degree_distribution(graph: SimpleGraph) -> DegreeDistribution:
    """Extract the 1K-distribution (node degree distribution)."""
    counts = np.bincount(_view(graph).degrees)
    return DegreeDistribution(dict(enumerate(counts.tolist())))


def joint_degree_distribution(graph: SimpleGraph) -> JointDegreeDistribution:
    """Extract the 2K-distribution (joint degree distribution over edges)."""
    counts, zero_degree = jdd_counts(graph)
    return JointDegreeDistribution(counts, zero_degree_nodes=zero_degree)


def three_k_distribution(graph: SimpleGraph) -> ThreeKDistribution:
    """Extract the 3K-distribution (wedge and triangle degree correlations)."""
    wedges, triangles = threek_counts(graph)
    return ThreeKDistribution(
        wedges=wedges, triangles=triangles, jdd=joint_degree_distribution(graph)
    )


def dk_distribution(graph: SimpleGraph, d: int):
    """Extract the dK-distribution of ``graph`` for ``d`` in ``{0, 1, 2, 3}``."""
    if d == 0:
        return average_degree(graph)
    if d == 1:
        return degree_distribution(graph)
    if d == 2:
        return joint_degree_distribution(graph)
    if d == 3:
        return three_k_distribution(graph)
    raise ValueError(f"dK-distribution extraction is implemented for d in 0..3, got {d}")


__all__ = [
    "average_degree",
    "degree_distribution",
    "joint_degree_distribution",
    "three_k_distribution",
    "dk_distribution",
]
