"""Degree-correlation scalar metrics: assortativity r, likelihood S, S2.

The likelihood ``S`` (Li et al.) is the sum of degree products over edges; it
is linearly related to the assortativity coefficient ``r`` (Newman).  The
second-order likelihood ``S2`` extends the notion to nodes at distance two
(the ends of wedges) and is a natural scalar summary of the wedge component
of the 3K-distribution.
"""

from __future__ import annotations

from repro.graph.simple_graph import SimpleGraph
from repro.measure.intermediates import shared_edge_moments, shared_second_order


def likelihood_from_moments(moments: tuple[int, int, int]) -> float:
    """``S`` from the edge-degree-moment triple (shared formula layer)."""
    return float(moments[0])


def assortativity_from_moments(m: int, moments: tuple[int, int, int]) -> float:
    """Newman's ``r`` from the edge-degree moments (shared formula layer).

    The integer edge-degree sums come from the moments kernel; the
    intermediate half-sums are halves of integers, exact in binary floats.
    """
    if m == 0:
        return 0.0
    sum_prod, sum_ends, sum_ends_sq = moments
    sum_half = 0.5 * sum_ends
    sum_half_sq = 0.5 * sum_ends_sq
    mean_half = sum_half / m
    numerator = sum_prod / m - mean_half**2
    denominator = sum_half_sq / m - mean_half**2
    if denominator == 0:
        return 0.0
    return numerator / denominator


def second_order_from_total(total: int) -> float:
    """``S2`` from the ordered-wedge total (shared formula layer)."""
    return 0.5 * total


def likelihood(graph: SimpleGraph) -> float:
    """``S = Σ_{(u,v) in E} k_u k_v``."""
    return likelihood_from_moments(shared_edge_moments(graph))


def assortativity(graph: SimpleGraph) -> float:
    """Newman's assortativity coefficient ``r`` (Pearson correlation of
    degrees at the two ends of a randomly chosen edge)."""
    m = graph.number_of_edges
    if m == 0:
        return 0.0
    return assortativity_from_moments(m, shared_edge_moments(graph))


def second_order_likelihood(graph: SimpleGraph) -> float:
    """``S2``: sum of degree products over the ends of all paths of length 2.

    Every pair of distinct neighbours of a centre node contributes the
    product of the two end degrees, whether or not the pair is closed into a
    triangle (closed wedges are still distance-2 correlations in the sense of
    the paper's extreme metrics).  The kernel returns the integer sum over
    *ordered* pairs; halving it here gives the unordered-pair value.
    """
    return second_order_from_total(shared_second_order(graph))


__all__ = [
    "likelihood_from_moments",
    "assortativity_from_moments",
    "second_order_from_total",
    "likelihood",
    "assortativity",
    "second_order_likelihood",
]
