"""Degree-correlation scalar metrics: assortativity r, likelihood S, S_max, S2.

The likelihood ``S`` (Li et al.) is the sum of degree products over edges; it
is linearly related to the assortativity coefficient ``r`` (Newman).  The
second-order likelihood ``S2`` extends the notion to nodes at distance two
(the ends of wedges) and is a natural scalar summary of the wedge component
of the 3K-distribution.
"""

from __future__ import annotations


from repro.graph.simple_graph import SimpleGraph
from repro.graph.subgraphs import iter_triangles
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


def s_max_upper_bound(graph: SimpleGraph) -> float:
    """Upper bound on ``S`` over graphs with the same degree sequence.

    Obtained by greedily pairing the largest edge-end degrees with each
    other (the rearrangement inequality); the true ``s_max`` graph of Li et
    al. also satisfies simple-graph constraints, so this bound is reached or
    slightly over-estimated.  Used to report the normalized likelihood
    ``S/S_max`` as in the paper's Table 7.
    """
    ends: list[int] = []
    degrees = graph.degrees()
    for u, v in graph.edges():
        ends.append(degrees[u])
        ends.append(degrees[v])
    ends.sort(reverse=True)
    total = 0.0
    for i in range(0, len(ends) - 1, 2):
        total += ends[i] * ends[i + 1]
    return total


def normalized_likelihood(graph: SimpleGraph) -> float:
    """``S / S_max`` using the greedy upper bound for ``S_max``."""
    bound = s_max_upper_bound(graph)
    if bound == 0:
        return 0.0
    return likelihood(graph) / bound


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


def second_order_likelihood_open(graph: SimpleGraph) -> float:
    """``S2`` restricted to *open* wedges (triangle pairs excluded)."""
    degrees = graph.degrees()
    total = second_order_likelihood(graph)
    for a, b, c in iter_triangles(graph):
        ka, kb, kc = degrees[a], degrees[b], degrees[c]
        total -= ka * kb + ka * kc + kb * kc
    return total


def average_neighbor_degree(graph: SimpleGraph) -> dict[int, float]:
    """``k_nn(k)``: mean degree of the neighbours of k-degree nodes."""
    degrees = graph.degrees()
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for v in graph.nodes():
        k = degrees[v]
        if k == 0:
            continue
        mean_neighbor = sum(degrees[u] for u in graph.neighbors(v)) / k
        sums[k] = sums.get(k, 0.0) + mean_neighbor
        counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def assortativity_from_likelihood(graph: SimpleGraph) -> float:
    """Assortativity recomputed through the linear relation with ``S``.

    ``r = (S/m - k̄_e²) / (k²̄_e - k̄_e²)`` where the ``e`` subscripts denote
    moments of the edge-end degree distribution.  Provided as a cross-check
    of the direct Pearson computation (the paper notes the two are linearly
    related).
    """
    m = graph.number_of_edges
    if m == 0:
        return 0.0
    degrees = graph.degrees()
    end_sum = 0.0
    end_sq_sum = 0.0
    for u, v in graph.edges():
        end_sum += 0.5 * (degrees[u] + degrees[v])
        end_sq_sum += 0.5 * (degrees[u] ** 2 + degrees[v] ** 2)
    mean_end = end_sum / m
    variance = end_sq_sum / m - mean_end**2
    if variance == 0:
        return 0.0
    return (likelihood(graph) / m - mean_end**2) / variance


__all__ = [
    "likelihood_from_moments",
    "assortativity_from_moments",
    "second_order_from_total",
    "likelihood",
    "s_max_upper_bound",
    "normalized_likelihood",
    "assortativity",
    "assortativity_from_likelihood",
    "second_order_likelihood",
    "second_order_likelihood_open",
    "average_neighbor_degree",
]
