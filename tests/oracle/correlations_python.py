"""Pure-Python correlation kernels: integer aggregates over edges and wedges.

These are the reference implementations of the degree-correlation kernels.
They return *integer* aggregates (sums of degree products, JDD counts); the
floating-point metric formulas live in :mod:`repro.metrics.assortativity`,
so these aggregates and the csr ones yield bit-identical metric values.
"""

from __future__ import annotations

from collections import Counter

from repro.graph.simple_graph import SimpleGraph


def edge_degree_moments(graph: SimpleGraph) -> tuple[int, int, int]:
    """``(Σ k_u·k_v, Σ (k_u+k_v), Σ (k_u²+k_v²))`` over the edges."""
    degrees = graph.degrees()
    sum_prod = 0
    sum_ends = 0
    sum_ends_sq = 0
    for u, v in graph.edges():
        ku, kv = degrees[u], degrees[v]
        sum_prod += ku * kv
        sum_ends += ku + kv
        sum_ends_sq += ku * ku + kv * kv
    return sum_prod, sum_ends, sum_ends_sq


def assortativity_from_likelihood(graph: SimpleGraph) -> float:
    """Newman's ``r`` through its linear relation with the likelihood ``S``.

    ``r = (S/m - k̄_e²) / (k²̄_e - k̄_e²)`` where the ``e`` subscripts denote
    moments of the edge-end degree distribution: a second formula for ``r``,
    against the library's Pearson form over the edge-degree moments.
    """
    m = graph.number_of_edges
    if m == 0:
        return 0.0
    degrees = graph.degrees()
    likelihood = 0
    end_sum = 0.0
    end_sq_sum = 0.0
    for u, v in graph.edges():
        likelihood += degrees[u] * degrees[v]
        end_sum += 0.5 * (degrees[u] + degrees[v])
        end_sq_sum += 0.5 * (degrees[u] ** 2 + degrees[v] ** 2)
    mean_end = end_sum / m
    variance = end_sq_sum / m - mean_end**2
    if variance == 0:
        return 0.0
    return (likelihood / m - mean_end**2) / variance


def second_order_total(graph: SimpleGraph) -> int:
    """``Σ_v [(Σ_{u∈N(v)} k_u)² − Σ_{u∈N(v)} k_u²]`` — twice the S2 sum."""
    degrees = graph.degrees()
    total = 0
    for v in graph.nodes():
        neighbours = graph.neighbors(v)
        if len(neighbours) < 2:
            continue
        degree_sum = 0
        degree_sq_sum = 0
        for u in neighbours:
            ku = degrees[u]
            degree_sum += ku
            degree_sq_sum += ku * ku
        total += degree_sum * degree_sum - degree_sq_sum
    return total


def jdd_counts(graph: SimpleGraph) -> tuple[dict[tuple[int, int], int], int]:
    """JDD edge counts keyed by sorted degree pair, plus zero-degree nodes."""
    degrees = graph.degrees()
    counter: Counter = Counter()
    for u, v in graph.edges():
        k1, k2 = degrees[u], degrees[v]
        key = (k1, k2) if k1 <= k2 else (k2, k1)
        counter[key] += 1
    zero_degree = sum(1 for k in degrees if k == 0)
    return dict(counter), zero_degree


__all__ = [
    "assortativity_from_likelihood",
    "edge_degree_moments",
    "second_order_total",
    "jdd_counts",
]
