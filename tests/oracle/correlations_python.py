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


__all__ = ["edge_degree_moments", "second_order_total", "jdd_counts"]
