"""Counting possible initial dK-preserving rewirings (Table 5 of the paper).

The number of dK-preserving rewirings applicable to a given graph is a
useful preliminary indicator of the size of the dK-graph space: it collapses
by orders of magnitude as ``d`` grows.  The paper also discards rewirings
that obviously lead to isomorphic graphs (exchanging two degree-1 leaves).

Conventions (documented because the paper does not spell out its own):

* ``d = 0``: one move = (an existing edge, a currently non-adjacent node
  pair to re-attach it to); the count is ``m * (C(n,2) - m)``.
* ``d >= 1``: one move = an unordered pair of distinct edges together with
  one of the two possible endpoint pairings, valid when it creates neither
  self-loops nor parallel edges; for ``d = 2`` the pairing must additionally
  preserve the joint degree distribution, for ``d = 3`` also the wedge and
  triangle distributions.

For ``d >= 2`` the candidates are enumerated through the same
degree-bucketed oriented edge-end index the rewiring engine proposes 2K
moves from (:meth:`EdgeEndIndex.degree_buckets`): a pairing changes the JDD
unless the exchanged heads — or equivalently the retained tails — carry
equal degrees, so only end pairs inside one degree bucket can qualify.  That
replaces the all-pairs ``O(m²)`` sweep with ``O(Σ_k B_k²)`` over the bucket
sizes ``B_k``, which collapses on graphs with diverse degrees.  ``d = 1``
keeps the pair enumeration: there every edge pair is a genuine candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extraction import joint_degree_distribution  # noqa: F401  (re-exported for callers)
from repro.generators.rewiring.swaps import (
    EdgeEndIndex,
    double_swap_is_valid,
    jdd_delta_of_double_swap,
    make_double_swap,
)
from repro.generators.threek import ThreeKTracker
from repro.graph.simple_graph import SimpleGraph, canonical_edge


@dataclass(frozen=True)
class RewiringCounts:
    """Number of possible initial dK-preserving rewirings."""

    total: int
    non_isomorphic: int


def count_0k_rewirings(graph: SimpleGraph) -> int:
    """``m * (C(n,2) - m)``: each edge can move to any non-adjacent pair."""
    n = graph.number_of_nodes
    m = graph.number_of_edges
    return m * (n * (n - 1) // 2 - m)


def _is_obviously_isomorphic(degrees: list[int], a: int, b: int, c: int, d: int) -> bool:
    """The paper's example of an isomorphism-preserving swap.

    Replacing ``(a,b), (c,d)`` by ``(a,d), (c,b)`` exchanges the endpoints
    ``b`` and ``d`` (equivalently ``a`` and ``c``).  When both exchanged
    endpoints are degree-1 leaves, the resulting graph is trivially isomorphic
    to the original one.
    """
    return (degrees[b] == 1 and degrees[d] == 1) or (degrees[a] == 1 and degrees[c] == 1)


def _count_by_pair_enumeration(graph: SimpleGraph, d: int) -> RewiringCounts:
    """All-pairs reference enumeration (O(m²) pairings), valid for d in 1..3."""
    degrees = graph.degrees()
    edges = graph.edge_list()
    tracker = ThreeKTracker(graph) if d == 3 else None
    working = graph if d < 3 else graph.copy()

    total = 0
    non_isomorphic = 0
    m = len(edges)
    for i in range(m):
        a, b = edges[i]
        for j in range(i + 1, m):
            c, d_node = edges[j]
            # the two possible endpoint pairings of the edge pair
            for (x1, y1, x2, y2) in ((a, b, c, d_node), (a, b, d_node, c)):
                if not double_swap_is_valid(working, x1, y1, x2, y2):
                    continue
                if d >= 2:
                    jdd_delta = jdd_delta_of_double_swap(degrees, x1, y1, x2, y2)
                    if jdd_delta:
                        continue
                if d == 3:
                    swap = make_double_swap(x1, y1, x2, y2)
                    delta = tracker.apply_edges(
                        working, list(swap.removals), list(swap.additions)
                    )
                    zero = delta.is_zero()
                    tracker.revert_edges(working, list(swap.removals), list(swap.additions))
                    if not zero:
                        continue
                total += 1
                if not _is_obviously_isomorphic(degrees, x1, y1, x2, y2):
                    non_isomorphic += 1
    return RewiringCounts(total=total, non_isomorphic=non_isomorphic)


def _count_by_degree_buckets(graph: SimpleGraph, d: int) -> RewiringCounts:
    """Degree-bucketed enumeration of the JDD-preserving pairings (d in 2..3).

    A pairing ``(a,b),(c,d) -> (a,d),(c,b)`` leaves the JDD unchanged iff
    ``deg(b) == deg(d)`` or ``deg(a) == deg(c)``, i.e. iff at least one of
    its two oriented representations — ``(a→b, c→d)`` exchanging the heads
    ``b, d``, or the reversed ``(b→a, d→c)`` exchanging ``a, c`` — pairs two
    edge ends from the *same* degree bucket.  Enumerating unordered end
    pairs inside each bucket therefore visits every JDD-preserving pairing
    once per qualifying representation; pairings whose both representations
    qualify (``deg(a) == deg(c)`` *and* ``deg(b) == deg(d)``) are visited
    twice, which the half-unit accounting divides back out.
    """
    index = EdgeEndIndex(graph)
    degrees = index.degrees
    tracker = ThreeKTracker(graph) if d == 3 else None
    working = graph if d < 3 else graph.copy()

    total_half_units = 0
    non_isomorphic_half_units = 0
    for bucket in index.degree_buckets().values():
        size = len(bucket)
        for i in range(size):
            a, b = bucket[i]
            edge_ab = canonical_edge(a, b)
            for j in range(i + 1, size):
                c, d_node = bucket[j]
                if canonical_edge(c, d_node) == edge_ab:
                    continue  # the two orientations of one edge
                if not double_swap_is_valid(working, a, b, c, d_node):
                    continue
                if d == 3:
                    swap = make_double_swap(a, b, c, d_node)
                    delta = tracker.apply_edges(
                        working, list(swap.removals), list(swap.additions)
                    )
                    zero = delta.is_zero()
                    tracker.revert_edges(working, list(swap.removals), list(swap.additions))
                    if not zero:
                        continue
                # 2 half-units when this bucket holds the pairing's only
                # qualifying representation, 1 when the reversed one (in the
                # tail-degree bucket) is enumerated as well
                weight = 1 if degrees[a] == degrees[c] else 2
                total_half_units += weight
                if not _is_obviously_isomorphic(degrees, a, b, c, d_node):
                    non_isomorphic_half_units += weight
    return RewiringCounts(
        total=total_half_units // 2,
        non_isomorphic=non_isomorphic_half_units // 2,
    )


def _bucket_sweep_is_cheaper(graph: SimpleGraph) -> bool:
    """Whether the degree-bucketed sweep beats the all-pairs enumeration.

    The bucket sweep visits ~``Σ_k B_k² / 2`` end pairs (``B_k = k·n_k``
    oriented ends carry head degree ``k``), the pair enumeration ``~m²``
    pairings.  On (near-)regular graphs every end lands in one bucket and
    the sweep would do ~4x the work, so fall back to the pair walk there.
    """
    m = graph.number_of_edges
    end_pairs = sum((k * count) ** 2 for k, count in graph.degree_histogram().items())
    return end_pairs < 2 * m * m


def count_dk_rewirings(graph: SimpleGraph, d: int) -> RewiringCounts:
    """Count the possible initial dK-preserving rewirings for ``d`` in 0..3.

    For ``d = 0`` a closed-form formula is used and the isomorphism filter is
    not applicable (the paper reports "-"); the ``non_isomorphic`` field then
    equals the total.  ``d = 1`` enumerates all edge pairs (each is a
    candidate), while ``d >= 2`` walks only the degree-compatible end pairs
    of a bucketed edge-end index like the rewiring engine's — unless the graph's
    degrees are so uniform that the buckets degenerate, where the pair
    enumeration is kept (both paths count identically).
    """
    if d == 0:
        total = count_0k_rewirings(graph)
        return RewiringCounts(total=total, non_isomorphic=total)
    if d not in (1, 2, 3):
        raise ValueError(f"d must be in 0..3, got {d}")
    if d == 1 or not _bucket_sweep_is_cheaper(graph):
        return _count_by_pair_enumeration(graph, d)
    return _count_by_degree_buckets(graph, d)


def rewiring_count_table(graph: SimpleGraph, ds: tuple[int, ...] = (0, 1, 2, 3)) -> dict[int, RewiringCounts]:
    """Compute the full Table-5-style count table for the requested levels."""
    return {d: count_dk_rewirings(graph, d) for d in ds}


__all__ = ["RewiringCounts", "count_0k_rewirings", "count_dk_rewirings", "rewiring_count_table"]
