"""Pure-Python size-3 subgraph counters: the oracle of the csr 3K kernels.

The 3K-distribution of the paper consists of two components:

* wedges  -- chains of 3 nodes connected by exactly 2 edges, keyed by the
  degrees ``(k1, k2, k3)`` where ``k2`` is the centre and the endpoints are
  interchangeable (``P∧(k1,k2,k3) == P∧(k3,k2,k1)``);
* triangles -- cliques of 3 nodes, keyed by the sorted degree triple.

These are the plain loops over SimpleGraph adjacency sets that
:func:`repro.kernels.biggraph.threek_counts` and
:func:`repro.kernels.biggraph.triangles_per_node` must reproduce exactly:
the set-intersection edge iterator for triangles, and per-centre
neighbour-degree histograms minus the pairs closed by triangles for wedges.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping

from repro.core.distributions import TriangleKey, WedgeKey
from repro.graph.simple_graph import SimpleGraph


def wedge_key(center_degree: int, end_degree_a: int, end_degree_b: int) -> WedgeKey:
    """Canonical key of a wedge: ``(min end, centre, max end)`` degrees."""
    if end_degree_a <= end_degree_b:
        return (end_degree_a, center_degree, end_degree_b)
    return (end_degree_b, center_degree, end_degree_a)


def triangle_key(k1: int, k2: int, k3: int) -> TriangleKey:
    """Canonical key of a triangle: sorted degree triple."""
    return tuple(sorted((k1, k2, k3)))  # type: ignore[return-value]


def canonical_wedge_counts(raw: Mapping[WedgeKey, int]) -> Counter:
    """Re-canonicalize an arbitrary wedge-count mapping."""
    counts: Counter = Counter()
    for (a, c, b), value in raw.items():
        counts[wedge_key(c, a, b)] += value
    return counts


def canonical_triangle_counts(raw: Mapping[TriangleKey, int]) -> Counter:
    """Re-canonicalize an arbitrary triangle-count mapping."""
    counts: Counter = Counter()
    for key, value in raw.items():
        counts[triangle_key(*key)] += value
    return counts


def iter_triangles(graph: SimpleGraph) -> Iterator[tuple[int, int, int]]:
    """Yield every triangle exactly once as ``(a, b, c)`` with ``a < b < c``.

    For every edge ``(u, v)`` with ``u < v`` the common neighbours ``w`` with
    ``w > v`` are reported; each triangle has exactly one edge for which the
    third node carries the largest id, so each triangle is produced once.
    """
    for u, v in graph.edges():
        nu = graph.neighbors(u)
        nv = graph.neighbors(v)
        # iterate over the smaller adjacency set
        if len(nu) > len(nv):
            nu, nv = nv, nu
        for w in nu:
            if w > v and w in nv:
                yield (u, v, w)


def triangle_count(graph: SimpleGraph) -> int:
    """Total number of triangles in the graph."""
    return sum(1 for _ in iter_triangles(graph))


def triangles_per_node(graph: SimpleGraph) -> list[int]:
    """Number of triangles each node participates in, indexed by node id."""
    counts = [0] * graph.number_of_nodes
    for a, b, c in iter_triangles(graph):
        counts[a] += 1
        counts[b] += 1
        counts[c] += 1
    return counts


def triangle_degree_counts(graph: SimpleGraph) -> Counter:
    """Counter of triangles keyed by their sorted degree triple."""
    degrees = graph.degrees()
    counts: Counter = Counter()
    for a, b, c in iter_triangles(graph):
        counts[triangle_key(degrees[a], degrees[b], degrees[c])] += 1
    return counts


def wedge_count(graph: SimpleGraph) -> int:
    """Total number of open wedges (paths of length 2 whose ends are not adjacent)."""
    total_pairs = sum(k * (k - 1) // 2 for k in graph.degrees())
    return total_pairs - 3 * triangle_count(graph)


def wedge_degree_counts(graph: SimpleGraph) -> Counter:
    """Counter of open wedges keyed by ``(min end, centre, max end)`` degrees.

    Computed as (all neighbour pairs around each centre, keyed by degree)
    minus (closed pairs contributed by triangles), so hubs do not force a
    quadratic enumeration of individual wedges beyond their distinct
    neighbour degrees.
    """
    degrees = graph.degrees()
    counts: Counter = Counter()
    for v in graph.nodes():
        kv = degrees[v]
        if kv < 2:
            continue
        neigh_deg = Counter(degrees[u] for u in graph.neighbors(v))
        deg_values = sorted(neigh_deg)
        for i, ka in enumerate(deg_values):
            ca = neigh_deg[ka]
            # same-degree endpoint pairs
            if ca >= 2:
                counts[wedge_key(kv, ka, ka)] += ca * (ca - 1) // 2
            for kb in deg_values[i + 1:]:
                counts[wedge_key(kv, ka, kb)] += ca * neigh_deg[kb]
    # subtract the closed pairs: each triangle closes one neighbour pair at
    # each of its three corners.
    for a, b, c in iter_triangles(graph):
        ka, kb, kc = degrees[a], degrees[b], degrees[c]
        counts[wedge_key(ka, kb, kc)] -= 1  # centre a, ends b,c
        counts[wedge_key(kb, ka, kc)] -= 1  # centre b, ends a,c
        counts[wedge_key(kc, ka, kb)] -= 1  # centre c, ends a,b
    # drop entries whose open-wedge count cancelled to zero
    return Counter({key: value for key, value in counts.items() if value > 0})


def threek_counts(graph: SimpleGraph) -> tuple[dict, dict]:
    """``(wedges, triangles)`` degree-keyed counts, as the csr 3K counter returns."""
    return dict(wedge_degree_counts(graph)), dict(triangle_degree_counts(graph))


def local_clustering(graph: SimpleGraph, node: int) -> float:
    """Local clustering coefficient of ``node`` (0 for degree < 2)."""
    k = graph.degree(node)
    if k < 2:
        return 0.0
    neigh = list(graph.neighbors(node))
    links = 0
    for i, u in enumerate(neigh):
        nu = graph.neighbors(u)
        for w in neigh[i + 1:]:
            if w in nu:
                links += 1
    return 2.0 * links / (k * (k - 1))


__all__ = [
    "canonical_triangle_counts",
    "canonical_wedge_counts",
    "iter_triangles",
    "local_clustering",
    "threek_counts",
    "triangle_count",
    "triangle_degree_counts",
    "triangle_key",
    "triangles_per_node",
    "wedge_count",
    "wedge_degree_counts",
    "wedge_key",
]
