"""Tests of the pure-Python wedge/triangle counters keyed by degrees (the 3K oracle)."""

import networkx as nx
from oracle.networkx_bridge import to_networkx
from oracle.triangles_python import (
    iter_triangles,
    local_clustering,
    triangle_count,
    triangle_degree_counts,
    triangle_key,
    triangles_per_node,
    wedge_count,
    wedge_degree_counts,
    wedge_key,
)

from repro.graph.simple_graph import SimpleGraph


def test_wedge_key_canonicalizes_endpoints():
    assert wedge_key(5, 2, 7) == (2, 5, 7)
    assert wedge_key(5, 7, 2) == (2, 5, 7)


def test_triangle_key_sorted():
    assert triangle_key(3, 1, 2) == (1, 2, 3)


def test_triangle_graph(triangle_graph):
    assert triangle_count(triangle_graph) == 1
    assert wedge_count(triangle_graph) == 0
    assert list(iter_triangles(triangle_graph)) == [(0, 1, 2)]
    assert triangle_degree_counts(triangle_graph) == {(2, 2, 2): 1}
    assert wedge_degree_counts(triangle_graph) == {}


def test_path_graph(path_graph):
    # 0-1-2-3-4: three wedges centred at nodes 1, 2, 3
    assert triangle_count(path_graph) == 0
    assert wedge_count(path_graph) == 3
    wedges = wedge_degree_counts(path_graph)
    assert sum(wedges.values()) == 3
    # wedge centred at node 2 has two degree-2 endpoints
    assert wedges[(2, 2, 2)] == 1
    # wedges centred at 1 and 3 have one degree-1 and one degree-2 endpoint
    assert wedges[(1, 2, 2)] == 2


def test_star_graph(star_graph):
    # star with 5 leaves: C(5,2) = 10 wedges, no triangles
    assert wedge_count(star_graph) == 10
    assert triangle_count(star_graph) == 0
    wedges = wedge_degree_counts(star_graph)
    assert wedges == {(1, 5, 1): 10}


def test_square_with_diagonal(square_with_diagonal):
    # two triangles sharing edge (0, 2)
    assert triangle_count(square_with_diagonal) == 2
    counts = triangle_degree_counts(square_with_diagonal)
    assert sum(counts.values()) == 2
    assert counts[(2, 3, 3)] == 2
    # total neighbour pairs = sum C(k,2) = C(3,2)*2 + C(2,2)... degrees are [3,2,3,2]
    assert wedge_count(square_with_diagonal) == (3 + 1 + 3 + 1) - 3 * 2


def test_small_mixed_graph(small_mixed_graph):
    # triangle 0-1-2 with pendant node 3 on node 2
    assert triangle_count(small_mixed_graph) == 1
    wedges = wedge_degree_counts(small_mixed_graph)
    # wedges through node 2 that are open: (0,2-ish,3) and (1,.,3)
    assert sum(wedges.values()) == 2
    assert wedges[(1, 3, 2)] == 2


def test_triangle_count_matches_networkx(random_graph, as_small):
    for graph in (random_graph, as_small):
        expected = sum(nx.triangles(to_networkx(graph)).values()) // 3
        assert triangle_count(graph) == expected


def test_triangles_per_node_matches_networkx(random_graph):
    expected = nx.triangles(to_networkx(random_graph))
    ours = triangles_per_node(random_graph)
    for node in random_graph.nodes():
        assert ours[node] == expected[node]


def test_wedge_count_consistency(as_small):
    # open wedges + 3 * triangles = total neighbour pairs
    pairs = sum(k * (k - 1) // 2 for k in as_small.degrees())
    assert wedge_count(as_small) + 3 * triangle_count(as_small) == pairs
    assert sum(wedge_degree_counts(as_small).values()) == wedge_count(as_small)


def test_wedge_degree_counts_total_matches_simple_enumeration(random_graph):
    # brute-force enumeration of open wedges keyed by degrees
    from collections import Counter

    degrees = random_graph.degrees()
    brute = Counter()
    for v in random_graph.nodes():
        neighbours = sorted(random_graph.neighbors(v))
        for i, a in enumerate(neighbours):
            for b in neighbours[i + 1:]:
                if not random_graph.has_edge(a, b):
                    brute[wedge_key(degrees[v], degrees[a], degrees[b])] += 1
    assert wedge_degree_counts(random_graph) == brute


def test_local_clustering(triangle_graph, star_graph):
    assert local_clustering(triangle_graph, 0) == 1.0
    assert local_clustering(star_graph, 0) == 0.0
    assert local_clustering(star_graph, 1) == 0.0  # degree-1 node


def test_no_triangles_in_trees():
    tree = SimpleGraph(7, edges=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert triangle_count(tree) == 0
    assert triangle_degree_counts(tree) == {}
