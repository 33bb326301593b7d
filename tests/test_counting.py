"""Tests for counting possible initial dK-preserving rewirings (Table 5)."""

import pytest

from repro.core.extraction import dk_distribution
from repro.generators.rewiring import counting
from repro.generators.rewiring.counting import (
    RewiringCounts,
    count_0k_rewirings,
    count_dk_rewirings,
    rewiring_count_table,
)
from repro.graph.simple_graph import SimpleGraph
from repro.kernels import rewiring as engine
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.hot import synthetic_hot_topology


def test_count_0k_formula(square_with_diagonal):
    # m * (C(n,2) - m) = 5 * (6 - 5)
    assert count_0k_rewirings(square_with_diagonal) == 5


def test_count_0k_complete_graph_has_no_moves(triangle_graph):
    assert count_0k_rewirings(triangle_graph) == 0


def test_counts_decrease_with_d(hot_small):
    table = rewiring_count_table(hot_small, ds=(0, 1, 2, 3))
    totals = [table[d].total for d in (0, 1, 2, 3)]
    # the dK spaces shrink (weakly) as d grows -- Table 5's qualitative shape
    assert totals[0] > totals[1] >= totals[2] >= totals[3]
    # the isomorphism filter can only reduce the counts
    for d in (1, 2, 3):
        assert table[d].non_isomorphic <= table[d].total


def test_count_1k_path():
    # path 0-1-2-3: edge pairs and pairings that produce no loops/multi-edges
    path = SimpleGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
    counts = count_dk_rewirings(path, 1)
    # only the pair {(0,1), (2,3)} can be rewired, and only via the pairing
    # (0,2)+(1,3); the other pairing would recreate the existing edge (1,2)
    assert counts.total == 1
    # that swap exchanges the two degree-1 path ends, so it leads to an
    # isomorphic graph and is filtered by the non-isomorphic count
    assert counts.non_isomorphic == 0


def test_count_2k_requires_matching_degrees():
    # star + isolated edge: no degree-preserving swap can keep the JDD intact
    # while changing the graph, except swaps of the two leaf-classes
    graph = SimpleGraph(6, edges=[(0, 1), (0, 2), (0, 3), (4, 5)])
    counts_1k = count_dk_rewirings(graph, 1)
    counts_2k = count_dk_rewirings(graph, 2)
    assert counts_2k.total <= counts_1k.total


def test_count_3k_subset_of_2k(square_with_diagonal, hot_small):
    for graph in (square_with_diagonal, hot_small):
        c2 = count_dk_rewirings(graph, 2)
        c3 = count_dk_rewirings(graph, 3)
        assert c3.total <= c2.total


def test_count_invalid_d(triangle_graph):
    with pytest.raises(ValueError):
        count_dk_rewirings(triangle_graph, 5)


def test_counting_does_not_mutate_graph(hot_small):
    before = sorted(hot_small.edges())
    count_dk_rewirings(hot_small, 3)
    assert sorted(hot_small.edges()) == before


# --------------------------------------------------------------------------- #
# an independent oracle: apply every pairing to a copy and re-extract P_k
# --------------------------------------------------------------------------- #
def _oracle_counts(graph):
    """Table-5 counts for d = 1..3 by brute force: every unordered edge pair
    with both endpoint pairings, applied to a copy of ``graph`` and kept for
    level ``d`` when ``dk_distribution(copy, k) == dk_distribution(graph, k)``
    for every ``k <= d``.  A move is obviously isomorphic when the two
    exchanged endpoints (on either side) are both degree-1 leaves."""
    degrees = graph.degrees()
    reference = {k: dk_distribution(graph, k) for k in (1, 2, 3)}
    edges = graph.edge_list()
    totals = {d: 0 for d in (1, 2, 3)}
    non_isomorphic = {d: 0 for d in (1, 2, 3)}
    for x, (a, b) in enumerate(edges):
        for c, d_node in edges[x + 1 :]:
            for p, q, r, s in ((a, b, c, d_node), (a, b, d_node, c)):
                # (p,q),(r,s) -> (p,s),(r,q)
                if p == s or r == q or graph.has_edge(p, s) or graph.has_edge(r, q):
                    continue
                rewired = graph.copy()
                rewired.remove_edge(p, q)
                rewired.remove_edge(r, s)
                rewired.add_edge(p, s)
                rewired.add_edge(r, q)
                leaves = (degrees[q] == 1 and degrees[s] == 1) or (
                    degrees[p] == 1 and degrees[r] == 1
                )
                for level in (1, 2, 3):
                    if dk_distribution(rewired, level) != reference[level]:
                        break
                    totals[level] += 1
                    non_isomorphic[level] += not leaves
    return {d: RewiringCounts(totals[d], non_isomorphic[d]) for d in (1, 2, 3)}


def _oracle_graphs():
    ring = SimpleGraph(12, edges=[(i, (i + 1) % 12) for i in range(12)])
    star = SimpleGraph(9, edges=[(0, i) for i in range(1, 9)])
    # a triangle, a star and isolated nodes in one graph
    mixed = SimpleGraph(
        14, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6), (3, 7), (7, 8)]
    )
    return [
        synthetic_as_topology(30, rng=1),
        synthetic_as_topology(40, rng=2),
        synthetic_hot_topology(40, core_size=4, hosts_range=(2, 6), rng=3),
        synthetic_hot_topology(36, core_size=3, hosts_range=(2, 8), rng=4),
        ring,
        star,
        mixed,
    ]


@pytest.fixture(scope="module")
def oracle_cases():
    return [(graph, _oracle_counts(graph)) for graph in _oracle_graphs()]


def test_counts_match_brute_force_oracle(oracle_cases):
    """The engine-based counter equals the apply-and-re-extract oracle."""
    for graph, expected in oracle_cases:
        assert rewiring_count_table(graph, ds=(1, 2, 3)) == expected, graph


def test_scalar_three_k_verdict_matches_oracle(oracle_cases, monkeypatch):
    """Beyond BITSET_MAX_NODES the d = 3 verdict runs on sorted arc keys
    instead of the bitset; it must count exactly what the oracle counts."""
    monkeypatch.setattr(engine, "BITSET_MAX_NODES", 0)
    for graph, expected in oracle_cases:
        assert count_dk_rewirings(graph, 3) == expected[3], graph


def test_counts_in_chunks_match_one_pass(hot_small, monkeypatch):
    """Splitting the end-pair enumeration into tiny chunks changes nothing."""
    expected = rewiring_count_table(hot_small, ds=(1, 2, 3))
    monkeypatch.setattr(counting, "PAIR_CHUNK", 7)
    assert rewiring_count_table(hot_small, ds=(1, 2, 3)) == expected


def test_table5_counts_on_paper_scale_hot():
    """Table 5 on the 939-node HOT graph of the benchmarks, pinned exactly."""
    graph = synthetic_hot_topology(939, rng=20060911)
    table = rewiring_count_table(graph, ds=(1, 2, 3))
    assert table == {
        1: RewiringCounts(total=999_997, non_isomorphic=680_323),
        2: RewiringCounts(total=332_616, non_isomorphic=12_942),
        3: RewiringCounts(total=320_141, non_isomorphic=467),
    }
