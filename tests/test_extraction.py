"""Tests for dK-distribution extraction from graphs."""

import pytest

from repro.core.extraction import (
    average_degree,
    degree_distribution,
    dk_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.graph.simple_graph import SimpleGraph


def test_average_degree(square_with_diagonal):
    zero_k = average_degree(square_with_diagonal)
    assert zero_k.nodes == 4
    assert zero_k.edges == 5
    assert zero_k.average_degree == pytest.approx(2.5)


def test_degree_distribution(star_graph):
    one_k = degree_distribution(star_graph)
    assert one_k.counts == {5: 1, 1: 5}
    assert one_k.nodes == 6
    assert one_k.edges == 5


def test_degree_distribution_includes_isolated_nodes():
    graph = SimpleGraph(4, edges=[(0, 1)])
    one_k = degree_distribution(graph)
    assert one_k.counts == {1: 2, 0: 2}


def test_joint_degree_distribution_star(star_graph):
    jdd = joint_degree_distribution(star_graph)
    assert jdd.counts == {(1, 5): 5}
    assert jdd.nodes == 6


def test_joint_degree_distribution_records_zero_degree_nodes():
    graph = SimpleGraph(4, edges=[(0, 1)])
    jdd = joint_degree_distribution(graph)
    assert jdd.zero_degree_nodes == 2
    assert jdd.nodes == 4


def test_three_k_distribution_square(square_with_diagonal):
    three_k = three_k_distribution(square_with_diagonal)
    assert three_k.triangles == {(2, 3, 3): 2}
    # the only open wedges are the two degree-2 endpoints around each
    # degree-3 centre (pairs not closed by the diagonal)
    assert three_k.wedges == {(2, 3, 2): 2}


def test_three_k_carries_consistent_jdd(square_with_diagonal):
    three_k = three_k_distribution(square_with_diagonal)
    assert three_k.jdd == joint_degree_distribution(square_with_diagonal)


def test_dk_distribution_dispatch(small_mixed_graph):
    assert dk_distribution(small_mixed_graph, 0).edges == 4
    assert dk_distribution(small_mixed_graph, 1).counts == {1: 1, 2: 2, 3: 1}
    assert dk_distribution(small_mixed_graph, 2).edges == 4
    assert dk_distribution(small_mixed_graph, 3).triangle_total == 1


def test_dk_distribution_invalid_d(small_mixed_graph):
    with pytest.raises(ValueError):
        dk_distribution(small_mixed_graph, 4)


def test_inclusion_chain_on_real_topology(as_small):
    """3K projects to 2K projects to 1K projects to 0K (inclusion property)."""
    three_k = three_k_distribution(as_small)
    two_k = joint_degree_distribution(as_small)
    one_k = degree_distribution(as_small)
    zero_k = average_degree(as_small)
    assert three_k.to_lower() == two_k
    assert two_k.to_lower() == one_k
    projected = one_k.to_lower()
    assert projected.nodes == zero_k.nodes
    assert projected.edges == zero_k.edges


def test_extraction_counts_match_graph_totals(hot_small):
    jdd = joint_degree_distribution(hot_small)
    assert jdd.edges == hot_small.number_of_edges
    assert jdd.nodes == hot_small.number_of_nodes
    one_k = degree_distribution(hot_small)
    assert one_k.nodes == hot_small.number_of_nodes
    assert one_k.edges == hot_small.number_of_edges


@pytest.mark.parametrize("chunk", [None, 2])
def test_jdd_keys_follow_edge_list_order(monkeypatch, chunk):
    # the JDD-input generators (pseudograph, matching, rescaling) read the
    # degree pairs in order, so the order is part of their seeded output:
    # pairs are listed by first occurrence along graph.edges()
    from repro.kernels import biggraph

    if chunk is not None:
        monkeypatch.setattr(biggraph, "ARC_CHUNK", chunk)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5), (5, 6)]
    forward = joint_degree_distribution(SimpleGraph(7, edges=edges))
    backward = joint_degree_distribution(SimpleGraph(7, edges=edges[::-1]))
    big = joint_degree_distribution(
        biggraph.BigGraph.from_simple_graph(SimpleGraph(7, edges=edges[::-1]))
    )
    assert forward == backward == big
    assert list(forward.counts) == [(2, 3), (3, 3), (1, 2)]
    assert list(backward.counts) == [(1, 2), (3, 3), (2, 3)]
    # a BigGraph lists its canonical edges ascending
    assert list(big.counts) == [(2, 3), (3, 3), (1, 2)]
