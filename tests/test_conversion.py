"""Tests for the adjacency matrix and the tests' networkx conversions."""

import networkx as nx
import numpy as np
from oracle.networkx_bridge import from_networkx, to_adjacency_lists, to_networkx

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph, adjacency_matrix


def test_to_networkx_preserves_structure(square_with_diagonal):
    g = to_networkx(square_with_diagonal)
    assert g.number_of_nodes() == 4
    assert g.number_of_edges() == 5
    assert set(g.edges()) == set(square_with_diagonal.edges())


def test_from_networkx_relabels_arbitrary_labels():
    g = nx.Graph()
    g.add_edges_from([("as701", "as1239"), ("as1239", "as3356")])
    graph, mapping = from_networkx(g)
    assert graph.number_of_nodes == 3
    assert graph.number_of_edges == 2
    assert set(mapping) == {"as701", "as1239", "as3356"}


def test_from_networkx_drops_self_loops():
    g = nx.Graph()
    g.add_edge(1, 1)
    g.add_edge(1, 2)
    graph, _ = from_networkx(g)
    assert graph.number_of_edges == 1


def test_roundtrip(random_graph):
    back, mapping = from_networkx(to_networkx(random_graph))
    assert back.number_of_nodes == random_graph.number_of_nodes
    assert back.number_of_edges == random_graph.number_of_edges
    # identity relabelling expected for integer-labelled graphs
    assert all(mapping[node] == node for node in random_graph.nodes())


def test_adjacency_matrix(triangle_graph):
    matrix = adjacency_matrix(triangle_graph).toarray()
    expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    assert np.array_equal(matrix, expected)


def test_adjacency_matrix_empty_graph():
    matrix = adjacency_matrix(SimpleGraph(3))
    assert matrix.shape == (3, 3)
    assert matrix.nnz == 0


def test_adjacency_matrix_degrees_match(random_graph):
    matrix = adjacency_matrix(random_graph)
    degrees = np.asarray(matrix.sum(axis=1)).flatten()
    assert list(degrees.astype(int)) == random_graph.degrees()


def test_to_adjacency_lists(star_graph):
    lists = to_adjacency_lists(star_graph)
    assert lists[0] == [1, 2, 3, 4, 5]
    assert all(lists[i] == [0] for i in range(1, 6))


def test_adjacency_matrix_same_for_biggraph_twin(random_graph):
    expected = adjacency_matrix(random_graph)
    twin = adjacency_matrix(BigGraph.from_simple_graph(random_graph))
    assert twin.dtype == expected.dtype == np.float64
    assert (twin != expected).nnz == 0
