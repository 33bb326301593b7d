"""Tests for the adjacency matrix and the tests' networkx conversion."""

import numpy as np
from oracle.networkx_bridge import to_networkx

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph, adjacency_matrix


def test_to_networkx_preserves_structure(square_with_diagonal):
    g = to_networkx(square_with_diagonal)
    assert g.number_of_nodes() == 4
    assert g.number_of_edges() == 5
    assert set(g.edges()) == set(square_with_diagonal.edges())


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


def test_adjacency_matrix_same_for_biggraph_twin(random_graph):
    expected = adjacency_matrix(random_graph)
    twin = adjacency_matrix(BigGraph.from_simple_graph(random_graph))
    assert twin.dtype == expected.dtype == np.float64
    assert (twin != expected).nnz == 0
