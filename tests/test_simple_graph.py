"""Unit tests for the SimpleGraph substrate."""

import pytest

from repro.core.extraction import degree_distribution
from repro.exceptions import GraphError
from repro.graph.simple_graph import SimpleGraph, canonical_edge


class TestConstruction:
    def test_empty_graph(self):
        graph = SimpleGraph()
        assert graph.number_of_nodes == 0
        assert graph.number_of_edges == 0
        assert graph.average_degree() == 0.0

    def test_isolated_nodes(self):
        graph = SimpleGraph(5)
        assert graph.number_of_nodes == 5
        assert graph.degrees() == [0, 0, 0, 0, 0]

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            SimpleGraph(-1)

    def test_from_edges_grows_nodes(self):
        graph = SimpleGraph.from_edges([(0, 5), (2, 3)])
        assert graph.number_of_nodes == 6
        assert graph.number_of_edges == 2

    def test_constructor_with_edges(self):
        graph = SimpleGraph(4, edges=[(0, 1), (2, 3)])
        assert graph.number_of_edges == 2

    def test_add_nodes_returns_ids(self):
        graph = SimpleGraph(2)
        new_ids = graph.add_nodes(3)
        assert new_ids == [2, 3, 4]
        assert graph.number_of_nodes == 5

    def test_len_is_node_count(self):
        assert len(SimpleGraph(7)) == 7


class TestEdges:
    def test_add_edge(self):
        graph = SimpleGraph(3)
        assert graph.add_edge(0, 1) is True
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.number_of_edges == 1

    def test_add_duplicate_edge_returns_false(self):
        graph = SimpleGraph(3)
        graph.add_edge(0, 1)
        assert graph.add_edge(1, 0) is False
        assert graph.number_of_edges == 1

    def test_self_loop_rejected(self):
        graph = SimpleGraph(3)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_unknown_node_rejected(self):
        graph = SimpleGraph(3)
        with pytest.raises(GraphError):
            graph.add_edge(0, 7)

    def test_remove_edge(self):
        graph = SimpleGraph(3, edges=[(0, 1), (1, 2)])
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)
        assert graph.number_of_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = SimpleGraph(3)
        with pytest.raises(GraphError):
            graph.remove_edge(0, 1)

    def test_edges_are_canonical(self):
        graph = SimpleGraph(3, edges=[(2, 0)])
        assert list(graph.edges()) == [(0, 2)]

    def test_edge_at_covers_all_edges(self):
        graph = SimpleGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
        seen = {graph.edge_at(i) for i in range(graph.number_of_edges)}
        assert seen == {(0, 1), (1, 2), (2, 3)}

    def test_edge_list_is_a_copy(self):
        graph = SimpleGraph(3, edges=[(0, 1)])
        edges = graph.edge_list()
        edges.append((1, 2))
        assert graph.number_of_edges == 1

    def test_removal_keeps_edge_index_consistent(self):
        graph = SimpleGraph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        graph.remove_edge(0, 1)
        graph.remove_edge(2, 3)
        remaining = {graph.edge_at(i) for i in range(graph.number_of_edges)}
        assert remaining == {(1, 2), (3, 4)}

    def test_has_edge_out_of_range_is_false(self):
        graph = SimpleGraph(2, edges=[(0, 1)])
        assert graph.has_edge(5, 0) is False


class TestDegrees:
    def test_degrees(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degrees() == [3, 1, 1, 1]

    def test_average_degree(self):
        graph = SimpleGraph(4, edges=[(0, 1), (2, 3)])
        assert graph.average_degree() == pytest.approx(1.0)

    def test_degree_histogram(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2), (0, 3)])
        assert degree_distribution(graph).counts == {1: 3, 3: 1}

    def test_max_degree(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2)])
        assert graph.max_degree() == 2
        assert SimpleGraph().max_degree() == 0

    def test_neighbors(self):
        graph = SimpleGraph(4, edges=[(0, 1), (0, 2)])
        assert graph.neighbors(0) == {1, 2}


class TestCopiesAndEquality:
    def test_copy_is_independent(self):
        graph = SimpleGraph(3, edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.number_of_edges == 1
        assert clone.number_of_edges == 2

    def test_equality_ignores_edge_insertion_order(self):
        a = SimpleGraph(3, edges=[(0, 1), (1, 2)])
        b = SimpleGraph(3, edges=[(1, 2), (0, 1)])
        assert a == b

    def test_inequality_different_edges(self):
        a = SimpleGraph(3, edges=[(0, 1)])
        b = SimpleGraph(3, edges=[(1, 2)])
        assert a != b

    def test_subgraph(self):
        graph = SimpleGraph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = graph.subgraph([1, 2, 3])
        assert sub.number_of_nodes == 3
        assert sub.number_of_edges == 2
        assert mapping[1] == 0

    def test_repr_mentions_sizes(self):
        graph = SimpleGraph(3, edges=[(0, 1)])
        assert "n=3" in repr(graph)
        assert "m=1" in repr(graph)


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)
