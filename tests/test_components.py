"""Tests for connected-component utilities."""

import networkx as nx

from oracle.networkx_bridge import to_networkx

from repro.graph.components import (
    component_size_distribution,
    connected_components,
    giant_component,
    largest_component_nodes,
)
from repro.graph.simple_graph import SimpleGraph


def _component_count(graph):
    return len(list(connected_components(graph)))


def test_single_component(triangle_graph):
    assert list(connected_components(triangle_graph)) == [[0, 1, 2]]


def test_disconnected_counts(disconnected_graph):
    # triangle + edge + isolated node = 3 components
    assert _component_count(disconnected_graph) == 3


def test_components_partition_nodes(disconnected_graph):
    components = list(connected_components(disconnected_graph))
    all_nodes = sorted(node for component in components for node in component)
    assert all_nodes == list(range(disconnected_graph.number_of_nodes))


def test_largest_component_nodes(disconnected_graph):
    assert sorted(largest_component_nodes(disconnected_graph)) == [0, 1, 2]


def test_giant_component_extraction(disconnected_graph):
    gcc = giant_component(disconnected_graph)
    assert gcc.number_of_nodes == 3
    assert gcc.number_of_edges == 3


def test_giant_component_matches_networkx(random_graph):
    gcc = giant_component(random_graph)
    nx_gcc_nodes = max(nx.connected_components(to_networkx(random_graph)), key=len)
    assert gcc.number_of_nodes == len(nx_gcc_nodes)


def test_component_size_distribution(disconnected_graph):
    sizes = component_size_distribution(disconnected_graph)
    assert sizes == {3: 1, 2: 1, 1: 1}


def test_empty_graph_is_not_connected():
    assert _component_count(SimpleGraph()) == 0


def test_isolated_nodes_are_components():
    graph = SimpleGraph(4)
    assert _component_count(graph) == 4
    assert giant_component(graph).number_of_nodes == 1
