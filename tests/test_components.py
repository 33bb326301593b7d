"""Tests for connected-component utilities."""

import networkx as nx
import numpy as np
import pytest
from oracle.networkx_bridge import to_networkx

from repro.core.distributions import DegreeDistribution
from repro.generators.pseudograph import pseudograph_1k
from repro.graph.components import connected_components, giant_component
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.topologies import build_topology


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


def test_giant_component_extraction(disconnected_graph):
    gcc = giant_component(disconnected_graph)
    assert gcc.number_of_nodes == 3
    assert gcc.number_of_edges == 3


def test_giant_component_matches_networkx(random_graph):
    gcc = giant_component(random_graph)
    nx_gcc_nodes = max(nx.connected_components(to_networkx(random_graph)), key=len)
    assert gcc.number_of_nodes == len(nx_gcc_nodes)


def test_empty_graph_is_not_connected():
    assert _component_count(SimpleGraph()) == 0


def test_isolated_nodes_are_components():
    graph = SimpleGraph(4)
    assert _component_count(graph) == 4
    assert giant_component(graph).number_of_nodes == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_topology("hot_small"),
        lambda: pseudograph_1k(DegreeDistribution({1: 60, 2: 30, 3: 10}), rng=3),
    ],
    ids=["hot_small", "pseudograph"],
)
def test_biggraph_twin_has_the_same_components(build):
    graph = build()
    twin = BigGraph.from_simple_graph(graph)
    components = list(connected_components(graph))
    assert list(connected_components(twin)) == components
    gcc = giant_component(twin)
    expected = BigGraph.from_simple_graph(giant_component(graph))
    assert isinstance(gcc, BigGraph)
    assert np.array_equal(gcc.indptr, expected.indptr)
    assert gcc.indices.dtype == expected.indices.dtype
    assert np.array_equal(gcc.indices, expected.indices)
    assert gcc.n == max(len(component) for component in components)
