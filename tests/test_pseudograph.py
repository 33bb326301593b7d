"""Tests for the pseudograph (configuration-model) generators."""

import statistics

import pytest

from repro.core.distance import distance_1k, distance_2k
from repro.core.distributions import DegreeDistribution
from repro.core.extraction import degree_distribution, joint_degree_distribution
from repro.exceptions import GenerationError
from repro.generators.pseudograph import pseudograph_1k, pseudograph_2k
from repro.graph.components import connected_components, giant_component


def test_pseudograph_1k_close_to_target_degrees():
    one_k = DegreeDistribution({1: 100, 2: 60, 3: 20, 8: 5})
    graph = pseudograph_1k(one_k, rng=1)
    assert graph.number_of_nodes == one_k.nodes
    # loop/multi-edge removal loses only a small fraction of edges
    assert graph.number_of_edges >= 0.9 * one_k.edges
    assert distance_1k(one_k, degree_distribution(graph)) <= 4 * one_k.nodes


def test_pseudograph_1k_odd_stub_count_rejected():
    with pytest.raises(GenerationError):
        pseudograph_1k(DegreeDistribution({1: 3}), rng=1)


def test_pseudograph_1k_empty():
    graph = pseudograph_1k(DegreeDistribution({}), rng=1)
    assert graph.number_of_nodes == 0


def test_pseudograph_1k_giant_component_is_connected():
    # the paper's post-processing step is the caller's giant_component
    one_k = DegreeDistribution({1: 30, 2: 30, 3: 20, 6: 4})
    graph = giant_component(pseudograph_1k(one_k, rng=2))
    assert len(list(connected_components(graph))) == 1
    assert 0 < graph.number_of_nodes <= one_k.nodes


def test_pseudograph_2k_reproduces_jdd_closely(hot_small):
    # only the dropped loops / collapsed parallel edges perturb the JDD; the
    # bounds hold over 50 seeds rather than at one lucky seed
    target = joint_degree_distribution(hot_small)
    scale = sum(c * c for c in target.counts.values())
    lost, relative = [], []
    for seed in range(50):
        graph = pseudograph_2k(target, rng=seed)
        generated = joint_degree_distribution(graph)
        assert graph.number_of_edges >= 0.95 * target.edges
        lost.append(target.edges - graph.number_of_edges)
        relative.append(distance_2k(target, generated) / scale)
    assert statistics.mean(lost) <= 5
    assert statistics.median(relative) <= 0.2


def test_pseudograph_2k_better_than_1k_for_jdd(as_small):
    """The paper's point: the 2K generator constrains the JDD, 1K does not."""
    target_jdd = joint_degree_distribution(as_small)
    target_1k = degree_distribution(as_small)
    graph_1k = pseudograph_1k(target_1k, rng=4)
    graph_2k = pseudograph_2k(target_jdd, rng=4)
    error_1k = distance_2k(target_jdd, joint_degree_distribution(graph_1k))
    error_2k = distance_2k(target_jdd, joint_degree_distribution(graph_2k))
    assert error_2k < error_1k


def test_pseudograph_2k_no_small_two_node_components(hot_small):
    """2K constraints prevent the isolated (1,1)-edge components that the 1K
    pseudograph generator tends to create (Section 5.1 of the paper)."""
    target = joint_degree_distribution(hot_small)
    if target.edge_count(1, 1) == 0:
        graph = pseudograph_2k(target, rng=5)
        from repro.graph.components import connected_components

        assert all(len(component) != 2 for component in connected_components(graph))


def test_pseudograph_2k_preserves_node_counts(as_small):
    target = joint_degree_distribution(as_small)
    graph = pseudograph_2k(target, rng=6)
    assert graph.number_of_nodes == target.nodes


def test_pseudograph_deterministic_under_seed(hot_small):
    target = joint_degree_distribution(hot_small)
    assert pseudograph_2k(target, rng=7) == pseudograph_2k(target, rng=7)
