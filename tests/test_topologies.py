"""Tests for the synthetic evaluation topologies and the registry."""

import pytest

from repro.graph.components import connected_components
from repro.metrics.assortativity import assortativity
from repro.metrics.clustering import mean_clustering
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.hot import hot_like_statistics, synthetic_hot_topology
from repro.topologies.registry import (
    TopologySpec,
    available_topologies,
    build_topology,
    get_topology_spec,
    register,
)


class TestHotTopology:
    def test_size_and_sparsity(self):
        graph = synthetic_hot_topology(500, rng=1)
        assert 400 <= graph.number_of_nodes <= 500
        assert graph.average_degree() < 3.0  # almost a tree

    def test_structural_signature(self):
        graph = synthetic_hot_topology(600, rng=2)
        stats = hot_like_statistics(graph)
        # most nodes are degree-1 end hosts
        assert stats["degree_one_fraction"] > 0.5
        # high-degree nodes live at the periphery: the hub's neighbours are
        # dominated by degree-1 hosts, so their mean degree is tiny
        assert stats["hub_neighbor_mean_degree"] < 5.0
        # near-zero clustering and disassortative mixing
        assert mean_clustering(graph) < 0.05
        assert assortativity(graph) < -0.1

    def test_connected(self):
        assert len(list(connected_components(synthetic_hot_topology(300, rng=3)))) == 1

    def test_deterministic_under_seed(self):
        assert synthetic_hot_topology(200, rng=4) == synthetic_hot_topology(200, rng=4)

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            synthetic_hot_topology(5, core_size=12)


class TestAsTopology:
    def test_size_and_density(self):
        graph = synthetic_as_topology(500, rng=1)
        assert 450 <= graph.number_of_nodes <= 500
        assert 3.0 < graph.average_degree() < 9.0

    def test_structural_signature(self):
        graph = synthetic_as_topology(800, rng=2)
        degrees = graph.degrees()
        # heavy-tailed: the largest hub is much larger than the average degree
        assert max(degrees) > 10 * graph.average_degree()
        # dominated by low-degree customer ASes
        assert sum(1 for k in degrees if k <= 2) / graph.number_of_nodes > 0.25
        # disassortative and clustered
        assert assortativity(graph) < 0.0
        assert mean_clustering(graph) > 0.05

    def test_connected(self):
        assert len(list(connected_components(synthetic_as_topology(400, rng=3)))) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synthetic_as_topology(4, seed_clique=6)
        with pytest.raises(ValueError):
            synthetic_as_topology(100, stub_fraction=1.5)

    def test_deterministic_under_seed(self):
        assert synthetic_as_topology(300, rng=5) == synthetic_as_topology(300, rng=5)


class TestRegistry:
    def test_known_topologies_present(self):
        names = available_topologies()
        for name in ("hot", "hot_small", "skitter_like", "skitter_like_small"):
            assert name in names

    def test_build_topology_deterministic(self):
        assert build_topology("hot_small") == build_topology("hot_small")

    def test_build_with_seed_override(self):
        default = build_topology("hot_small")
        other = build_topology("hot_small", seed=99)
        assert default != other

    def test_unknown_topology(self):
        with pytest.raises(KeyError):
            get_topology_spec("does-not-exist")

    def test_register_custom_spec(self):
        spec = TopologySpec(
            name="custom_test_topology",
            description="tiny",
            paper_counterpart="none",
            builder=synthetic_hot_topology,
            parameters={"target_nodes": 60, "core_size": 4},
        )
        register(spec)
        graph = build_topology("custom_test_topology")
        assert graph.number_of_nodes <= 60

    def test_paper_counterparts_documented(self):
        for name in available_topologies():
            spec = get_topology_spec(name)
            assert spec.description
            assert spec.paper_counterpart
