"""Tests for the topology-metric suite, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest
from oracle.correlations_python import assortativity_from_likelihood
from oracle.networkx_bridge import to_networkx
from oracle.sweep_python import bfs_distances

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.metrics.assortativity import (
    assortativity,
    likelihood,
    second_order_likelihood,
)
from repro.metrics.betweenness import (
    betweenness_by_degree,
    edge_betweenness,
    group_mean_by_degree,
    node_betweenness,
)
from repro.metrics.clustering import (
    clustering_by_degree,
    local_clustering_coefficients,
    mean_clustering,
    transitivity,
)
from repro.metrics.degree import average_degree, max_degree
from repro.metrics.distances import (
    diameter,
    distance_distribution,
    distance_std,
    mean_distance,
)
from repro.metrics.spectrum import extreme_eigenvalues, laplacian_spectrum, normalized_laplacian
from repro.measure.plan import TABLE2_CORE_METRICS, Measurement, average_measurements
from repro.metrics.summary import summarize
from repro.workloads.routing import edge_load_by_degree, routing_load


class TestDegreeMetrics:
    def test_moments(self, star_graph):
        assert average_degree(star_graph) == pytest.approx(10 / 6)
        assert max_degree(star_graph) == 5


class TestAssortativityMetrics:
    def test_likelihood_star(self, star_graph):
        assert likelihood(star_graph) == 25.0  # 5 edges, each 5*1

    def test_likelihood_vs_networkx_r(self, as_small, random_graph):
        for graph in (as_small, random_graph):
            expected = nx.degree_assortativity_coefficient(to_networkx(graph))
            assert assortativity(graph) == pytest.approx(expected, abs=1e-8)

    def test_assortativity_from_likelihood_consistent(self, as_small):
        assert assortativity_from_likelihood(as_small) == pytest.approx(
            assortativity(as_small), abs=1e-8
        )

    def test_assortativity_extremes(self, star_graph, triangle_graph):
        assert assortativity(star_graph) <= -0.999  # perfectly disassortative
        assert assortativity(triangle_graph) == 0.0  # degenerate (all equal degrees)

    def test_second_order_likelihood_path(self, path_graph, triangle_graph):
        # wedges: (0,1,2): 1*2, (1,2,3): 2*2, (2,3,4): 2*1 -> 2 + 4 + 2
        assert second_order_likelihood(path_graph) == 8.0
        # closed wedges count too: a triangle has 3 of 2*2
        assert second_order_likelihood(triangle_graph) == 12.0


class TestClusteringMetrics:
    def test_local_coefficients(self, square_with_diagonal):
        coefficients = local_clustering_coefficients(square_with_diagonal)
        assert coefficients[1] == pytest.approx(1.0)
        assert coefficients[0] == pytest.approx(2 / 3)

    def test_mean_clustering_vs_networkx(self, as_small, random_graph):
        for graph in (as_small, random_graph):
            expected = nx.average_clustering(to_networkx(graph))
            assert mean_clustering(graph) == pytest.approx(expected, abs=1e-9)

    def test_transitivity_vs_networkx(self, as_small):
        expected = nx.transitivity(to_networkx(as_small))
        assert transitivity(as_small) == pytest.approx(expected, abs=1e-9)

    def test_clustering_by_degree(self, square_with_diagonal):
        by_degree = clustering_by_degree(square_with_diagonal)
        assert by_degree[2] == pytest.approx(1.0)
        assert by_degree[3] == pytest.approx(2 / 3)
        assert 1 not in by_degree  # degree-1 nodes are excluded


class TestDistanceMetrics:
    def test_bfs_distances(self, path_graph):
        assert bfs_distances(path_graph, 0) == [0, 1, 2, 3, 4]

    def test_unreachable_marked(self, disconnected_graph):
        distances = bfs_distances(disconnected_graph, 0)
        assert distances[3] == -1 and distances[5] == -1

    def test_distance_distribution_path(self, path_graph):
        pdf = distance_distribution(path_graph)
        assert sum(pdf.values()) == pytest.approx(1.0)
        assert pdf[0] == pytest.approx(5 / 25)
        assert pdf[4] == pytest.approx(2 / 25)

    def test_mean_distance_vs_networkx(self, as_small, random_graph):
        for graph in (as_small, random_graph):
            from repro.graph.components import giant_component

            gcc = giant_component(graph)
            expected = nx.average_shortest_path_length(to_networkx(gcc))
            assert mean_distance(gcc) == pytest.approx(expected, rel=1e-9)

    def test_distance_std_and_diameter(self, path_graph):
        assert diameter(path_graph) == 4
        assert distance_std(path_graph) > 0

    def test_sampled_distance_estimator(self, as_small):
        exact = mean_distance(as_small)
        sampled = mean_distance(as_small, sources=100, rng=1)
        assert sampled == pytest.approx(exact, rel=0.15)


class TestBetweennessMetrics:
    def test_matches_networkx(self, as_small, random_graph, hot_small):
        for graph in (random_graph, hot_small):
            expected = nx.betweenness_centrality(to_networkx(graph), normalized=True)
            ours = node_betweenness(graph, normalized=True)
            for node in graph.nodes():
                assert ours[node] == pytest.approx(expected[node], abs=1e-9)

    def test_star_center(self, star_graph):
        values = node_betweenness(star_graph, normalized=True)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(0.0)

    def test_betweenness_by_degree(self, star_graph):
        profile = betweenness_by_degree(star_graph)
        assert profile[5] == pytest.approx(1.0)
        assert profile[1] == pytest.approx(0.0)

    def test_edge_betweenness_matches_networkx(self, random_graph):
        expected = nx.edge_betweenness_centrality(to_networkx(random_graph), normalized=True)
        ours = edge_betweenness(random_graph, normalized=True)
        for edge, value in ours.items():
            key = edge if edge in expected else (edge[1], edge[0])
            assert value == pytest.approx(expected[key], abs=1e-9)


class TestSpectrumMetrics:
    def test_eigenvalues_in_range(self, as_small):
        spectrum = laplacian_spectrum(as_small)
        assert spectrum[0] == pytest.approx(0.0, abs=1e-8)
        assert spectrum[-1] <= 2.0 + 1e-9

    def test_matches_networkx(self, random_graph):
        expected = np.sort(nx.normalized_laplacian_spectrum(to_networkx(random_graph)))
        ours = laplacian_spectrum(random_graph)
        assert np.allclose(ours, expected, atol=1e-8)

    def test_extreme_eigenvalues(self, as_small):
        lambda_1, lambda_n_1 = extreme_eigenvalues(as_small)
        assert 0 < lambda_1 < 1
        assert 1 < lambda_n_1 <= 2.0 + 1e-9

    def test_complete_graph_spectrum(self):
        complete = SimpleGraph(4, edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])
        spectrum = laplacian_spectrum(complete)
        # normalized Laplacian of K_n: 0 and n/(n-1) with multiplicity n-1
        assert spectrum[0] == pytest.approx(0.0, abs=1e-9)
        assert spectrum[-1] == pytest.approx(4 / 3, abs=1e-9)

    def test_normalized_laplacian_rows(self, triangle_graph):
        matrix = normalized_laplacian(triangle_graph).toarray()
        assert matrix[0, 0] == pytest.approx(1.0)
        assert matrix[0, 1] == pytest.approx(-0.5)


class TestSummary:
    def test_summarize_fields(self, hot_small):
        summary = summarize(hot_small)
        assert isinstance(summary, Measurement)
        assert summary.nodes <= hot_small.number_of_nodes
        assert summary.average_degree > 0
        assert 0 < summary.lambda_1 < summary.lambda_n_1 <= 2.0 + 1e-9
        assert summary.metrics == (
            "nodes",
            "edges",
            "average_degree",
            "assortativity",
            "mean_clustering",
            "mean_distance",
            "distance_std",
            "likelihood",
            "second_order_likelihood",
            "lambda_1",
            "lambda_n_1",
        )

    def test_summarize_without_spectrum(self, hot_small):
        # the eigenvalues were never computed: absent, not a made-up 0
        summary = summarize(hot_small, compute_spectrum=False)
        assert "lambda_1" not in summary and "lambda_n_1" not in summary
        assert summary.metrics == TABLE2_CORE_METRICS
        with pytest.raises(AttributeError):
            summary.lambda_1

    def test_summarize_uses_gcc(self, disconnected_graph):
        summary = summarize(disconnected_graph)
        assert summary.nodes == 3

    def test_averaging_summaries(self, hot_small, as_small):
        a = summarize(hot_small, compute_spectrum=False)
        b = summarize(as_small, compute_spectrum=False)
        averaged = average_measurements([a, b])
        assert averaged.average_degree == pytest.approx(
            (a.average_degree + b.average_degree) / 2
        )
        with pytest.raises(ValueError):
            average_measurements([])

    def test_averaging_summaries_rounds_every_int_field(self, hot_small):
        # every metric the registry declares int-valued rounds back to int,
        # without being enumerated anywhere — the Table-2 sizes and any
        # other int metric averaged alongside them
        base = summarize(hot_small, compute_spectrum=False)
        a = Measurement({**base.as_dict(), "diameter": 4})
        b = Measurement({**base.as_dict(), "diameter": 7})
        averaged = average_measurements([a, b])
        assert averaged.diameter == 6 and isinstance(averaged.diameter, int)
        assert averaged.nodes == base.nodes and isinstance(averaged.nodes, int)
        assert isinstance(averaged.average_degree, float)


def _dict_loop_mean(pairs):
    """Per-key mean by the running-sum dict loop (the reference order)."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for key, value in pairs:
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sorted(sums)}


@pytest.mark.parametrize("kind", ["simple", "big"])
def test_per_degree_means_match_the_dict_loop_bit_for_bit(kind, hot_small):
    graph = hot_small.copy() if kind == "simple" else BigGraph.from_simple_graph(hot_small)
    degree = [graph.degree(node) for node in graph.nodes()]
    assert min(degree) == 1  # the k >= 2 restriction of C(k) drops something

    coefficients = local_clustering_coefficients(graph)
    expected_ck = _dict_loop_mean(
        (degree[node], coefficients[node]) for node in graph.nodes() if degree[node] >= 2
    )
    assert list(clustering_by_degree(graph).items()) == list(expected_ck.items())

    centrality = node_betweenness(graph)
    expected_bk = _dict_loop_mean((degree[node], centrality[node]) for node in graph.nodes())
    assert list(group_mean_by_degree(graph, centrality).items()) == list(expected_bk.items())

    edge_load, _ = routing_load(graph)
    expected_load = _dict_loop_mean(
        (degree[u] * degree[v], value) for (u, v), value in edge_load.items()
    )
    by_product = edge_load_by_degree(graph, edge_load)
    assert list(by_product.items()) == list(expected_load.items())
    assert all(type(key) is int and type(value) is float for key, value in by_product.items())
    assert edge_load_by_degree(graph, {}) == {}
