"""Tests for the matching (loop-avoiding) generators."""

import pytest

from repro.core.distributions import DegreeDistribution
from repro.core.extraction import degree_distribution, joint_degree_distribution
from repro.exceptions import GenerationError
from repro.generators.matching import matching_1k, matching_2k


def test_matching_1k_exact_degree_sequence():
    one_k = DegreeDistribution({1: 60, 2: 40, 3: 20, 7: 4})
    graph = matching_1k(one_k, rng=1)
    assert degree_distribution(graph) == one_k


def test_matching_1k_simple_graph_invariants():
    one_k = DegreeDistribution({1: 30, 3: 30, 5: 6})
    graph = matching_1k(one_k, rng=2)
    edges = graph.edge_list()
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)


def test_matching_1k_odd_stub_count_rejected():
    with pytest.raises(GenerationError):
        matching_1k(DegreeDistribution({3: 1}), rng=1)


def test_matching_1k_handles_deadlock_prone_sequence():
    """A hub that must connect to almost every other node forces repairs.

    The repair phase is best-effort (the paper likewise reports "additional
    techniques" rather than a guarantee); the realized degree distribution
    must stay very close to the target and the graph must remain simple.
    """
    from repro.core.distance import distance_1k

    one_k = DegreeDistribution({9: 2, 2: 7, 1: 4})
    graph = matching_1k(one_k, rng=3)
    assert distance_1k(one_k, degree_distribution(graph)) <= 8
    edges = graph.edge_list()
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)


def test_matching_1k_strict_mode_small_graph():
    one_k = DegreeDistribution({2: 10})
    graph = matching_1k(one_k, rng=4, strict=True)
    assert degree_distribution(graph) == one_k


def test_matching_2k_places_virtually_all_edges(hot_small, as_small):
    for original in (hot_small, as_small):
        target = joint_degree_distribution(original)
        graph = matching_2k(target, rng=5)
        generated = joint_degree_distribution(graph)
        # the matching construction places (almost) every labelled edge; at
        # most a couple of edges may remain unplaced after the repair phase
        assert target.edges - generated.edges <= 2
        # and the vast majority of edges land in their target degree classes
        # (a single unplaced edge shifts every edge of the affected node to a
        # neighbouring class, so the overlap is the robust criterion)
        overlap = sum(
            min(target.counts.get(key, 0), generated.counts.get(key, 0))
            for key in set(target.counts) | set(generated.counts)
        )
        assert overlap >= 0.9 * target.edges


def test_matching_2k_exact_on_small_jdd(small_mixed_graph):
    target = joint_degree_distribution(small_mixed_graph)
    assert target.counts == {(2, 2): 1, (2, 3): 2, (1, 3): 1}
    graph = matching_2k(target, rng=6)
    assert joint_degree_distribution(graph) == target


def test_matching_2k_simple_graph_invariants(hot_small):
    target = joint_degree_distribution(hot_small)
    graph = matching_2k(target, rng=7)
    edges = graph.edge_list()
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)


def test_matching_2k_deterministic_under_seed(hot_small):
    target = joint_degree_distribution(hot_small)
    assert matching_2k(target, rng=8) == matching_2k(target, rng=8)


def test_matching_preserves_node_count(as_small):
    target = joint_degree_distribution(as_small)
    graph = matching_2k(target, rng=9)
    assert graph.number_of_nodes == target.nodes


def test_matching_builder_reports_missing_edges():
    """The registry's matching construction records the edges its repair
    step could not place (the JDD's edge total minus the edges placed)."""
    from repro.core.extraction import dk_distribution
    from repro.generators.registry import get_generator
    from repro.topologies.hot import synthetic_hot_topology

    jdd = dk_distribution(synthetic_hot_topology(939, rng=20060911), 2)
    short = get_generator("matching").build(jdd, 2, rng=3)
    assert jdd.edges == 1026
    assert short.graph.number_of_edges == 1023
    assert short.stats["missing_edges"] == 3
    assert get_generator("matching").build(jdd, 2, rng=0).stats["missing_edges"] == 0


def test_targeting_reports_its_matching_seed_shortfall():
    from repro.core.extraction import dk_distribution
    from repro.exceptions import RewiringConvergenceWarning
    from repro.generators.rewiring.targeting import dk_targeting_result
    from repro.topologies.hot import synthetic_hot_topology

    target = dk_distribution(synthetic_hot_topology(939, rng=20060911), 3)
    with pytest.warns(RewiringConvergenceWarning):
        _, short = dk_targeting_result(target, rng=3, max_attempts=10)
        _, full = dk_targeting_result(target, rng=0, max_attempts=10)
    assert short["seed_missing_edges"] == 3
    assert full["seed_missing_edges"] == 0
