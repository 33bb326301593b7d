"""Tests for the dK-distribution containers and their projections."""

import pytest
from oracle.triangles_python import canonical_triangle_counts, canonical_wedge_counts

from repro.core.distributions import (
    AverageDegree,
    DegreeDistribution,
    JointDegreeDistribution,
    ThreeKDistribution,
)
from repro.core.extraction import three_k_distribution
from repro.exceptions import DistributionError


class TestAverageDegree:
    def test_basic(self):
        zero_k = AverageDegree(nodes=10, edges=15)
        assert zero_k.average_degree == pytest.approx(3.0)
        assert zero_k.edge_probability() == pytest.approx(0.3)

    def test_empty(self):
        zero_k = AverageDegree(nodes=0, edges=0)
        assert zero_k.average_degree == 0.0
        assert zero_k.edge_probability() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            AverageDegree(nodes=-1, edges=0)

    def test_edge_probability_capped(self):
        assert AverageDegree(nodes=2, edges=5).edge_probability() == 1.0


class TestDegreeDistribution:
    def test_counts_and_moments(self):
        one_k = DegreeDistribution({1: 3, 3: 1})
        assert one_k.nodes == 4
        assert one_k.edges == 3
        assert one_k.average_degree() == pytest.approx(1.5)
        assert one_k.max_degree() == 3

    def test_pmf_sums_to_one(self):
        one_k = DegreeDistribution({1: 3, 2: 2, 5: 1})
        assert sum(one_k.pmf().values()) == pytest.approx(1.0)

    def test_zero_counts_removed(self):
        one_k = DegreeDistribution({1: 2, 4: 0})
        assert 4 not in one_k.counts

    def test_negative_count_rejected(self):
        with pytest.raises(DistributionError):
            DegreeDistribution({1: -2})

    def test_negative_degree_rejected(self):
        with pytest.raises(DistributionError):
            DegreeDistribution({-1: 2})

    def test_odd_stub_count_rejected_on_edges(self):
        one_k = DegreeDistribution({1: 3})
        with pytest.raises(DistributionError):
            _ = one_k.edges

    def test_degree_sequence(self):
        one_k = DegreeDistribution({2: 2, 1: 1, 3: 1})
        assert one_k.degree_sequence() == [1, 2, 2, 3]

    def test_projection_to_0k(self):
        one_k = DegreeDistribution({1: 2, 2: 2})
        zero_k = one_k.to_lower()
        assert zero_k.nodes == 4
        assert zero_k.edges == 3

    def test_from_degree_sequence(self):
        one_k = DegreeDistribution.from_degree_sequence([1, 1, 2, 2, 2])
        assert one_k.counts == {1: 2, 2: 3}

    def test_entropy_uniform_greater_than_point_mass(self):
        uniform = DegreeDistribution({1: 5, 2: 5})
        point = DegreeDistribution({2: 10})
        assert uniform.entropy() > point.entropy()
        assert point.entropy() == pytest.approx(0.0)


class TestJointDegreeDistribution:
    def test_triangle(self):
        jdd = JointDegreeDistribution({(2, 2): 3})
        assert jdd.edges == 3
        assert jdd.nodes == 3
        assert jdd.node_counts() == {2: 3}
        assert jdd.average_degree() == pytest.approx(2.0)

    def test_keys_canonicalized(self):
        jdd = JointDegreeDistribution({(3, 1): 2, (1, 3): 1})
        assert jdd.counts == {(1, 3): 3}
        assert jdd.edge_count(3, 1) == 3

    def test_pmf_normalization(self):
        jdd = JointDegreeDistribution({(1, 3): 3, (3, 3): 3})
        pmf = jdd.pmf()
        # P(k1,k2) is the ordered edge-end pair probability, so summing over
        # the full (symmetric) matrix -- doubling off-diagonal terms -- gives 1
        total = sum(2 * p if k1 != k2 else p for (k1, k2), p in pmf.items())
        assert total == pytest.approx(1.0)

    def test_paper_worked_example(self, small_mixed_graph):
        # the paper's size-4 example: triangle (degrees 2,2,3) plus a pendant
        from repro.core.extraction import joint_degree_distribution

        jdd = joint_degree_distribution(small_mixed_graph)
        assert jdd.counts == {(2, 2): 1, (2, 3): 2, (1, 3): 1}

    def test_projection_to_1k(self):
        jdd = JointDegreeDistribution({(1, 3): 3})
        one_k = jdd.to_lower()
        assert one_k.counts == {1: 3, 3: 1}

    def test_projection_keeps_zero_degree_nodes(self):
        jdd = JointDegreeDistribution({(1, 1): 1}, zero_degree_nodes=2)
        assert jdd.nodes == 4
        assert jdd.to_lower().counts == {1: 2, 0: 2}

    def test_inconsistent_counts_rejected(self):
        # a single (1, 3) edge leaves the degree-3 class with one dangling end
        with pytest.raises(DistributionError):
            JointDegreeDistribution({(1, 3): 1})

    def test_zero_degree_key_rejected(self):
        with pytest.raises(DistributionError):
            JointDegreeDistribution({(0, 1): 1})

    def test_assortativity_sign(self):
        disassortative = JointDegreeDistribution({(1, 4): 4})
        assert disassortative.assortativity() <= 0
        neutral = JointDegreeDistribution({(2, 2): 4})
        assert neutral.assortativity() == pytest.approx(0.0)

    def test_likelihood(self):
        jdd = JointDegreeDistribution({(1, 3): 3, (3, 3): 3})
        assert jdd.likelihood() == pytest.approx(3 * 3 + 3 * 9)

    def test_from_edge_degree_pairs(self):
        jdd = JointDegreeDistribution.from_edge_degree_pairs(
            [(3, 1), (1, 3), (3, 1), (2, 2)]
        )
        assert jdd.counts == {(1, 3): 3, (2, 2): 1}


class TestThreeKDistribution:
    def test_from_graph_totals(self, square_with_diagonal):
        three_k = three_k_distribution(square_with_diagonal)
        assert three_k.triangle_total == 2
        assert three_k.wedge_total == 2
        assert three_k.edges == 5
        assert three_k.nodes == 4

    def test_projection_to_2k(self, square_with_diagonal):
        from repro.core.extraction import joint_degree_distribution

        three_k = three_k_distribution(square_with_diagonal)
        assert three_k.to_lower() == joint_degree_distribution(square_with_diagonal)

    def test_non_canonical_keys_rejected(self):
        with pytest.raises(DistributionError):
            ThreeKDistribution(wedges={(5, 2, 1): 1})
        with pytest.raises(DistributionError):
            ThreeKDistribution(triangles={(3, 1, 2): 1})

    def test_negative_counts_rejected(self):
        with pytest.raises(DistributionError):
            ThreeKDistribution(wedges={(1, 2, 3): -1})

    def test_second_order_likelihood_star(self, star_graph):
        three_k = three_k_distribution(star_graph)
        # 10 wedges with both endpoints of degree 1
        assert three_k.second_order_likelihood() == pytest.approx(10.0)

    def test_implied_edge_ends_consistency(self, square_with_diagonal, small_mixed_graph, as_small):
        # the paper's projection formula: summing wedge+triangle incidences
        # around each ordered edge recovers ordered_edges(k1,k2) * (k2 - 1)
        for graph in (square_with_diagonal, small_mixed_graph, as_small):
            three_k = three_k_distribution(graph)
            legs = three_k.implied_ordered_edge_ends()
            degrees = graph.degrees()
            expected = {}
            for u, v in graph.edges():
                for k1, k2 in ((degrees[u], degrees[v]), (degrees[v], degrees[u])):
                    if k2 - 1 > 0:
                        expected[(k1, k2)] = expected.get((k1, k2), 0) + (k2 - 1)
            assert legs == expected

    def test_canonicalization_helpers(self):
        wedges = canonical_wedge_counts({(3, 2, 1): 2})
        assert wedges == {(1, 2, 3): 2}
        triangles = canonical_triangle_counts({(3, 1, 2): 1, (1, 2, 3): 1})
        assert triangles == {(1, 2, 3): 2}
