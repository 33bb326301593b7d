"""Tests for the stochastic (hidden-variable) generators."""

import statistics

import numpy as np
import pytest
from scipy.stats import chi2

from repro.core.distributions import AverageDegree, DegreeDistribution
from repro.core.extraction import (
    average_degree,
    joint_degree_distribution,
)
from repro.generators.stochastic import stochastic_0k, stochastic_1k, stochastic_2k
from repro.generators.streaming import _distinct_pairs, streaming_stochastic_1k
from repro.graph.simple_graph import SimpleGraph


def test_stochastic_0k_size_and_density():
    zero_k = AverageDegree(nodes=500, edges=1500)
    graph = stochastic_0k(zero_k, rng=1)
    assert graph.number_of_nodes == 500
    # the edge count is binomially distributed around the target
    assert graph.number_of_edges == pytest.approx(1500, rel=0.15)


def test_stochastic_0k_empty_and_tiny():
    assert stochastic_0k(AverageDegree(0, 0), rng=1).number_of_nodes == 0
    assert stochastic_0k(AverageDegree(1, 0), rng=1).number_of_edges == 0


def test_stochastic_0k_no_self_loops_or_duplicates():
    graph = stochastic_0k(AverageDegree(nodes=100, edges=300), rng=2)
    edges = graph.edge_list()
    assert len(edges) == len(set(edges))
    assert all(u != v for u, v in edges)


def test_stochastic_1k_reproduces_expected_degrees():
    one_k = DegreeDistribution({2: 200, 4: 100, 10: 20})
    graph = stochastic_1k(one_k, rng=3)
    assert graph.number_of_nodes == one_k.nodes
    # expected total edges = m of the target distribution
    assert graph.number_of_edges == pytest.approx(one_k.edges, rel=0.15)
    # high-expected-degree nodes end up with higher realized degrees
    degrees = graph.degrees()
    low = np.mean(degrees[:200])
    high = np.mean(degrees[-20:])
    assert high > low


def test_stochastic_1k_variance_caveat():
    """The paper's observation: many expected-degree-1 nodes end up isolated."""
    one_k = DegreeDistribution({1: 500, 4: 50})
    graph = stochastic_1k(one_k, rng=4)
    isolated = sum(1 for k in graph.degrees() if k == 0)
    assert isolated > 0


def test_stochastic_1k_empty():
    assert stochastic_1k(DegreeDistribution({}), rng=1).number_of_nodes == 0


def test_stochastic_2k_reproduces_expected_jdd(hot_small):
    # the edge count is binomial per class pair, so the bounds hold over 50
    # seeds rather than at one seed
    target = joint_degree_distribution(hot_small)
    edges = []
    for seed in range(50):
        graph = stochastic_2k(target, rng=seed)
        assert graph.number_of_nodes == target.nodes
        edges.append(joint_degree_distribution(graph).edges)
        # the hub degree class still produces clear hubs in the realized graph
        assert graph.max_degree() > 2 * graph.average_degree()
    # total edges close to the target in expectation; the realized per-key
    # JDD drifts because realized degrees differ from the expected-degree
    # labels -- exactly the high-variance weakness the paper reports for the
    # stochastic approach
    assert statistics.mean(edges) == pytest.approx(target.edges, rel=0.05)


def test_stochastic_2k_average_degree(as_small):
    target = joint_degree_distribution(as_small)
    graph = stochastic_2k(target, rng=6)
    assert average_degree(graph).average_degree == pytest.approx(
        as_small.average_degree(), rel=0.2
    )


def test_stochastic_generators_are_seed_deterministic():
    one_k = DegreeDistribution({2: 50, 3: 30, 6: 5})
    a = stochastic_1k(one_k, rng=42)
    b = stochastic_1k(one_k, rng=42)
    assert a == b


# --------------------------------------------------------------------------- #
# Sampling laws
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("same_class, n_left, n_right", [(True, 9, 9), (False, 5, 7)])
@pytest.mark.parametrize("which", ["zero", "one", "half", "all_but_one", "all"])
def test_distinct_pairs_returns_exactly_count(same_class, n_left, n_right, which):
    possible = n_left * (n_left - 1) // 2 if same_class else n_left * n_right
    count = {
        "zero": 0,
        "one": 1,
        "half": possible // 2,
        "all_but_one": possible - 1,
        "all": possible,
    }[which]
    for seed in range(20):
        i, j = _distinct_pairs(
            n_left, n_right, count, np.random.default_rng(seed), same_class=same_class
        )
        pairs = set(zip(i.tolist(), j.tolist()))
        assert len(i) == len(j) == len(pairs) == count
        for a, b in pairs:
            assert 0 <= a < n_left and 0 <= b < n_right
            if same_class:
                assert a < b


@pytest.mark.parametrize(
    "edge_count",
    [
        lambda one_k, seed: stochastic_1k(one_k, rng=seed).number_of_edges,
        lambda one_k, seed: streaming_stochastic_1k(one_k, rng=seed).m,
    ],
    ids=["simple_graph", "streaming"],
)
def test_dense_block_edge_count_is_unbiased(edge_count):
    """p = 40 * 40 / 2000 = 0.8 on all 1,225 pairs: E[m] = 980.  A sampler
    that falls short on dense blocks shows as a negative z-score."""
    one_k = DegreeDistribution({40: 50})
    counts = [edge_count(one_k, seed) for seed in range(200)]
    standard_error = (1225 * 0.8 * 0.2 / len(counts)) ** 0.5
    z = (statistics.mean(counts) - 980) / standard_error
    assert abs(z) < 4, z


def _pair_law_p_value(generate, probability, n, samples):
    """χ² p-value of the per-pair edge frequencies of ``samples`` graphs
    against independent Bernoulli(probability(u, v)) pairs.  Pairs with
    probability 0 or 1 must be always absent or always present."""
    hits = np.zeros((n, n), dtype=np.int64)
    for seed in range(samples):
        graph = generate(seed)
        assert graph.number_of_nodes == n
        for u, v in graph.edge_list():
            hits[min(u, v), max(u, v)] += 1
    statistic, cells = 0.0, 0
    for u in range(n):
        for v in range(u + 1, n):
            p = probability(u, v)
            if p in (0.0, 1.0):
                assert hits[u, v] == p * samples, (u, v, p)
                continue
            statistic += (hits[u, v] - samples * p) ** 2 / (samples * p * (1 - p))
            cells += 1
    return chi2.sf(statistic, cells)


def test_stochastic_0k_pair_law():
    zero_k = AverageDegree(nodes=8, edges=10)
    p = zero_k.edge_probability()
    p_value = _pair_law_p_value(
        lambda seed: stochastic_0k(zero_k, rng=seed), lambda u, v: p, 8, 2000
    )
    assert p_value >= 1e-3


def test_stochastic_1k_pair_law():
    one_k = DegreeDistribution({1: 3, 2: 2, 4: 2, 5: 1})
    expected = one_k.degree_sequence()  # node ids follow ascending degrees
    total = sum(expected)
    p_value = _pair_law_p_value(
        lambda seed: stochastic_1k(one_k, rng=seed),
        lambda u, v: min(1.0, expected[u] * expected[v] / total),
        8,
        2000,
    )
    assert p_value >= 1e-3


def test_stochastic_2k_pair_law():
    # an 8-node graph with degree classes {1, 2, 3, 4}
    source = SimpleGraph(8)
    for u, v in [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 6), (3, 7)]:
        source.add_edge(u, v)
    jdd = joint_degree_distribution(source)
    one_k = jdd.to_lower()
    pmf_1k, pmf_2k = one_k.pmf(), jdd.pmf()
    scale = one_k.average_degree() / one_k.nodes
    degree = one_k.degree_sequence()

    def probability(u, v):
        k1, k2 = sorted((degree[u], degree[v]))
        joint = pmf_2k.get((k1, k2), 0.0)
        return min(1.0, scale * joint / (pmf_1k[k1] * pmf_1k[k2]))

    p_value = _pair_law_p_value(
        lambda seed: stochastic_2k(jdd, rng=seed), probability, 8, 2000
    )
    assert p_value >= 1e-3
