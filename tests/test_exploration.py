"""Tests for dK-space explorations (Section 4.3)."""

import numpy as np
import pytest

from repro.core.extraction import degree_distribution, joint_degree_distribution
from repro.generators.exploration import (
    explore_1k_likelihood,
    explore_2k,
)
from repro.metrics.assortativity import likelihood
from repro.metrics.clustering import mean_clustering


def test_explore_1k_likelihood_max_and_min(as_small):
    base = likelihood(as_small)
    high = explore_1k_likelihood(as_small, "max", rng=1, max_attempts=20000)
    low = explore_1k_likelihood(as_small, "min", rng=1, max_attempts=20000)
    assert high.metric_value > base
    assert low.metric_value < base
    assert high.metric_value > low.metric_value
    # the reported value matches a recomputation on the returned graph
    assert high.metric_value == pytest.approx(likelihood(high.graph))
    # 1K exploration preserves the degree distribution
    assert degree_distribution(high.graph) == degree_distribution(as_small)
    assert degree_distribution(low.graph) == degree_distribution(as_small)


def test_explore_2k_clustering(as_small):
    base = mean_clustering(as_small)
    high = explore_2k(as_small, "clustering", "max", rng=2, max_attempts=20000)
    low = explore_2k(as_small, "clustering", "min", rng=2, max_attempts=20000)
    assert high.metric_value >= base
    assert low.metric_value <= base
    # exploration is JDD-preserving
    assert joint_degree_distribution(high.graph) == joint_degree_distribution(as_small)
    assert joint_degree_distribution(low.graph) == joint_degree_distribution(as_small)
    # incremental metric matches a from-scratch recomputation
    assert high.metric_value == pytest.approx(mean_clustering(high.graph), abs=1e-9)


def test_explore_2k_s2(as_small):
    high = explore_2k(as_small, "s2", "max", rng=3, max_attempts=10000)
    low = explore_2k(as_small, "s2", "min", rng=3, max_attempts=10000)
    assert high.metric_value >= low.metric_value
    assert joint_degree_distribution(high.graph) == joint_degree_distribution(as_small)


def test_explore_modes_validated(as_small):
    with pytest.raises(ValueError):
        explore_1k_likelihood(as_small, "sideways", max_attempts=10)
    with pytest.raises(ValueError):
        explore_2k(as_small, "diameter", "max", max_attempts=10)
    # arguments are checked before any work, not only when a move is tested
    with pytest.raises(ValueError, match="mode"):
        explore_1k_likelihood(as_small, "sideways", max_attempts=0)
    with pytest.raises(ValueError, match="mode"):
        explore_2k(as_small, "s2", "sideways", max_attempts=0)
    with pytest.raises(ValueError, match="mode"):
        explore_2k(as_small, "clustering", "sideways", max_attempts=0)
    with pytest.raises(ValueError, match="metric"):
        explore_2k(as_small, "diameter", "max", max_attempts=0)


def test_exploration_smaller_gap_at_higher_d(as_small):
    """The paper's heuristic: higher d is more constraining, so the spread of
    next-level metrics shrinks.  Compare the *relative* spreads of the same
    metric family (clustering is only defined by P3, likelihood by P2)."""
    rng = np.random.default_rng(5)
    high = explore_1k_likelihood(as_small, "max", rng=rng, max_attempts=15000)
    low = explore_1k_likelihood(as_small, "min", rng=rng, max_attempts=15000)
    rel_1k = (high.metric_value - low.metric_value) / max(abs(high.metric_value), 1e-9)
    assert 0 <= rel_1k <= 1.5
