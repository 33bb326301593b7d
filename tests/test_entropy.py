"""Tests for the maximum-entropy forms of Table 1."""

import math

import numpy as np
import pytest

from repro.core.distributions import DegreeDistribution
from repro.core.entropy import (
    maximum_entropy_degree_distribution,
    maximum_entropy_jdd,
    poisson_degree_pmf,
)
from repro.core.extraction import degree_distribution, joint_degree_distribution
from repro.generators.pseudograph import pseudograph_1k
from repro.generators.rewiring.preserving import dk_randomize
from repro.generators.stochastic import stochastic_0k


def test_poisson_pmf_normalizes():
    pmf = poisson_degree_pmf(3.0, 60)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-9)
    assert pmf[3] == pytest.approx(math.exp(-3) * 27 / 6)


def test_poisson_pmf_rejects_negative_mean():
    with pytest.raises(ValueError):
        poisson_degree_pmf(-1.0, 5)


def test_0k_random_graphs_have_poisson_like_degrees():
    """The 1K-distribution of 0K-random (Erdős–Rényi) graphs is ~Poisson."""
    from repro.core.distributions import AverageDegree

    zero_k = AverageDegree(nodes=3000, edges=9000)
    graph = stochastic_0k(zero_k, rng=5)
    observed = degree_distribution(graph).pmf()
    expected = maximum_entropy_degree_distribution(zero_k, max_degree=60)
    # total-variation distance between the realized degree distribution and
    # the Poisson prediction stays small for a single 3000-node realization
    keys = set(observed) | set(expected)
    tv_distance = 0.5 * sum(abs(observed.get(k, 0.0) - expected.get(k, 0.0)) for k in keys)
    assert tv_distance < 0.06
    # and no heavy tail appears: the maximum degree stays Poisson-scale
    assert graph.max_degree() < 25


def test_maximum_entropy_jdd_matches_1k_random_graphs():
    """1K-random graphs have the uncorrelated JDD k1 P(k1) k2 P(k2) / kbar^2."""
    rng = np.random.default_rng(11)
    one_k = DegreeDistribution({1: 400, 2: 300, 3: 200, 6: 100})
    graph = pseudograph_1k(one_k, rng=rng)
    graph = dk_randomize(graph, 1, rng=rng, multiplier=5)
    observed = joint_degree_distribution(graph).pmf()
    expected = maximum_entropy_jdd(degree_distribution(graph))
    for key, value in expected.items():
        if value > 0.01:
            assert observed.get(key, 0.0) == pytest.approx(value, rel=0.35, abs=0.02)


def test_maximum_entropy_degree_distribution_default_range():
    from repro.core.distributions import AverageDegree

    pmf = maximum_entropy_degree_distribution(AverageDegree(100, 100))
    assert max(pmf) >= 10
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-6)
