"""Tests for dK-preserving randomizing rewiring (d = 0..3)."""

from contextlib import nullcontext

import pytest

from repro.core.extraction import (
    degree_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.core.distance import graph_dk_distance
from repro.exceptions import RewiringConvergenceWarning
from repro.generators.rewiring.preserving import (
    dk_randomize,
    randomize_0k,
    randomize_1k,
    randomize_2k,
    randomize_3k,
    verify_randomization_converged,
)
from repro.metrics.assortativity import likelihood


def test_randomize_0k_preserves_only_density(as_small):
    rewired = randomize_0k(as_small, rng=1, multiplier=3)
    assert rewired.number_of_edges == as_small.number_of_edges
    assert rewired.number_of_nodes == as_small.number_of_nodes
    # degrees are destroyed (with overwhelming probability)
    assert degree_distribution(rewired) != degree_distribution(as_small)


def test_randomize_1k_preserves_degrees(as_small):
    rewired = randomize_1k(as_small, rng=2, multiplier=3)
    assert degree_distribution(rewired) == degree_distribution(as_small)
    # the JDD is (generally) not preserved
    assert graph_dk_distance(as_small, rewired, 2) > 0


def test_randomize_2k_preserves_jdd(as_small):
    rewired = randomize_2k(as_small, rng=3, multiplier=3)
    assert joint_degree_distribution(rewired) == joint_degree_distribution(as_small)


def test_randomize_2k_changes_three_k(as_small):
    rewired = randomize_2k(as_small, rng=3, multiplier=3)
    assert graph_dk_distance(as_small, rewired, 3) > 0


def test_randomize_3k_preserves_wedges_and_triangles(hot_small, as_small):
    for graph in (hot_small, as_small):
        # the AS graph's 3K chain exhausts this fixed budget
        with pytest.warns(RewiringConvergenceWarning) if graph is as_small else nullcontext():
            rewired = randomize_3k(graph, rng=4, multiplier=2, max_attempt_factor=30)
        original_3k = three_k_distribution(graph)
        rewired_3k = three_k_distribution(rewired)
        assert rewired_3k.wedges == original_3k.wedges
        assert rewired_3k.triangles == original_3k.triangles
        assert rewired_3k.jdd == original_3k.jdd


def test_randomize_actually_changes_the_graph(as_small):
    for d in (0, 1, 2):
        rewired = dk_randomize(as_small, d, rng=5)
        assert rewired != as_small


def test_dk_randomize_dispatch_and_validation(as_small):
    with pytest.raises(ValueError):
        dk_randomize(as_small, 4, rng=1)
    for d in range(4):
        rewired = dk_randomize(as_small, d, rng=6, multiplier=1)
        assert graph_dk_distance(as_small, rewired, d) == 0.0


def test_randomize_1k_destroys_degree_correlations(as_small):
    """1K randomization pushes the likelihood S toward its uncorrelated value."""
    original_s = likelihood(as_small)
    rewired = randomize_1k(as_small, rng=7, multiplier=5)
    assert likelihood(rewired) != original_s


def test_verify_randomization_converged(as_small):
    randomized = randomize_1k(as_small, rng=8, multiplier=5)
    assert verify_randomization_converged(
        randomized, 1, likelihood, rng=9, relative_tolerance=0.2
    )


def test_inputs_are_not_mutated(as_small):
    checksum = (as_small.number_of_edges, sorted(as_small.edges()))
    dk_randomize(as_small, 2, rng=10, multiplier=1)
    assert (as_small.number_of_edges, sorted(as_small.edges())) == checksum
