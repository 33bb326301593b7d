"""Tests for the DKSeries orchestration class."""

import pytest

from repro.core.distributions import JointDegreeDistribution
from repro.core.series import SUPPORTED_D, DKSeries
from repro.exceptions import RewiringConvergenceWarning
from repro.generators.rewiring.preserving import randomize_1k, randomize_2k


@pytest.fixture
def series(square_with_diagonal):
    return DKSeries.from_graph(square_with_diagonal)


def test_from_graph_populates_all_levels(series, square_with_diagonal):
    assert series.zero_k.edges == 5
    assert series.one_k.nodes == 4
    assert series.two_k.edges == 5
    assert series.three_k.triangle_total == 2


def test_distribution_accessor(series):
    for d in SUPPORTED_D:
        assert series.distribution(d) is not None
    with pytest.raises(ValueError):
        series.distribution(5)


def test_inclusion_holds_for_extracted_series(series):
    assert series.verify_inclusion()


def test_inclusion_fails_for_inconsistent_series(series):
    broken = DKSeries(
        zero_k=series.zero_k,
        one_k=series.one_k,
        two_k=JointDegreeDistribution({(2, 2): 3}),
        three_k=series.three_k,
    )
    assert not broken.verify_inclusion()


def test_distances_to_itself(series, square_with_diagonal):
    distances = series.distances_to_graph(square_with_diagonal)
    assert distances == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    assert series.smallest_matching_d(square_with_diagonal) == 3


def test_distance_to_different_graph(series, path_graph):
    assert series.distance_to_graph(path_graph, 1) > 0
    assert not series.matches_graph(path_graph, 2)


def test_smallest_matching_d_detects_partial_match(series, square_with_diagonal, as_small):
    # a 1K-random rewiring of the square preserves 1K but (likely) not 3K;
    # the square's 1K-space is frozen, so the chain cannot accept a move
    with pytest.warns(RewiringConvergenceWarning):
        rewired = randomize_1k(square_with_diagonal, rng=3, multiplier=20)
    matched = series.smallest_matching_d(rewired)
    assert matched is not None and matched >= 1

    # an unrelated graph does not even match 0K
    assert series.smallest_matching_d(as_small) is None


def test_2k_random_graph_matches_up_to_2(as_small):
    series = DKSeries.from_graph(as_small)
    rewired = randomize_2k(as_small, rng=9, multiplier=3)
    assert series.matches_graph(rewired, 0)
    assert series.matches_graph(rewired, 1)
    assert series.matches_graph(rewired, 2)


def test_summary_keys(series):
    summary = series.summary()
    for key in (
        "nodes",
        "edges",
        "average_degree",
        "max_degree",
        "assortativity",
        "likelihood",
        "wedges",
        "triangles",
        "second_order_likelihood",
    ):
        assert key in summary


def test_summary_values(series):
    summary = series.summary()
    assert summary["nodes"] == 4
    assert summary["edges"] == 5
    assert summary["triangles"] == 2
