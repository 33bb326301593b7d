"""Tests for the elementary rewiring moves and their edge-end index."""

import numpy as np
import pytest

from repro.core.extraction import joint_degree_distribution
from repro.generators.rewiring.swaps import (
    EdgeEndIndex,
    Swap,
    double_swap_is_valid,
    jdd_delta_of_swap,
    make_double_swap,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_swap_apply_and_revert(path_graph):
    swap = Swap(removals=((0, 1),), additions=((0, 4),))
    swap.apply(path_graph)
    assert path_graph.has_edge(0, 4)
    assert not path_graph.has_edge(0, 1)
    swap.revert(path_graph)
    assert path_graph.has_edge(0, 1)
    assert not path_graph.has_edge(0, 4)


def test_double_swap_validity(path_graph):
    # edges (0,1) and (3,2): swapping to (0,2),(3,1) is valid on the path
    assert double_swap_is_valid(path_graph, 0, 1, 3, 2)
    # same edge twice is invalid
    assert not double_swap_is_valid(path_graph, 0, 1, 0, 1)
    # swapping to (0,3),(2,1) would recreate the existing edge (1,2) -> invalid
    assert not double_swap_is_valid(path_graph, 0, 1, 2, 3)
    # swap creating a self-loop is invalid (shared endpoint)
    assert not double_swap_is_valid(path_graph, 0, 1, 1, 2)


def test_make_double_swap_canonical():
    swap = make_double_swap(3, 1, 0, 2)
    assert set(swap.removals) == {(1, 3), (0, 2)}
    assert set(swap.additions) == {(2, 3), (0, 1)}


def test_jdd_delta_of_swap_matches_recount(as_small, rng):
    graph = as_small.copy()
    degrees = graph.degrees()
    for _ in range(50):
        a, b = graph.edge_at(int(rng.integers(graph.number_of_edges)))
        c, d = graph.edge_at(int(rng.integers(graph.number_of_edges)))
        if not double_swap_is_valid(graph, a, b, c, d):
            continue
        swap = make_double_swap(a, b, c, d)
        before = joint_degree_distribution(graph).counts
        delta = jdd_delta_of_swap(degrees, swap)
        swap.apply(graph)
        after = joint_degree_distribution(graph).counts
        for key in set(before) | set(after) | set(delta):
            assert after.get(key, 0) - before.get(key, 0) == delta.get(key, 0)


def test_edge_end_index_membership(square_with_diagonal):
    buckets = EdgeEndIndex(square_with_diagonal).degree_buckets()
    # every oriented end sits in the bucket of its head's degree, once
    assert sum(len(bucket) for bucket in buckets.values()) == 2 * square_with_diagonal.number_of_edges
    for degree, bucket in buckets.items():
        for tail, head in bucket:
            assert square_with_diagonal.degree(head) == degree
            assert square_with_diagonal.has_edge(tail, head)
    assert 17 not in buckets
