"""Tests for the incremental 3K bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.generators.rewiring.swaps import EdgeEndIndex, double_swap_is_valid, make_double_swap
from repro.generators.threek import (
    ThreeKDelta,
    ThreeKTracker,
    add_edge_delta,
    remove_edge_delta,
)
from repro.graph.simple_graph import SimpleGraph
from repro.graph.subgraphs import triangle_degree_counts, wedge_degree_counts
from repro.kernels import rewiring as vec


def test_remove_edge_delta_on_triangle(triangle_graph):
    degrees = triangle_graph.degrees()
    delta = remove_edge_delta(triangle_graph, degrees, 0, 1)
    assert delta.triangles == {(2, 2, 2): -1}
    assert delta.wedges == {(2, 2, 2): 1}
    assert delta.node_triangles == {0: -1, 1: -1, 2: -1}
    assert not triangle_graph.has_edge(0, 1)


def test_add_edge_delta_closes_wedge(path_graph):
    degrees = path_graph.degrees()
    delta = add_edge_delta(path_graph, degrees, 0, 2)
    # closing 0-1-2 turns that wedge into a triangle and creates new wedges
    assert sum(delta.triangles.values()) == 1
    assert path_graph.has_edge(0, 2)


def test_remove_missing_edge_raises(path_graph):
    with pytest.raises(GraphError):
        remove_edge_delta(path_graph, path_graph.degrees(), 0, 4)


def test_add_existing_edge_raises(path_graph):
    with pytest.raises(GraphError):
        add_edge_delta(path_graph, path_graph.degrees(), 0, 1)


def test_delta_is_zero_helper():
    assert ThreeKDelta().is_zero()
    delta = ThreeKDelta()
    delta.wedges[(1, 2, 3)] += 1
    assert not delta.is_zero()
    assert delta.negate().wedges[(1, 2, 3)] == -1


def test_toggle_deltas_match_full_recount(as_small):
    """Applying random 2K swaps, the tracker's incremental counts always equal
    a from-scratch recount of the wedge and triangle distributions."""
    rng = np.random.default_rng(3)
    graph = as_small.copy()
    tracker = ThreeKTracker(graph)
    applied = 0
    for _ in range(300):
        # exchanging the heads of two oriented ends from one degree bucket
        # is a JDD-preserving swap
        buckets = [b for b in EdgeEndIndex(graph).degree_buckets().values() if len(b) > 1]
        bucket = buckets[int(rng.integers(len(buckets)))]
        i, j = rng.choice(len(bucket), size=2, replace=False)
        (a, b), (c, d) = bucket[i], bucket[j]
        if not double_swap_is_valid(graph, a, b, c, d):
            continue
        swap = make_double_swap(a, b, c, d)
        delta = tracker.apply_edges(graph, list(swap.removals), list(swap.additions))
        if applied % 2 == 0:
            tracker.commit(delta)
        else:
            tracker.revert_edges(graph, list(swap.removals), list(swap.additions))
        applied += 1
    assert applied > 50
    assert tracker.wedges == wedge_degree_counts(graph)
    assert tracker.triangles == triangle_degree_counts(graph)


def test_revert_restores_graph(square_with_diagonal):
    tracker = ThreeKTracker(square_with_diagonal)
    before_edges = sorted(square_with_diagonal.edges())
    delta = tracker.apply_edges(square_with_diagonal, [(0, 1)], [(1, 3)])
    tracker.revert_edges(square_with_diagonal, [(0, 1)], [(1, 3)])
    assert sorted(square_with_diagonal.edges()) == before_edges
    # the un-committed tracker still matches the (restored) graph
    assert tracker.wedges == wedge_degree_counts(square_with_diagonal)
    assert tracker.triangles == triangle_degree_counts(square_with_diagonal)


# --------------------------------------------------------------------------- #
# vectorized 3K delta kernel vs the _toggle_remove/_toggle_add reference
# --------------------------------------------------------------------------- #
def _random_simple_graph(seed, n=40, m=100):
    rng = np.random.default_rng(seed)
    graph = SimpleGraph(n)
    attempts = 0
    while graph.number_of_edges < m and attempts < 50 * m:
        attempts += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def _valid_2k_proposals(state, adj, rng, count=8, tries=400):
    """Random valid 2K swaps ``(a,b),(c,d) -> (a,d),(c,b)`` with kb == kd."""
    degrees = state.degrees
    edge_u, edge_v = state.edge_u, state.edge_v
    proposals = []
    for _ in range(tries):
        if len(proposals) >= count:
            break
        i, j = (int(x) for x in rng.integers(state.m, size=2))
        if i == j:
            continue
        a, b = (edge_u[i], edge_v[i]) if rng.integers(2) else (edge_v[i], edge_u[i])
        c, d = (edge_u[j], edge_v[j]) if rng.integers(2) else (edge_v[j], edge_u[j])
        if degrees[b] != degrees[d] or len({a, b, c, d}) < 4:
            continue
        if d in adj[a] or b in adj[c]:
            continue
        proposals.append((a, b, c, d))
    return proposals


def _pack_reference(wedges, triangles, rank, base, tri_off):
    """The toggle reference's dicts as sorted unified rank-packed (key, net)
    items — the degree->rank map is monotone, so tuple component order is
    preserved."""
    packed: dict[int, int] = {}
    for (e1, center, e2), value in wedges.items():
        key = (rank[e1] * base + rank[center]) * base + rank[e2]
        packed[key] = packed.get(key, 0) + value
    for (lo, mid, hi), value in triangles.items():
        key = (rank[lo] * base + rank[mid]) * base + rank[hi] + tri_off
        packed[key] = packed.get(key, 0) + value
    return sorted(item for item in packed.items() if item[1])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_vectorized_delta_matches_toggle_reference(seed):
    """Hypothesis property: the batched and scalar packed-key 3K delta
    evaluators agree item-for-item with the ``_toggle_remove``/``_toggle_add``
    adjacency-set reference on random graphs and random valid 2K swaps."""
    rng = np.random.default_rng(seed)
    graph = _random_simple_graph(seed)
    state = vec.RewiringState(graph)
    adj = state.build_adjacency()
    tk = vec._ThreeKState(state)
    proposals = _valid_2k_proposals(state, adj, rng)
    if not proposals:
        return
    expected = []
    for a, b, c, d in proposals:
        wedges, triangles = vec._swap_three_k_delta(adj, state.degrees, a, b, c, d)
        vec._revert_swap_toggles(adj, a, b, c, d)
        expected.append(
            _pack_reference(wedges, triangles, tk.rank_list, tk.n_ranks, tk.n_ranks**3)
        )
    # scalar evaluator (the within-batch staleness path)
    for (a, b, c, d), want in zip(proposals, expected):
        assert vec._scalar_full_eval(tk, a, b, c, d) == want
        assert vec._scalar_zero_eval(tk, a, b, c, d) == (not want)
    # batched evaluator
    arrays = [np.array(col, dtype=np.int64) for col in zip(*proposals)]
    valid = np.ones(len(proposals), dtype=bool)
    starts, keys, nets, slot_of = vec._batch_full_delta(tk, *arrays, valid)
    zero = vec._batch_zero_delta(tk, *arrays, valid)
    for k, want in enumerate(expected):
        s0, s1 = starts[slot_of[k]], starts[slot_of[k] + 1]
        assert list(zip(keys[s0:s1], nets[s0:s1])) == want
        assert bool(zero[k]) == (not want)


def test_node_triangle_tracking(square_with_diagonal):
    tracker = ThreeKTracker(square_with_diagonal)
    assert tracker.node_triangles == [2, 1, 2, 1]
    delta = tracker.apply_edges(square_with_diagonal, [(0, 2)], [(1, 3)])
    tracker.commit(delta)
    # removing the diagonal destroys both original triangles, but the new
    # diagonal (1,3) closes two fresh ones: (0,1,3) and (1,2,3)
    assert tracker.node_triangles == [1, 2, 1, 2]
