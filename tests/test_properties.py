"""Property-based tests (hypothesis) for the core invariants of the dK-series."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import pack_three_k_delta, three_k_delta_by_recount
from oracle.triangles_python import triangle_degree_counts, wedge_degree_counts
from repro.core.distance import dk_distance
from repro.core.distributions import DegreeDistribution
from repro.core.extraction import (
    degree_distribution,
    dk_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.generators.rewiring.preserving import dk_randomize
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import (
    RewiringState,
    _batch_full_delta,
    _batch_zero_delta,
    _scalar_full_eval,
    _scalar_zero_eval,
    _ThreeKState,
)


@st.composite
def random_simple_graphs(draw, max_nodes=14, max_extra_edges=18):
    """Random connected-ish simple graphs built from a random edge set."""
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    edge_count = draw(st.integers(min_value=1, max_value=max_extra_edges))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=edge_count,
            max_size=edge_count,
        )
    )
    graph = SimpleGraph(n)
    for u, v in pairs:
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    # ensure at least one edge so the distributions are non-trivial
    if graph.number_of_edges == 0:
        graph.add_edge(0, 1)
    return graph


@given(random_simple_graphs())
@settings(max_examples=60, deadline=None)
def test_inclusion_property(graph):
    """P_d determines P_{d-1}: projections of extracted distributions agree."""
    three_k = three_k_distribution(graph)
    two_k = joint_degree_distribution(graph)
    one_k = degree_distribution(graph)
    assert three_k.to_lower() == two_k
    assert two_k.to_lower() == one_k
    zero_k = one_k.to_lower()
    assert zero_k.nodes == graph.number_of_nodes
    assert zero_k.edges == graph.number_of_edges


@given(random_simple_graphs())
@settings(max_examples=40, deadline=None)
def test_dk_distance_is_zero_only_for_matching_distributions(graph):
    for d in range(4):
        assert dk_distance(dk_distribution(graph, d), dk_distribution(graph, d)) == 0.0


# tiny random graphs often have a frozen dK-space, so the chain stops short
@pytest.mark.filterwarnings("ignore::repro.exceptions.RewiringConvergenceWarning")
@given(random_simple_graphs(), st.integers(min_value=0, max_value=3), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_dk_randomize_preserves_the_distribution(graph, d, seed):
    """The defining invariant of dK-preserving rewiring."""
    rewired = dk_randomize(graph, d, rng=seed, multiplier=2)
    assert dk_distance(dk_distribution(graph, d), dk_distribution(rewired, d)) == 0.0


@given(random_simple_graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_three_k_tracker_matches_recount_after_random_swaps(graph, seed):
    """The engine's incremental 3K bookkeeping (a ``_ThreeKState`` updated
    per accepted move, flushed at every step) gives each 2K swap the delta
    of the recount oracle in all four evaluators, and the deltas add up to a
    from-scratch recount after any sequence of such swaps."""
    rng = np.random.default_rng(seed)
    state = RewiringState(graph)
    tk = _ThreeKState(state)
    degrees = graph.degrees()
    # oriented edge (tail, head) -> (slot, side) of its packed end
    ends = {}
    for slot, (u, v) in enumerate(zip(state.edge_u, state.edge_v)):
        ends[(u, v)] = (slot, 0)
        ends[(v, u)] = (slot, 1)
    wedges = wedge_degree_counts(graph)
    triangles = triangle_degree_counts(graph)
    for _ in range(20):
        if graph.number_of_edges < 2:
            break
        a, b = graph.edge_at(int(rng.integers(graph.number_of_edges)))
        c, d = graph.edge_at(int(rng.integers(graph.number_of_edges)))
        if rng.random() < 0.5:
            c, d = d, c
        # (a,b),(c,d) -> (a,d),(c,b) must be a simple-graph 2K move
        if a == d or c == b or {a, b} == {c, d} or graph.has_edge(a, d) or graph.has_edge(c, b):
            continue
        if degrees[b] != degrees[d]:
            continue
        wedge_delta, triangle_delta = three_k_delta_by_recount(graph, a, b, c, d)
        want = pack_three_k_delta(wedge_delta, triangle_delta, tk.rank_list, tk.n_ranks)
        assert _scalar_full_eval(tk, a, b, c, d) == want
        assert _scalar_zero_eval(tk, a, b, c, d) == (not want)
        arrays = [np.array([x], dtype=np.int64) for x in (a, b, c, d)]
        one = np.ones(1, dtype=bool)
        starts, keys, nets, _ = _batch_full_delta(tk, *arrays, one)
        assert list(zip(keys.tolist(), nets.tolist())) == want
        assert bool(_batch_zero_delta(tk, *arrays, one)[0]) == (not want)
        wedges.update(wedge_delta)
        triangles.update(triangle_delta)
        i, si = ends.pop((a, b))
        j, sj = ends.pop((c, d))
        del ends[(b, a)], ends[(d, c)]
        tk.apply_swap(a, b, c, d, i, j, si, sj)
        tk.flush()
        ends[(a, d)], ends[(d, a)] = (i, si), (i, 1 - si)
        ends[(c, b)], ends[(b, c)] = (j, sj), (j, 1 - sj)
        for u, v in ((a, b), (c, d)):
            graph.remove_edge(u, v)
        for u, v in ((a, d), (c, b)):
            graph.add_edge(u, v)
    assert wedges == wedge_degree_counts(graph)
    assert triangles == triangle_degree_counts(graph)


@given(random_simple_graphs())
@settings(max_examples=40, deadline=None)
def test_wedge_and_triangle_totals_consistency(graph):
    """Open wedges + 3*triangles equals the number of connected triples."""
    triples = sum(k * (k - 1) // 2 for k in graph.degrees())
    wedges = sum(wedge_degree_counts(graph).values())
    triangles = sum(triangle_degree_counts(graph).values())
    assert wedges + 3 * triangles == triples


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_degree_distribution_roundtrip(degrees):
    """DegreeDistribution.degree_sequence() inverts from_degree_sequence()."""
    one_k = DegreeDistribution.from_degree_sequence(degrees)
    assert Counter(one_k.degree_sequence()) == Counter(degrees)
    assert one_k.nodes == len(degrees)


@given(random_simple_graphs())
@settings(max_examples=30, deadline=None)
def test_jdd_edge_counts_sum_to_edges(graph):
    jdd = joint_degree_distribution(graph)
    assert jdd.edges == graph.number_of_edges
    assert jdd.nodes == graph.number_of_nodes
