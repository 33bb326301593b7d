"""Tests for the rewiring engine's 3K delta evaluators.

The per-edge toggles ``_toggle_remove``/``_toggle_add`` (and the swap-level
``_swap_three_k_delta`` built on them) are the adjacency-set reference the
batched and scalar packed-key evaluators are checked against; they are in
turn checked against from-scratch wedge/triangle recounts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.simple_graph import SimpleGraph
from repro.graph.subgraphs import triangle_degree_counts, wedge_degree_counts
from repro.kernels import rewiring as vec


def _adjacency(graph):
    return [set(graph.neighbors(u)) for u in range(graph.number_of_nodes)]


def test_remove_edge_delta_on_triangle(triangle_graph):
    adj = _adjacency(triangle_graph)
    wedges, triangles = {}, {}
    vec._toggle_remove(adj, triangle_graph.degrees(), 0, 1, wedges, triangles)
    assert triangles == {(2, 2, 2): -1}
    assert wedges == {(2, 2, 2): 1}
    assert 1 not in adj[0] and 0 not in adj[1]


def test_add_edge_delta_closes_wedge(path_graph):
    adj = _adjacency(path_graph)
    wedges, triangles = {}, {}
    vec._toggle_add(adj, path_graph.degrees(), 0, 2, wedges, triangles)
    # closing 0-1-2 turns that wedge into a triangle and creates new wedges
    assert sum(triangles.values()) == 1
    assert 2 in adj[0] and 0 in adj[2]


def _graph_of(adj):
    return SimpleGraph(len(adj), edges=[(u, v) for u in range(len(adj)) for v in adj[u] if u < v])


def test_toggle_deltas_match_full_recount(as_small):
    """Applying random 2K swaps through the engine's ``_swap_three_k_delta``
    (committing every other one, reverting the rest), the accumulated deltas
    always equal a from-scratch recount of the wedge and triangle
    distributions."""
    rng = np.random.default_rng(3)
    state = vec.RewiringState(as_small)
    buckets = [b for b in state.build_buckets() if len(b) > 1]
    adj = state.build_adjacency()
    degrees = state.degrees
    wedges = wedge_degree_counts(as_small)
    triangles = triangle_degree_counts(as_small)
    applied = 0
    for _ in range(300):
        # exchanging the heads of two oriented ends from one degree bucket
        # is a JDD-preserving swap; slots are re-read from the live arrays
        bucket = buckets[int(rng.integers(len(buckets)))]
        x, y = rng.choice(len(bucket), size=2, replace=False)
        ends = np.array([bucket[x], bucket[y]], dtype=np.int64)
        slots, sides, tails, heads = vec._resolve_ends(
            np.array(state.edge_u), np.array(state.edge_v), ends
        )
        (i, j), (a, c), (b, d) = slots.tolist(), tails.tolist(), heads.tolist()
        if i == j or a == d or c == b or d in adj[a] or b in adj[c]:
            continue
        wedge_delta, triangle_delta = vec._swap_three_k_delta(adj, degrees, a, b, c, d)
        if applied % 2 == 0:
            wedges.update(wedge_delta)
            triangles.update(triangle_delta)
            for slot, side, head in zip((i, j), sides.tolist(), (d, b)):
                if side:
                    state.edge_u[slot] = head
                else:
                    state.edge_v[slot] = head
        else:
            vec._revert_swap_toggles(adj, a, b, c, d)
        applied += 1
    assert applied > 50
    graph = _graph_of(adj)
    assert sorted(graph.edges()) == sorted(state.to_graph().edges())
    assert wedges == wedge_degree_counts(graph)
    assert triangles == triangle_degree_counts(graph)


def test_revert_restores_graph(path_graph):
    adj = _adjacency(path_graph)
    before = [set(row) for row in adj]
    # (0,1),(3,4) -> (0,4),(3,1)
    vec._swap_three_k_delta(adj, path_graph.degrees(), 0, 1, 3, 4)
    assert adj != before
    vec._revert_swap_toggles(adj, 0, 1, 3, 4)
    assert adj == before


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
