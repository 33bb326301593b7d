"""Tests for the rewiring engine's 3K delta evaluators and their state.

The oracle is :func:`oracle.three_k_delta_by_recount`: a swap applied to a
copy of the graph, and the wedge/triangle counts of both graphs diffed.  All
four evaluators (batched and per-move, zero verdict and full delta) are
checked against it, on fresh graphs and on a state that accepted moves.
The state's two membership tables (bitset and sorted arc keys) and two
gradient layouts (dense and sparse) are checked against each other, and its
per-node neighbor-degree sums (the zero verdict's O(1) first filter) against
a recount.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import pack_three_k_delta, three_k_delta_by_recount
from oracle.triangles_python import triangle_degree_counts, wedge_degree_counts
from repro.core.extraction import three_k_distribution
from repro.graph.simple_graph import SimpleGraph
from repro.kernels import rewiring as vec


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


def _valid_2k_proposals(graph, rng, count=8, tries=400, tail=None):
    """Random valid 2K swaps ``(a,b),(c,d) -> (a,d),(c,b)`` with kb == kd
    (``a`` is ``tail`` when given)."""
    degrees = graph.degrees()
    proposals = []
    for _ in range(tries):
        if len(proposals) >= count:
            break
        a, b = graph.edge_at(int(rng.integers(graph.number_of_edges)))
        c, d = graph.edge_at(int(rng.integers(graph.number_of_edges)))
        if rng.integers(2):
            a, b = b, a
        if rng.integers(2):
            c, d = d, c
        if tail is not None:
            row = sorted(graph.neighbors(tail))
            a, b = tail, row[int(rng.integers(len(row)))]
        if degrees[b] != degrees[d] or len({a, b, c, d}) < 4:
            continue
        if graph.has_edge(a, d) or graph.has_edge(c, b):
            continue
        proposals.append((a, b, c, d))
    return proposals


def _all_valid_2k_swaps(graph):
    """Every valid 2K swap ``(a,b),(c,d) -> (a,d),(c,b)`` with kb == kd,
    over both orientations of every ordered pair of edges."""
    degrees = graph.degrees()
    arcs = [arc for u, v in graph.edges() for arc in ((u, v), (v, u))]
    return [
        (a, b, c, d)
        for a, b in arcs
        for c, d in arcs
        if degrees[b] == degrees[d]
        and len({a, b, c, d}) == 4
        and not graph.has_edge(a, d)
        and not graph.has_edge(c, b)
    ]


def _ends(state):
    """Oriented edge ``(tail, head)`` -> ``(slot, side)`` of the packed end."""
    ends = {}
    for slot, (u, v) in enumerate(zip(state.edge_u, state.edge_v)):
        ends[(u, v)] = (slot, 0)
        ends[(v, u)] = (slot, 1)
    return ends


def _accept(tks, graph, ends, a, b, c, d):
    """Accept ``(a,b),(c,d) -> (a,d),(c,b)`` on every engine state in
    ``tks`` (queued until their next flush) and on ``graph``."""
    i, si = ends.pop((a, b))
    j, sj = ends.pop((c, d))
    del ends[(b, a)], ends[(d, c)]
    for tk in tks:
        tk.apply_swap(a, b, c, d, i, j, si, sj)
    ends[(a, d)], ends[(d, a)] = (i, si), (i, 1 - si)
    ends[(c, b)], ends[(b, c)] = (j, sj), (j, 1 - sj)
    graph.remove_edge(a, b)
    graph.remove_edge(c, d)
    graph.add_edge(a, d)
    graph.add_edge(c, b)


def _check_evaluators(tk, graph, proposals):
    """All four evaluators on ``tk`` (flushed, in sync with ``graph``) equal
    the recount oracle on every proposal; returns the oracle's items."""
    expected = [
        pack_three_k_delta(
            *three_k_delta_by_recount(graph, a, b, c, d), tk.rank_list, tk.n_ranks
        )
        for a, b, c, d in proposals
    ]
    # per-move evaluators (the within-batch staleness path)
    for (a, b, c, d), want in zip(proposals, expected):
        assert vec._scalar_full_eval(tk, a, b, c, d) == want
        assert vec._scalar_zero_eval(tk, a, b, c, d) == (not want)
    # batched evaluators
    arrays = [np.array(col, dtype=np.int64) for col in zip(*proposals)]
    valid = np.ones(len(proposals), dtype=bool)
    starts, keys, nets, slot_of = vec._batch_full_delta(tk, *arrays, valid)
    zero = vec._batch_zero_delta(tk, *arrays, valid)
    for k, want in enumerate(expected):
        s0, s1 = starts[slot_of[k]], starts[slot_of[k] + 1]
        assert list(zip(keys[s0:s1].tolist(), nets[s0:s1].tolist())) == want
        assert bool(zero[k]) == (not want)
    return expected


def _arc_keys(tk):
    """Fresh sorted packed arc keys ``owner * n + neighbor`` of ``tk.rows``."""
    owner = np.repeat(np.arange(tk.n, dtype=np.int64), tk.deg)
    return np.sort(owner * tk.n + tk.rows)


def test_toggle_deltas_match_full_recount(as_small):
    """Random 2K swaps accepted on the engine state (``apply_swap``, then
    ``flush``): every evaluator's delta on the live state equals the recount
    oracle's, the accumulated deltas equal a from-scratch recount, and the
    state's rows end on the graph the swaps produced."""
    rng = np.random.default_rng(3)
    graph = as_small.copy()
    state = vec.RewiringState(graph)
    state.build_buckets()
    tk = vec._ThreeKState(state)
    ends = _ends(state)
    wedges = wedge_degree_counts(graph)
    triangles = triangle_degree_counts(graph)
    applied = 0
    for _ in range(40):
        proposals = _valid_2k_proposals(graph, rng, count=4)
        expected = _check_evaluators(tk, graph, proposals)
        # accept the first proposal of each round, with its oracle delta
        a, b, c, d = proposals[0]
        wedge_delta, triangle_delta = three_k_delta_by_recount(graph, a, b, c, d)
        wedges.update(wedge_delta)
        triangles.update(triangle_delta)
        _accept([tk], graph, ends, a, b, c, d)
        tk.flush()
        applied += bool(expected[0])
    assert applied > 10
    assert wedges == wedge_degree_counts(graph)
    assert triangles == triangle_degree_counts(graph)
    for node in range(graph.number_of_nodes):
        row = tk.rows[tk.indptr[node] : tk.indptr[node + 1]]
        assert set(row.tolist()) == graph.neighbors(node)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_vectorized_delta_matches_recount_oracle(seed):
    """Hypothesis property: the batched and per-move 3K delta evaluators
    agree item-for-item with the recount oracle on random graphs and random
    valid 2K swaps."""
    rng = np.random.default_rng(seed)
    graph = _random_simple_graph(seed)
    tk = vec._ThreeKState(vec.RewiringState(graph))
    proposals = _valid_2k_proposals(graph, rng)
    if proposals:
        _check_evaluators(tk, graph, proposals)


def test_zero_verdict_filter_never_decides():
    """The neighbor-degree-sum test only rejects swaps the exact zero-delta
    checks reject too.  On every valid degree-matched swap of a small
    mixed-degree graph, fresh and after accepted moves plus ``flush``, both
    zero-delta evaluators equal the recount oracle, and the enumeration holds
    ``ka != kc`` swaps of both verdicts and sum-matching swaps that the exact
    checks behind the filter still reject."""
    graph = _random_simple_graph(2, n=20, m=40)
    state = vec.RewiringState(graph)
    tk = vec._ThreeKState(state)
    ends = _ends(state)
    degrees = graph.degrees()
    kinds = set()
    for round_ in range(3):
        if round_:
            # accept a few ka != kc swaps (they move the sums), then flush
            for _ in range(3):
                a, b, c, d = next(
                    swap
                    for swap in _all_valid_2k_swaps(graph)
                    if degrees[swap[0]] != degrees[swap[2]]
                )
                _accept([tk], graph, ends, a, b, c, d)
            tk.flush()
        swaps = _all_valid_2k_swaps(graph)
        nodes = range(graph.number_of_nodes)
        sums = [sum(degrees[x] for x in graph.neighbors(u)) for u in nodes]
        assert tk.nbrdeg_sum_list == sums
        assert tk.nbrdeg_sum.tolist() == sums
        arrays = [np.array(col, dtype=np.int64) for col in zip(*swaps)]
        batch = vec._batch_zero_delta(tk, *arrays, np.ones(len(swaps), dtype=bool))
        for (a, b, c, d), batch_zero in zip(swaps, batch.tolist()):
            zero = three_k_delta_by_recount(graph, a, b, c, d) == ({}, {})
            assert batch_zero == zero
            assert vec._scalar_zero_eval(tk, a, b, c, d) == zero
            if degrees[a] != degrees[c]:
                sums_match = sums[b] - degrees[a] == sums[d] - degrees[c]
                kinds.add((sums_match, zero))
    assert (True, True) in kinds and (False, False) in kinds
    assert (True, False) in kinds  # passed the filter, rejected behind it
    assert (False, True) not in kinds


def _flush_move_reverse_and_hub_moves(tks, graph, state):
    """Queue one accepted move on a hub's row, its exact reverse and more
    hub-row moves on every state in ``tks``, then flush them all at once."""
    ends = _ends(state)
    rng = np.random.default_rng(11)
    hub = int(np.argmax(tks[0].deg))
    a, b, c, d = _valid_2k_proposals(graph, rng, count=1, tail=hub)[0]
    _accept(tks, graph, ends, a, b, c, d)
    _accept(tks, graph, ends, a, d, c, b)  # the exact reverse
    hub_moves = 0
    for _ in range(20):
        # moves on the live graph, so later ones may rewrite earlier ones
        for a, b, c, d in _valid_2k_proposals(graph, rng, count=1, tail=hub):
            _accept(tks, graph, ends, a, b, c, d)
            hub_moves += 1
    assert hub_moves >= 5
    for tk in tks:
        tk.flush()


def test_arc_keys_follow_flush(as_small, monkeypatch):
    """Beyond ``BITSET_MAX_NODES`` membership is a sorted packed arc-key
    array updated at ``flush``.  A flush that holds an accepted move and its
    exact reverse, plus moves on the hub's row, leaves it equal to a fresh
    sort of the rows, and it agrees with the bitset on every node pair."""
    graph = as_small.copy()
    state = vec.RewiringState(graph)
    bitset = vec._ThreeKState(state)
    monkeypatch.setattr(vec, "BITSET_MAX_NODES", 0)
    arcs = vec._ThreeKState(state)
    assert bitset.arcs is None and arcs.bits is None
    assert np.array_equal(arcs.arcs, _arc_keys(arcs))
    _flush_move_reverse_and_hub_moves([bitset, arcs], graph, state)
    assert np.array_equal(arcs.arcs, _arc_keys(arcs))
    n = graph.number_of_nodes
    u, v = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    member = arcs.member(u, v)
    assert np.array_equal(member, bitset.member(u, v))
    assert member.sum() == 2 * graph.number_of_edges
    assert all(member[a * n + b] for a, b in graph.edges())


def test_neighbor_degree_sums_follow_flush(as_small):
    """The per-node neighbor-degree sums are a live list updated per accepted
    move and a NumPy mirror updated at ``flush``.  A flush that holds an
    accepted move and its exact reverse, plus moves on the hub's row, leaves
    both equal to a fresh per-node sum over the rows."""
    graph = as_small.copy()
    state = vec.RewiringState(graph)
    tk = vec._ThreeKState(state)
    before = tk.nbrdeg_sum.copy()
    _flush_move_reverse_and_hub_moves([tk], graph, state)
    owner = np.repeat(np.arange(tk.n, dtype=np.int64), tk.deg)
    fresh = np.bincount(owner, weights=tk.deg[tk.rows], minlength=tk.n).astype(np.int64)
    assert not np.array_equal(fresh, before)
    assert tk.nbrdeg_sum_list == fresh.tolist()
    assert np.array_equal(tk.nbrdeg_sum, fresh)


def test_sparse_gradient_reads_and_updates_like_dense(hot_small, monkeypatch):
    """Beyond ``THREEK_RANK_SLOTS_MAX`` the gradient is a sorted sparse
    array: it reads the dense array's value at every key (0 off the stored
    keys) and stays equal to it under scattered updates, inserts included."""
    target = three_k_distribution(hot_small)
    graph = _random_simple_graph(5, n=60, m=150)
    rng = np.random.default_rng(2)
    tk = vec._ThreeKState(vec.RewiringState(graph))
    target_degrees = [k for key in (*target.wedges, *target.triangles) for k in key]
    kd = np.unique(np.concatenate((tk.deg, np.array(target_degrees, dtype=np.int64))))
    tk.rank_by(kd)
    dense, energy = vec._gradient(target, tk, graph)
    monkeypatch.setattr(vec, "THREEK_RANK_SLOTS_MAX", 0)
    sparse, sparse_energy = vec._gradient(target, tk, graph)
    monkeypatch.undo()
    assert isinstance(sparse, vec._SparseGradient)
    assert sparse_energy == energy
    every = np.arange(dense.size, dtype=np.int64)
    assert np.array_equal(sparse[every], dense)
    for _ in range(30):
        keys = np.unique(rng.integers(0, dense.size, size=5))
        step = rng.integers(-3, 4, size=keys.size)
        dense[keys] += step
        sparse[keys] += step
    assert np.array_equal(sparse[every], dense)

