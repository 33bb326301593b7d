"""Tests for the rewiring engine's 3K delta evaluators and their state.

The oracle is :func:`oracle.three_k_delta_by_recount`: a swap applied to a
copy of the graph, and the wedge/triangle counts of both graphs diffed.  Both
evaluators (the zero verdict and the full delta) are checked against it, on
fresh graphs and on a state that accepted moves through ``apply_swap``.  The
state's per-node neighbor-degree sums (the zero verdict's O(1) first filter)
and histograms are checked against a recount, the 3K-targeting gradient
against the counts it is built from, and every leaf exchange (which loop 3
takes without evaluating it) against the recount oracle.
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


def _accept(tk, graph, a, b, c, d):
    """Accept ``(a,b),(c,d) -> (a,d),(c,b)`` on the engine state and on
    ``graph``."""
    tk.apply_swap(a, b, c, d)
    graph.remove_edge(a, b)
    graph.remove_edge(c, d)
    graph.add_edge(a, d)
    graph.add_edge(c, b)


def _full_delta(tk, a, b, c, d, base):
    """The full evaluator's delta without its zero-net keys."""
    delta = vec._scalar_full_eval(tk, a, b, c, d, base)
    return {key: net for key, net in delta.items() if net}


def _check_evaluators(tk, graph, proposals):
    """Both evaluators on ``tk`` (in sync with ``graph``) equal the recount
    oracle on every proposal; returns the oracle's packed deltas."""
    base = max(graph.degrees()) + 1
    expected = []
    for a, b, c, d in proposals:
        want = pack_three_k_delta(*three_k_delta_by_recount(graph, a, b, c, d), base)
        assert _full_delta(tk, a, b, c, d, base) == want
        assert vec._scalar_zero_eval(tk, a, b, c, d) == (not want)
        expected.append(want)
    return expected


def _check_neighborhoods(tk, graph):
    """The state's neighbor sets, neighbor-degree histograms and sums equal
    a recount over ``graph``."""
    degrees = graph.degrees()
    for node in range(graph.number_of_nodes):
        row = graph.neighbors(node)
        assert tk.nbrs[node] == row
        hist = {}
        for x in row:
            hist[degrees[x]] = hist.get(degrees[x], 0) + 1
        assert dict(tk.nbrdeg[node]) == hist
        assert tk.nbrdeg_sum[node] == sum(degrees[x] for x in row)


def test_toggle_deltas_match_full_recount(as_small):
    """Random 2K swaps accepted on the engine state (``apply_swap``): both
    evaluators' deltas on the live state equal the recount oracle's, the
    accumulated deltas equal a from-scratch recount, and the state's
    neighborhoods end on the graph the swaps produced."""
    rng = np.random.default_rng(3)
    graph = as_small.copy()
    tk = vec._ThreeKState(vec.RewiringState(graph))
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
        _accept(tk, graph, a, b, c, d)
        applied += bool(expected[0])
    assert applied > 10
    assert wedges == wedge_degree_counts(graph)
    assert triangles == triangle_degree_counts(graph)
    _check_neighborhoods(tk, graph)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_delta_matches_recount_oracle(seed):
    """Hypothesis property: both 3K delta evaluators agree with the recount
    oracle on random graphs and random valid 2K swaps."""
    rng = np.random.default_rng(seed)
    graph = _random_simple_graph(seed)
    tk = vec._ThreeKState(vec.RewiringState(graph))
    proposals = _valid_2k_proposals(graph, rng)
    if proposals:
        _check_evaluators(tk, graph, proposals)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_leaf_exchange_has_an_empty_recount_delta(seed):
    """Hypothesis property: a valid 2K swap that exchanges two leaves
    (``kb == 1``, or ``ka == kc == 1``) only relabels the graph, so the
    recount oracle finds no wedge or triangle change — which is why loop 3
    and the Table-5 counter take it without evaluating it."""
    graph = _random_simple_graph(seed, n=30, m=36)
    degrees = graph.degrees()
    leaf_swaps = [
        (a, b, c, d)
        for a, b, c, d in _all_valid_2k_swaps(graph)
        if degrees[b] == 1 or degrees[a] == degrees[c] == 1
    ]
    for a, b, c, d in leaf_swaps:
        assert three_k_delta_by_recount(graph, a, b, c, d) == ({}, {})


def test_leaf_exchanges_are_enumerated():
    """The leaf-exchange property above is not vacuous: its sparse random
    graphs hold leaf exchanges of both kinds."""
    kinds = set()
    for seed in range(5):
        graph = _random_simple_graph(seed, n=30, m=36)
        degrees = graph.degrees()
        for a, b, c, _ in _all_valid_2k_swaps(graph):
            kinds.add((degrees[b] == 1, degrees[a] == degrees[c] == 1))
    assert (True, False) in kinds and (False, True) in kinds


def test_zero_verdict_filter_never_decides():
    """The neighbor-degree-sum test only rejects swaps the exact zero-delta
    checks reject too.  On every valid degree-matched swap of a small
    mixed-degree graph, fresh and after accepted moves, the zero-delta
    evaluator equals the recount oracle, and the enumeration holds
    ``ka != kc`` swaps of both verdicts and sum-matching swaps that the exact
    checks behind the filter still reject."""
    graph = _random_simple_graph(2, n=20, m=40)
    tk = vec._ThreeKState(vec.RewiringState(graph))
    degrees = graph.degrees()
    kinds = set()
    for round_ in range(3):
        if round_:
            # accept a few ka != kc swaps (they move the sums)
            for _ in range(3):
                a, b, c, d = next(
                    swap
                    for swap in _all_valid_2k_swaps(graph)
                    if degrees[swap[0]] != degrees[swap[2]]
                )
                _accept(tk, graph, a, b, c, d)
        swaps = _all_valid_2k_swaps(graph)
        nodes = range(graph.number_of_nodes)
        sums = [sum(degrees[x] for x in graph.neighbors(u)) for u in nodes]
        assert tk.nbrdeg_sum == sums
        for a, b, c, d in swaps:
            zero = three_k_delta_by_recount(graph, a, b, c, d) == ({}, {})
            assert vec._scalar_zero_eval(tk, a, b, c, d) == zero
            if degrees[a] != degrees[c]:
                sums_match = sums[b] - degrees[a] == sums[d] - degrees[c]
                kinds.add((sums_match, zero))
    assert (True, True) in kinds and (False, False) in kinds
    assert (True, False) in kinds  # passed the filter, rejected behind it
    assert (False, True) not in kinds


def test_neighbor_degree_sums_follow_swaps(as_small):
    """An accepted move and its exact reverse, then more moves on the hub's
    row, leave the per-node neighbor sets, neighbor-degree histograms and
    sums equal to a fresh recount over the rewired graph."""
    graph = as_small.copy()
    tk = vec._ThreeKState(vec.RewiringState(graph))
    before = list(tk.nbrdeg_sum)
    rng = np.random.default_rng(11)
    degrees = graph.degrees()
    hub = int(np.argmax(degrees))
    a, b, c, d = _valid_2k_proposals(graph, rng, count=1, tail=hub)[0]
    _accept(tk, graph, a, b, c, d)
    _accept(tk, graph, a, d, c, b)  # the exact reverse
    _check_neighborhoods(tk, graph)
    assert tk.nbrdeg_sum == before
    hub_moves = 0
    for _ in range(20):
        # moves on the live graph, so later ones may rewrite earlier ones
        for a, b, c, d in _valid_2k_proposals(graph, rng, count=1, tail=hub):
            _accept(tk, graph, a, b, c, d)
            hub_moves += 1
    assert hub_moves >= 5
    _check_neighborhoods(tk, graph)
    assert tk.nbrdeg_sum != before


def test_gradient_is_twice_the_count_difference(hot_small):
    """The 3K-targeting gradient holds ``2 (current - target)`` at every
    degree-packed key where the counts differ and nothing elsewhere, and
    the start energy is the squared distance between the two counts."""
    target = three_k_distribution(hot_small)
    graph = _random_simple_graph(5, n=60, m=150)
    degrees = [k for key in (*target.wedges, *target.triangles) for k in key]
    base = 1 + max(max(graph.degrees()), max(degrees))
    grad, energy = vec._gradient(target, graph, base)
    wedges = wedge_degree_counts(graph)
    triangles = triangle_degree_counts(graph)
    wedges.subtract(target.wedges)
    triangles.subtract(target.triangles)
    diff = pack_three_k_delta(dict(wedges), dict(triangles), base)
    assert grad == {key: 2 * value for key, value in diff.items()}
    assert energy == sum(value * value for value in diff.values())
