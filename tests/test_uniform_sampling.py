"""The randomizing chains sample the dK-random graphs uniformly.

For each d, every labelled graph that the chain's dK-preserving moves reach
from a small start graph is enumerated, and ``dk_randomize`` runs from the
start graph for 4,000 fixed seeds.  A chi-square test of the visit counts
against the uniform law on that class must give p >= 1e-3 (a threshold set
before the attempt-budget chain existed).

A chain stopped at an accepted-move count samples each graph in proportion
to its number of valid moves instead.  That fails the d = 1 and d = 2
instances below (p = 5.6e-6 and 8.0e-11).  d = 0 is unbiased either way:
every graph with n nodes and m edges has the same number of valid moves.
So has every member of the d = 3 class, so that case cannot see this bias
either; it checks that the batched 3K chain stays in its class and reaches
every member with the uniform frequency.
"""

import itertools

import pytest
from scipy.stats import chisquare

from repro.core.extraction import dk_distribution
from repro.generators.rewiring.preserving import dk_randomize
from repro.graph.simple_graph import SimpleGraph

SEEDS = range(4000)
P_MIN = 1e-3

#: ``d -> (nodes, start edges, class size)``
INSTANCES = {
    # every graph with 5 nodes and 3 edges
    0: (5, [(0, 1), (1, 2), (3, 4)], 120),
    # degrees (3, 3, 2, 2, 1, 1); members differ in their numbers of valid moves
    1: (6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3)], 17),
    # the largest JDD class of the degrees (3, 3, 2, 2, 2, 1, 1)
    2: (7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (3, 4), (4, 6)], 60),
    # paths of three and two edges; every member has as many valid moves
    3: (7, [(0, 1), (0, 2), (1, 3), (4, 5), (4, 6)], 36),
}


def _graph(n, edges):
    graph = SimpleGraph(n)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def _proposals(edges, n, d):
    """Edge sets one d-level proposal away from ``edges``: an edge moved to
    a free node pair for d = 0, a double swap for d >= 1 (of equal-degree
    heads for d >= 2)."""
    if d == 0:
        for edge in edges:
            for pair in itertools.combinations(range(n), 2):
                if pair not in edges:
                    yield (edges - {edge}) | {pair}
        return
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for first, second in itertools.permutations(sorted(edges), 2):
        for a, b in (first, first[::-1]):
            for c, d_ in (second, second[::-1]):
                if d >= 2 and degree[b] != degree[d_]:
                    continue
                ad = (min(a, d_), max(a, d_))
                cb = (min(c, b), max(c, b))
                if a == d_ or c == b or ad in edges or cb in edges:
                    continue
                yield (edges - {first, second}) | {ad, cb}


def _dk_class(n, edges, d):
    """Every edge set with the start's P_d that its moves reach."""
    target = dk_distribution(_graph(n, edges), d)
    start = frozenset(edges)
    seen = {start}
    frontier = [start]
    while frontier:
        for proposal in _proposals(frontier.pop(), n, d):
            member = frozenset(proposal)
            if member not in seen and dk_distribution(_graph(n, member), d) == target:
                seen.add(member)
                frontier.append(member)
    return seen


@pytest.mark.parametrize("d", sorted(INSTANCES))
def test_randomize_samples_its_dk_class_uniformly(d):
    n, edges, size = INSTANCES[d]
    members = _dk_class(n, edges, d)
    assert len(members) == size
    index = {member: k for k, member in enumerate(members)}
    start = _graph(n, edges)
    counts = [0] * size
    for seed in SEEDS:
        rewired = dk_randomize(start, d, rng=seed, multiplier=10)
        counts[index[frozenset(rewired.edges())]] += 1
    assert chisquare(counts).pvalue >= P_MIN
