"""Tests for dK-preserving randomizing rewiring (d = 0..3)."""

import hashlib
from contextlib import nullcontext

import pytest

from repro.core.extraction import (
    degree_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.core.distance import graph_dk_distance
from repro.exceptions import RewiringConvergenceWarning
from repro.graph.simple_graph import SimpleGraph
from repro.generators.rewiring.preserving import (
    dk_randomize,
    verify_randomization_converged,
)
from repro.metrics.assortativity import likelihood


def test_randomize_0k_preserves_only_density(as_small):
    rewired = dk_randomize(as_small, 0, rng=1, multiplier=3)
    assert rewired.number_of_edges == as_small.number_of_edges
    assert rewired.number_of_nodes == as_small.number_of_nodes
    # degrees are destroyed (with overwhelming probability)
    assert degree_distribution(rewired) != degree_distribution(as_small)


def test_randomize_1k_preserves_degrees(as_small):
    rewired = dk_randomize(as_small, 1, rng=2, multiplier=3)
    assert degree_distribution(rewired) == degree_distribution(as_small)
    # the JDD is (generally) not preserved
    assert graph_dk_distance(as_small, rewired, 2) > 0


def test_randomize_2k_preserves_jdd(as_small):
    rewired = dk_randomize(as_small, 2, rng=3, multiplier=3)
    assert joint_degree_distribution(rewired) == joint_degree_distribution(as_small)


def test_randomize_2k_changes_three_k(as_small):
    rewired = dk_randomize(as_small, 2, rng=3, multiplier=3)
    assert graph_dk_distance(as_small, rewired, 3) > 0


def test_randomize_3k_preserves_wedges_and_triangles(hot_small, as_small):
    for graph in (hot_small, as_small):
        # the AS graph's 3K chain exhausts this fixed budget
        with pytest.warns(RewiringConvergenceWarning) if graph is as_small else nullcontext():
            rewired = dk_randomize(graph, 3, rng=4, multiplier=2, max_attempt_factor=30)
        original_3k = three_k_distribution(graph)
        rewired_3k = three_k_distribution(rewired)
        assert rewired_3k.wedges == original_3k.wedges
        assert rewired_3k.triangles == original_3k.triangles
        assert rewired_3k.jdd == original_3k.jdd


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frozen_star_reports_frozen_without_warning(d):
    # every pair of star edges shares the hub, so no dK-preserving move
    # exists for d >= 1 and no attempt budget could help
    star = SimpleGraph.from_edges((0, leaf) for leaf in range(1, 14))
    stats = {}
    rewired = dk_randomize(star, d, rng=1, stats=stats)  # warnings are errors here
    assert stats["frozen"] is True
    assert stats["accepted_moves"] == 0
    assert rewired == star


def test_frozen_single_edge_at_d0():
    edge = SimpleGraph.from_edges([(0, 1)])
    stats = {}
    dk_randomize(edge, 0, rng=1, stats=stats)
    assert stats["frozen"] is True


def test_unfrozen_chain_has_no_frozen_flag(as_small):
    stats = {}
    dk_randomize(as_small, 1, rng=1, multiplier=1, stats=stats)
    assert stats["accepted_moves"] > 0
    assert "frozen" not in stats


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
    rewired = dk_randomize(as_small, 1, rng=7, multiplier=5)
    assert likelihood(rewired) != original_s


def test_verify_randomization_converged(as_small):
    randomized = dk_randomize(as_small, 1, rng=8, multiplier=5)
    assert verify_randomization_converged(
        randomized, 1, likelihood, rng=9, relative_tolerance=0.2
    )


def test_inputs_are_not_mutated(as_small):
    checksum = (as_small.number_of_edges, sorted(as_small.edges()))
    dk_randomize(as_small, 2, rng=10, multiplier=1)
    assert (as_small.number_of_edges, sorted(as_small.edges())) == checksum


#: ``dk_randomize(as_small, d, rng=5, multiplier=1)`` for d = 0..3: the
#: SHA-256 of the sorted edge list and the full stats dict.  Any change to a
#: move, the pilot, the attempt budget or the stats shows up here.
GOLDEN = {
    0: (
        "5b44fa63039431647e2c5207f0872f2d45c3cc7904b07987a3f3b6d8f5bd40dd",
        {"target_moves": 742, "accepted_moves": 745, "attempted_moves": 760,
         "converged": True, "engine": "csr",
         "pilot_accept_rate": 0.977088948787062,
         "accept_rate": 0.9802631578947368},
    ),
    1: (
        "8c296105ab41dff794b6ac65b1f04f60afa5b0e8a88482c314a4bfe7aeabac72",
        {"target_moves": 742, "accepted_moves": 734, "attempted_moves": 924,
         "converged": True, "engine": "csr",
         "pilot_accept_rate": 0.8032345013477089,
         "accept_rate": 0.7943722943722944},
    ),
    2: (
        "9310092bd24ec24244779ef6d9fa4dace753d12ed13c5310f3271783683cedf4",
        {"target_moves": 742, "accepted_moves": 680, "attempted_moves": 1145,
         "converged": True, "engine": "csr",
         "pilot_accept_rate": 0.6482479784366577,
         "accept_rate": 0.5938864628820961},
    ),
    3: (
        "45d946adff85350d08d2788a396d85342171a639c5292565c532dfa8bcee7781",
        {"target_moves": 742, "accepted_moves": 681, "attempted_moves": 14489,
         "converged": True, "engine": "csr",
         "pilot_accept_rate": 0.05121293800539083,
         "accept_rate": 0.04700117330388571},
    ),
}


@pytest.mark.parametrize("d", sorted(GOLDEN))
def test_dk_randomize_matches_golden_run(as_small, d):
    stats = {}
    rewired = dk_randomize(as_small, d, rng=5, multiplier=1, stats=stats)
    edges = sorted(tuple(sorted(edge)) for edge in rewired.edges())
    digest = hashlib.sha256(repr(edges).encode()).hexdigest()
    assert (digest, stats) == GOLDEN[d]
