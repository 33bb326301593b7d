"""Golden-move regression records for the rewiring chains and ``matching_2k``.

Each record pins one seeded run: the sha256 of the output's edge list (in
``graph.edges()`` order) and, for an exploration or a targeting chain, its
trace and move counts.  The 2K-exploration records were taken from the
wedge/triangle delta kernel before the S2 and C̄ explorations moved onto the
plain 2K-proposal loop, and the ``matching_2k`` ones before its
free-capacity lists.  The S exploration, 2K-targeting (strict and
Metropolis) and ``dk_randomize`` records were taken before every objective
priced its moves through one per-move scorer.  So each record pins that a
change took exactly the moves it replaced.  The ``metric_trace`` lists of
the four C̄ records were re-recorded, with their edge hashes and move counts
kept, when the trace moved onto the scorer's exact integer grid units.
The 3K randomizing, 3K targeting (T = 0, T > 0 and a converging run) and
Table-5 count records were taken from the batched snapshot kernel before
loop 3 priced each proposal alone on live neighbor sets; that kernel gave
the same records with its arc-key membership and sparse gradient forced
on, so they pin those deleted twins' moves too.
"""

import hashlib

import pytest

from repro.core.extraction import joint_degree_distribution, three_k_distribution
from repro.exceptions import RewiringConvergenceWarning
from repro.generators.exploration import _clustering_scale, explore_1k_likelihood, explore_2k
from repro.generators.matching import matching_1k, matching_2k
from repro.generators.rewiring.counting import count_dk_rewirings
from repro.generators.rewiring.preserving import dk_randomize
from repro.generators.rewiring.targeting import target_2k_from_1k, target_3k_from_2k
from repro.metrics.clustering import mean_clustering
from repro.topologies.as_level import synthetic_as_topology

#: ``explore_1k_likelihood``, seed 4, 3,000 attempts
LIKELIHOOD_RECORDS = {
    ("as_small", "max"): (
        "48c5b0f690c47dc589fe6b79950dc9a2e5b7d03bcfafccb80028ce3a4e341f59",
        [109748.0, 144221.0, 156301.0, 162186.0, 162186.0],
        613,
        3000,
    ),
    ("as_small", "min"): (
        "80f227cc665590d9d1d309934ba20175774b9295f0cafe516dd183c5337146fb",
        [109748.0, 78148.0, 66192.0, 59641.0, 59641.0],
        536,
        3000,
    ),
    ("hot_small", "max"): (
        "aacad18418f06a0795d7616867cd9776c6926f7ce3f614a2e7fc370295dfbba4",
        [3668.0, 9408.0, 9994.0, 10266.0, 10266.0],
        214,
        3000,
    ),
    ("hot_small", "min"): (
        "121d4199cf35fa0584d7c144f9a327b19efc5c47a952cb6c1b6e0fb7bbe2c023",
        [3668.0, 3030.0, 2895.0, 2877.0, 2877.0],
        93,
        3000,
    ),
}

#: ``target_2k_from_1k`` from ``matching_1k(jdd.to_lower(), rng=0)`` to
#: ``as_small``'s JDD, seed 3: ``temperature -> (edges, distance_trace,
#: accepted, attempted)``.  T = 0 runs to convergence (trace every 20,000
#: attempts); T = 1e6 takes 3,000 attempts on the Metropolis path.
TARGET_2K_RECORDS = {
    0.0: (
        "7a8f8af3db32878f2b608786dc60e2cf94383d561c4251c1fa742e3b5cc6376d",
        [1782.0, 20.0, 8.0, 6.0, 6.0, 4.0, 0.0],
        12374,
        108386,
    ),
    1e6: (
        "c91d633f51f4cef5877b2dd249921daa1a3f6c6c896430903ec99c2cd23baf31",
        [1782.0, 1998.0, 1668.0, 1572.0, 1572.0],
        2379,
        3000,
    ),
}

#: ``dk_randomize(as_small, d, rng=5, multiplier=1)``: ``d -> (edges,
#: accepted, attempted)``
RANDOMIZE_RECORDS = {
    0: ("fe84f1f4b5bb5ae9a77f232d4abcc913b8bea01ce4d995829f90e999308bdfe3", 745, 760),
    1: ("e4de386967c001c9207d069bb36388df213519b72cf61df33b5706b5aa9b61de", 734, 924),
    2: ("05627a6096c74a38fb1a232836c9b1f0a3753ccc839913803e3287acbacafad4", 680, 1145),
    3: ("a81219b72f04b967102b4b84e0944dead00bf9d253477fb28cee79462db849bb", 681, 14489),
}

#: ``dk_randomize(graph, 3, rng=seed, multiplier=1)``: ``(name, seed) ->
#: (edges, accepted, attempted)``
RANDOMIZE_3K_RECORDS = {
    ("hot_small", 0): (
        "9f504e0c9d928c40b9d968659073fe32377ae3b85c77a0b5db31ce2643d6b34c",
        195,
        520,
    ),
    ("hot_small", 1): (
        "33d7a1e58b0dfd95ee77a2aa500bd2aa3c213218917310fdd0422d89425259f3",
        147,
        409,
    ),
    ("hot_small", 2): (
        "727df53380c7e4a62b1b9b3bca3cda34b9764df163d8887d21026d3c99aacf97",
        244,
        572,
    ),
    ("as_small", 0): (
        "040785d84343cb4d03c7d87e21b47f8d1074c60f4faf2a94dd37a3f249fee016",
        633,
        14118,
    ),
    ("as_small", 1): (
        "be394abf3e66fd5b929b413c363f672cab656e95ff0046ac0312a796f4c073fe",
        599,
        14489,
    ),
    ("as_small", 2): (
        "a92226666f72dbda7caa27980d65cd564ee09dfb6ad5015f19236498c0e593cd",
        928,
        21176,
    ),
}

#: ``target_3k_from_2k`` from ``matching_2k(jdd, rng=seed)`` toward the
#: graph's own P_3 with ``rng=seed``, T = 0, 8,000 attempts, trace every 2,000
#: (the chain ``dk_targeting_result(P_3, rng=seed)`` runs): ``(name, seed) ->
#: (edges, distance_trace, accepted, attempted)``
TARGET_3K_RECORDS = {
    ("hot_small", 0): (
        "5a86d5eef3b858a31bf6a8dfeeae6ce6e0a8fad29305159e616fb90a254cd1d0",
        [15207.0, 14757.0, 14739.0, 14689.0, 14683.0, 14683.0],
        3130,
        8000,
    ),
    ("hot_small", 1): (
        "53d010ccea802c55d4d378679aa779321ddd6ccdd8a65a275bf90a84fda7133b",
        [669.0, 183.0, 165.0, 111.0, 107.0, 107.0],
        3192,
        8000,
    ),
    ("hot_small", 2): (
        "6c7048c12f9bc8ed438891802b78df8986a23c0eab3a880d2b1a521f7feb0760",
        [620.0, 148.0, 114.0, 110.0, 44.0, 44.0],
        3182,
        8000,
    ),
    ("as_small", 0): (
        "fa1c7443cd993288e0c398fde4da305f49585f62899f87a97f3df54d2933767c",
        [5673.0, 3141.0, 2561.0, 2385.0, 2239.0, 2239.0],
        1038,
        8000,
    ),
    ("as_small", 1): (
        "7cf637dd984ff7ef6f6ad382c26a505c367ac6ad8a19de68fa29ce82515f04da",
        [98974.0, 95748.0, 95024.0, 94678.0, 94412.0, 94412.0],
        1104,
        8000,
    ),
    ("as_small", 2): (
        "4bbbc3972782a007c3b94a4b17f1dac554e5683338702630834e2756a96ecb41",
        [4190.0, 1992.0, 1632.0, 1444.0, 1266.0, 1266.0],
        1068,
        8000,
    ),
}

#: The same chains on the Metropolis path: T = 50, 4,000 attempts, trace
#: every 1,000.
METROPOLIS_3K_RECORDS = {
    ("hot_small", 0): (
        "873c66d7db6e915e70e75bfa0d7439c6afb783e0133e2c63d5be1d7529d7a2f9",
        [15207.0, 15121.0, 15207.0, 15153.0, 15121.0, 15121.0],
        2253,
        4000,
    ),
    ("hot_small", 1): (
        "a9df478b3e5e6342d245b8fd9c961a46b416cc192e0e7eea2b6ae77cfda044c7",
        [669.0, 563.0, 429.0, 473.0, 597.0, 597.0],
        2293,
        4000,
    ),
    ("hot_small", 2): (
        "ef65388db339cc8072a45afec44cd2ce2ee7fb7a4cf5ef2fb7bfe1840a4cb8dc",
        [620.0, 478.0, 516.0, 510.0, 440.0, 440.0],
        2310,
        4000,
    ),
    ("as_small", 0): (
        "981ee7a58edc653da316184ca82be3f091dca3cca149580aee0343226a3df600",
        [5673.0, 4487.0, 4707.0, 4767.0, 4675.0, 4675.0],
        2223,
        4000,
    ),
    ("as_small", 1): (
        "becef794af4aa5725ab26297a842a1cac3ee6be362d048f2dc291b5cc385f164",
        [98974.0, 97582.0, 97560.0, 96696.0, 97246.0, 97246.0],
        2003,
        4000,
    ),
    ("as_small", 2): (
        "82579a7adb24fed068f1ebd385beb11f3efe9205f21dd618b0653d53f9551a66",
        [4190.0, 3486.0, 3404.0, 3548.0, 3754.0, 3754.0],
        2155,
        4000,
    ),
}

#: The ``hot_small`` seed-2 chain run to convergence (20,000-attempt budget,
#: trace every 6,628 attempts, so the last entry falls on the stopping
#: attempt): ``(edges, distance_trace, accepted, attempted)``
CONVERGED_3K_RECORD = (
    "f88f99281d9c3e199f0d80bec5d0f72012f6d4c415e857d43699c5b73cb9c730",
    [620.0, 108.0, 0.0, 0.0],
    5213,
    13256,
)

#: ``count_dk_rewirings(synthetic_as_topology(800, rng=3), d)``: ``d ->
#: (total, non_isomorphic)`` (Table 5)
COUNT_RECORDS = {
    1: (3390454, 3376246),
    2: (446562, 432354),
    3: (16430, 2222),
}

EXPLORE_RECORDS = {
    ("as_small", "s2", "min"): (
        "e75484f9c69e1e5687a247c6cd779444c03690d398097a8b7beb267d2909dd1c",
        [1025387.0, 983762.0, 970506.0, 964576.0, 964576.0],
        391,
        3000,
    ),
    ("as_small", "s2", "max"): (
        "fbe3c630c6e31659292e1476d435f5cbef48d4819008f815579c4082a3af1924",
        [1025387.0, 1142137.0, 1189365.0, 1223915.0, 1223915.0],
        457,
        3000,
    ),
    ("as_small", "clustering", "min"): (
        "de8d92de9fa346270649ed0ad298600583715cde18f8e1ace04f0e5943cfb883",
        [
            0.25358105245878676,
            0.03266865764822967,
            0.02258690463817544,
            0.0168016485580884,
            0.0168016485580884,
        ],
        237,
        3000,
    ),
    ("as_small", "clustering", "max"): (
        "0ff7b0e95464ac37111f63bc95fc5db47c31cd607b1a6ab725efd1e21ddf9708",
        [
            0.25358105245878676,
            0.29896551864701154,
            0.33571861046463386,
            0.35435425065612736,
            0.35435425065612736,
        ],
        96,
        3000,
    ),
    ("hot_small", "s2", "min"): (
        "666c88f606da3806de916ab5636659ee454b1829c2ca9be1b73815376b85a693",
        [10277.0, 8606.0, 8594.0, 8584.0, 8584.0],
        48,
        3000,
    ),
    ("hot_small", "s2", "max"): (
        "45239a79ad0d5ff6910a9fb886818cdee5df909dcd7f0902afe1647c52198b4e",
        [10277.0, 12050.0, 12351.0, 12431.0, 12431.0],
        57,
        3000,
    ),
    ("hot_small", "clustering", "min"): (
        "caccb1d8af8ca6230c44cbe524378d57a07257675c424b022d1493a9035cd3ff",
        [
            0.010633793508406512,
            0.0,
            0.0,
            0.0,
            0.0,
        ],
        9,
        3000,
    ),
    ("hot_small", "clustering", "max"): (
        "089eb71940b8c0e3e94d351bdce1980be58b49d7a78065b2bb7c588626374cc8",
        [
            0.010633793508406512,
            0.03066694010037698,
            0.03296852740196433,
            0.0348989303323674,
            0.0348989303323674,
        ],
        16,
        3000,
    ),
}

#: ``matching_2k`` on ``hot_small``'s JDD, seeds 0..9
MATCHING_RECORDS = (
    "427d266ef62f9b63af261260e9347fbebe733ab342d38eba4f45c65f892f4b40",
    "3d57541ec6f72c192d292f920a721f8957df2d5c86ba1b494770b7de1eed3cbd",
    "4f853f25906ecd1d4eba15653d504bade50263a2636787a52a89575dde03440a",
    "a73a92ff6c85b60fac0efebb7a170cd3bd04eddcd9ad9b6f674c9c20d4699154",
    "f972b3d41a0db43a3edf72d40e7384b675b7669e763ba497d2ef5e69a191dabd",
    "4c55ea526660e6d81d2e539ecb0806cfdfb8ebff2d6baca1997fd37ce6f94fe6",
    "a8a43b0abebe526978f42204b911be42809918f6ed45b3ddfce17283aa5aa192",
    "527e5f57a863ce0e7cd8a0350104ed4e128a58f1172f7636a8eeb7409868d472",
    "425627c1742026e5e189007ae49f209c750661bbe4dde370f6dd1dfed981a8f8",
    "b5a042cbcf1a93ab9fe5ecbdde34ba4dda72e7bce9ed62255d9d9c16ba4cd4fb",
)


def _edge_hash(graph):
    return hashlib.sha256(repr(list(graph.edges())).encode()).hexdigest()


@pytest.mark.parametrize("name,metric,mode", sorted(EXPLORE_RECORDS))
def test_exploration_reproduces_its_record(request, name, metric, mode):
    run = explore_2k(request.getfixturevalue(name), metric, mode, rng=4, max_attempts=3000)
    edges, trace, accepted, attempted = EXPLORE_RECORDS[name, metric, mode]
    assert _edge_hash(run.graph) == edges
    assert run.metric_trace == trace
    assert (run.accepted_moves, run.attempted_moves) == (accepted, attempted)


@pytest.mark.parametrize("name,mode", sorted(LIKELIHOOD_RECORDS))
def test_likelihood_exploration_reproduces_its_record(request, name, mode):
    graph = request.getfixturevalue(name)
    run = explore_1k_likelihood(graph, mode, rng=4, max_attempts=3000)
    edges, trace, accepted, attempted = LIKELIHOOD_RECORDS[name, mode]
    assert _edge_hash(run.graph) == edges
    assert run.metric_trace == trace
    assert (run.accepted_moves, run.attempted_moves) == (accepted, attempted)


def test_strict_2k_targeting_reproduces_its_record(as_small):
    jdd = joint_degree_distribution(as_small)
    seed = matching_1k(jdd.to_lower(), rng=0)
    run = target_2k_from_1k(seed, jdd, rng=3, trace_every=20000)
    edges, trace, accepted, attempted = TARGET_2K_RECORDS[0.0]
    assert run.converged
    assert _edge_hash(run.graph) == edges
    assert run.distance_trace == trace
    assert (run.accepted_moves, run.attempted_moves) == (accepted, attempted)


def test_metropolis_2k_targeting_reproduces_its_record(as_small):
    jdd = joint_degree_distribution(as_small)
    seed = matching_1k(jdd.to_lower(), rng=0)
    with pytest.warns(RewiringConvergenceWarning):
        run = target_2k_from_1k(seed, jdd, rng=3, max_attempts=3000, temperature=1e6)
    edges, trace, accepted, attempted = TARGET_2K_RECORDS[1e6]
    assert _edge_hash(run.graph) == edges
    assert run.distance_trace == trace
    assert (run.accepted_moves, run.attempted_moves) == (accepted, attempted)


@pytest.mark.parametrize("d", sorted(RANDOMIZE_RECORDS))
def test_randomize_reproduces_its_record(as_small, d):
    stats = {}
    graph = dk_randomize(as_small, d, rng=5, multiplier=1, stats=stats)
    assert (_edge_hash(graph), stats["accepted_moves"], stats["attempted_moves"]) == (
        RANDOMIZE_RECORDS[d]
    )


@pytest.mark.parametrize("name,seed", sorted(RANDOMIZE_3K_RECORDS))
def test_3k_randomize_reproduces_its_record(request, name, seed):
    stats = {}
    graph = dk_randomize(
        request.getfixturevalue(name), 3, rng=seed, multiplier=1, stats=stats
    )
    assert (_edge_hash(graph), stats["accepted_moves"], stats["attempted_moves"]) == (
        RANDOMIZE_3K_RECORDS[name, seed]
    )


@pytest.mark.parametrize("temperature", (0.0, 50.0))
@pytest.mark.parametrize("name,seed", sorted(TARGET_3K_RECORDS))
def test_3k_targeting_reproduces_its_record(request, name, seed, temperature):
    original = request.getfixturevalue(name)
    seed_graph = matching_2k(joint_degree_distribution(original), rng=seed)
    if temperature:
        records, attempts, every = METROPOLIS_3K_RECORDS, 4000, 1000
    else:
        records, attempts, every = TARGET_3K_RECORDS, 8000, 2000
    with pytest.warns(RewiringConvergenceWarning):
        run = target_3k_from_2k(
            seed_graph,
            three_k_distribution(original),
            rng=seed,
            max_attempts=attempts,
            temperature=temperature,
            trace_every=every,
        )
    edges, trace, accepted, attempted = records[name, seed]
    assert _edge_hash(run.graph) == edges
    assert run.distance_trace == trace
    assert (run.accepted_moves, run.attempted_moves) == (accepted, attempted)


def test_converging_3k_targeting_reproduces_its_record(hot_small):
    seed_graph = matching_2k(joint_degree_distribution(hot_small), rng=2)
    run = target_3k_from_2k(
        seed_graph, three_k_distribution(hot_small), rng=2, max_attempts=20000, trace_every=6628
    )
    edges, trace, accepted, attempted = CONVERGED_3K_RECORD
    assert run.converged
    assert _edge_hash(run.graph) == edges
    assert run.distance_trace == trace
    assert (run.accepted_moves, run.attempted_moves) == (accepted, attempted)

def test_table5_counts_reproduce_their_record():
    graph = synthetic_as_topology(800, rng=3)
    for d, (total, non_isomorphic) in COUNT_RECORDS.items():
        counts = count_dk_rewirings(graph, d)
        assert (counts.total, counts.non_isomorphic) == (total, non_isomorphic), d


def test_clustering_trace_stays_in_range_and_reaches_zero(hot_small):
    """A C̄ trace is read off exact grid units: it never goes below 0 and
    reads 0.0 exactly once the last triangle is gone."""
    run = explore_2k(hot_small, "clustering", "min", rng=4, max_attempts=3000)
    assert min(run.metric_trace) >= 0
    assert run.metric_value == 0.0
    assert mean_clustering(run.graph) == 0.0


def test_exploration_stats_carry_the_move_counts(as_small):
    for run in (
        explore_1k_likelihood(as_small, "max", rng=4, max_attempts=3000),
        explore_2k(as_small, "clustering", "min", rng=4, max_attempts=3000),
    ):
        assert run.stats == {
            "engine": "csr",
            "accepted_moves": run.accepted_moves,
            "attempted_moves": 3000,
            "accept_rate": run.accepted_moves / 3000,
        }
        assert 0 < run.stats["accept_rate"] < 1


def test_matching_2k_reproduces_its_records(hot_small):
    jdd = joint_degree_distribution(hot_small)
    hashes = tuple(_edge_hash(matching_2k(jdd, rng=seed)) for seed in range(10))
    assert hashes == MATCHING_RECORDS


def test_clustering_grid_is_frozen(hot_small):
    """C̄'s fixed-point grid depends only on the graph's maximum degree:
    2^46 units per unit of ``1 / C(k, 2)`` at ``hot_small``'s 19, so
    retuning any chain constant cannot move Table 7's C̄ decisions."""
    assert max(hot_small.degrees()) == 19
    assert _clustering_scale(hot_small.degrees()) == 2**46
