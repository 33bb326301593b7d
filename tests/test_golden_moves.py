"""Golden-move regression records for the 2K explorations and ``matching_2k``.

Each record pins one seeded run: the sha256 of the output's edge list (in
``graph.edges()`` order) and, for an exploration, its ``metric_trace`` and
move counts.  The records were taken from the wedge/triangle delta kernel
before the S2 and C̄ explorations moved onto the plain 2K-proposal loop, and
from ``matching_2k`` before its free-capacity lists, so they pin that both
changes take exactly the moves they replaced.
"""

import hashlib

import pytest

from repro.core.extraction import joint_degree_distribution
from repro.generators.exploration import _clustering_scale, explore_2k
from repro.generators.matching import matching_2k

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
            0.03266865764823612,
            0.022586904638181887,
            0.01680164855809485,
            0.01680164855809485,
        ],
        237,
        3000,
    ),
    ("as_small", "clustering", "max"): (
        "0ff7b0e95464ac37111f63bc95fc5db47c31cd607b1a6ab725efd1e21ddf9708",
        [
            0.25358105245878676,
            0.29896551864701804,
            0.3357186104646403,
            0.3543542506561338,
            0.3543542506561338,
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
            -1.6132928326584306e-16,
            -1.6132928326584306e-16,
            -1.6132928326584306e-16,
            -1.6132928326584306e-16,
        ],
        9,
        3000,
    ),
    ("hot_small", "clustering", "max"): (
        "089eb71940b8c0e3e94d351bdce1980be58b49d7a78065b2bb7c588626374cc8",
        [
            0.010633793508406512,
            0.03066694010037682,
            0.03296852740196417,
            0.03489893033236724,
            0.03489893033236724,
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
