"""Rewiring-engine benchmark: accepted moves per second of every chain.

Measures accepted-moves/sec of the dK-preserving randomizing chains
(d = 0..3) and the 2K- and 3K-targeting Metropolis chains on skitter-like AS
topologies at n ∈ {1k, 5k}, recording every timing into BENCH_results.json
(like ``bench_kernels.py``).  Row names end in the engine name
(:data:`repro.kernels.rewiring.ENGINE_NAME`); the 3K-targeting rows are
named after the chain's span, ``rewire_target_3k``.  Chain *inputs* — the
seed graphs and the target dK-distributions — are prepared once per size
outside the timed region, so the rows measure the chains themselves.  The
3K chains also run at n = 20k, where their cost grows fastest, and 3K
randomizing at n = 10^5, where building the per-node neighbor sets and
neighbor-degree histograms the 3K evaluators read is a visible share of
the chain.
"""

from __future__ import annotations

import gc
import time

import pytest

from benchmarks._common import AS_SEED, record_result
from repro.core.extraction import joint_degree_distribution, three_k_distribution
from repro.generators.rewiring.preserving import dk_randomize
from repro.generators.rewiring.targeting import target_2k_from_1k, target_3k_from_2k
from repro.kernels.rewiring import ENGINE_NAME
from repro.topologies.as_level import synthetic_as_topology

SIZES = (1000, 5000)

#: (chain, n) cells; the 3K chains get an extra n=20k row — a 3K-targeting
#: move's full delta grows with the exchanged heads' distinct neighbor
#: degrees — and 3K randomizing an n=10^5 row.
CASES = [
    (chain, n)
    for chain in ("d0", "d1", "d2", "d3", "target2k", "target3k")
    for n in SIZES
] + [("d3", 20000), ("target3k", 20000), ("d3", 100000)]

#: d -> (accepted-move multiplier, attempt budget factor); the 3K chain uses
#: a deliberately small budget — acceptable moves are rare and the budget,
#: not the target, is the binding limit (Table 5 of the paper).
CHAIN_BUDGETS = {0: (30.0, 150), 1: (30.0, 150), 2: (30.0, 150), 3: (0.3, 3)}

_GRAPHS: dict[int, object] = {}
_TARGET_SEEDS: dict[int, object] = {}
_TARGET3K_SEEDS: dict[int, object] = {}
_TARGETS_2K: dict[int, object] = {}
_TARGETS_3K: dict[int, object] = {}


def _graph(n):
    if n not in _GRAPHS:
        _GRAPHS[n] = synthetic_as_topology(n, rng=AS_SEED)
    return _GRAPHS[n]


def _target_seed_graph(n):
    """A 1K-randomized copy whose JDD the targeting chain pushes back."""
    if n not in _TARGET_SEEDS:
        _TARGET_SEEDS[n] = dk_randomize(_graph(n), 1, rng=1, multiplier=3)
    return _TARGET_SEEDS[n]


def _target3k_seed_graph(n):
    """A 2K-randomized copy whose wedge/triangle profile the 3K chain restores."""
    if n not in _TARGET3K_SEEDS:
        _TARGET3K_SEEDS[n] = dk_randomize(_graph(n), 2, rng=1)
    return _TARGET3K_SEEDS[n]


def _target_2k(n):
    """The target JDD, extracted once per size — an input of the timed chain."""
    if n not in _TARGETS_2K:
        _TARGETS_2K[n] = joint_degree_distribution(_graph(n))
    return _TARGETS_2K[n]


def _target_3k(n):
    """The target 3K distribution, extracted once per size (ditto)."""
    if n not in _TARGETS_3K:
        _TARGETS_3K[n] = three_k_distribution(_graph(n))
    return _TARGETS_3K[n]


@pytest.fixture(scope="session", autouse=True)
def _warm_engines():
    """Run every chain once on a tiny topology outside the timed regions.

    First execution pays import, allocator and adaptive-interpreter warm-up;
    a ~300-node dry run moves all of that out of the measured cells.
    """
    import warnings

    graph = synthetic_as_topology(300, rng=AS_SEED)
    jdd = joint_degree_distribution(graph)
    threek = three_k_distribution(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d in (0, 1, 2, 3):
            dk_randomize(graph, d, rng=1, multiplier=0.3, max_attempt_factor=3)
        target_2k_from_1k(graph, jdd, rng=1, max_attempts=500)
        target_3k_from_2k(graph, threek, rng=1, max_attempts=500)


def _run_randomizing(d, graph):
    multiplier, attempt_factor = CHAIN_BUDGETS[d]
    stats: dict = {}
    dk_randomize(
        graph,
        d,
        rng=1,
        multiplier=multiplier,
        max_attempt_factor=attempt_factor,
        stats=stats,
    )
    return stats["accepted_moves"]


def _run_targeting(graph, seed_graph, target):
    result = target_2k_from_1k(
        seed_graph,
        target,
        rng=2,
        max_attempts=5 * graph.number_of_edges,
    )
    return result.accepted_moves


def _run_targeting_3k(graph, seed_graph, target):
    # acceptable 3K moves are rare (Table 5 regime): a small attempt budget
    # is the binding limit, matching the d3 randomizing-chain convention above
    result = target_3k_from_2k(
        seed_graph,
        target,
        rng=2,
        max_attempts=3 * graph.number_of_edges,
    )
    return result.accepted_moves


@pytest.mark.filterwarnings("ignore::repro.exceptions.RewiringConvergenceWarning")
@pytest.mark.benchmark(disable_gc=True)
@pytest.mark.parametrize("chain,n", CASES)
def test_rewiring_engine(benchmark, chain, n):
    graph = _graph(n)
    if chain == "target2k":
        seed_graph = _target_seed_graph(n)
        target = _target_2k(n)
        runner = lambda: _run_targeting(graph, seed_graph, target)  # noqa: E731
    elif chain == "target3k":
        seed_graph = _target3k_seed_graph(n)
        target = _target_3k(n)
        runner = lambda: _run_targeting_3k(graph, seed_graph, target)  # noqa: E731
    else:
        d = int(chain[1])
        runner = lambda: _run_randomizing(d, graph)  # noqa: E731
    start = time.perf_counter()
    accepted = benchmark.pedantic(runner, rounds=1, iterations=1)
    wall = time.perf_counter() - start
    # sub-2s cells are noise-dominated (a 0.1s host hiccup is 30% of a 0.3s
    # cell but <2% of a 7s one): re-run them and keep the fastest round —
    # the chains are seed-deterministic, so only the wall time varies.  The
    # extra rounds run GC-free like the pedantic round does.
    rounds = 1
    gc.disable()
    try:
        while wall < 2.0 and rounds < 6:
            t0 = time.perf_counter()
            runner()
            wall = min(wall, time.perf_counter() - t0)
            rounds += 1
    finally:
        gc.enable()
    rate = accepted / max(wall, 1e-9)
    if chain == "target3k":
        names = (
            f"rewire_target_3k_n{n}_{ENGINE_NAME}",
            f"rewire_target_3k_moves_per_sec_n{n}_{ENGINE_NAME}",
        )
    else:
        names = (
            f"rewiring_{chain}_n{n}_{ENGINE_NAME}",
            f"rewiring_moves_per_sec_{chain}_n{n}_{ENGINE_NAME}",
        )
    record_result(
        names[0],
        wall,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    )
    record_result(
        names[1],
        rate,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    )
    assert accepted > 0
