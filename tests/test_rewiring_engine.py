"""Invariant suite for the rewiring engine.

Every Markov chain — randomizing, targeting and dK-space exploration — runs
on :mod:`repro.kernels.rewiring`.  Its contract: deterministic per seed,
the chain's dK-invariants preserved *exactly* (degree sequence for d >= 1,
joint degree distribution for d >= 2, wedge/triangle distributions for
d = 3), and the same output for every batch size and on both twins of
each size-picked table of the 2K-proposal chains' batched kernel: the
membership bitset and the sorted arc keys beyond ``BITSET_MAX_NODES``, the
dense gradient and the sparse one beyond ``THREEK_RANK_SLOTS_MAX``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extraction import (
    degree_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.exceptions import RewiringConvergenceWarning
from repro.experiment import ExperimentSpec, run_experiment
from repro.generators.exploration import explore_1k_likelihood, explore_2k
from repro.generators.rewiring.preserving import dk_randomize
from repro.generators.rewiring.targeting import (
    dk_targeting_result,
    target_2k_from_1k,
    target_3k_from_2k,
)
from repro.graph.simple_graph import SimpleGraph
from repro.kernels import rewiring as vec
from repro.kernels.rewiring import ENGINE_NAME
from repro.measure.plan import MeasurementPlan
from repro.store.keys import generation_key
from repro.telemetry import disable_tracing, enable_tracing, take_events

#: The one rewiring engine, named as its chains record it in their stats;
#: the tests parametrized by it carry the engine name in their ids.
ENGINES = (ENGINE_NAME,)


def _edge_sets(graph):
    return sorted(graph.edges())


def _random_graph(seed, n=60, m=150):
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


def test_bucket_table_membership(square_with_diagonal):
    """Every packed oriented end ``2*slot+side`` sits once in the bucket of
    its head's degree (the index 2K proposals and Table-5 counting use)."""
    state = vec.RewiringState(square_with_diagonal)
    table = state.build_buckets()
    ends = sorted(end for bucket in table for end in bucket)
    assert ends == list(range(2 * state.m))
    _, _, tails, heads = vec._resolve_ends(
        np.array(state.edge_u), np.array(state.edge_v), np.array(ends)
    )
    for degree, bucket in enumerate(table):
        for end in bucket:
            tail, head = int(tails[end]), int(heads[end])
            assert square_with_diagonal.degree(head) == degree
            assert square_with_diagonal.has_edge(tail, head)
    assert len(table) == max(square_with_diagonal.degrees()) + 1


@pytest.mark.parametrize("d", (0, 1, 2, 3))
def test_vectorized_chain_preserves_dk_invariants(as_small, d):
    rewired = dk_randomize(as_small, d, rng=3, multiplier=2)
    assert rewired.number_of_nodes == as_small.number_of_nodes
    assert rewired.number_of_edges == as_small.number_of_edges
    if d >= 1:
        assert degree_distribution(rewired) == degree_distribution(as_small)
    if d >= 2:
        assert joint_degree_distribution(rewired) == joint_degree_distribution(as_small)
    if d == 3:
        original = three_k_distribution(as_small)
        generated = three_k_distribution(rewired)
        assert generated.wedges == original.wedges
        assert generated.triangles == original.triangles


@pytest.mark.parametrize("d", (0, 1, 2))
def test_vectorized_chain_actually_randomizes(as_small, d):
    rewired = dk_randomize(as_small, d, rng=5)
    assert rewired != as_small


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("d", (0, 1, 2, 3))
def test_each_engine_is_seed_deterministic(as_small, engine, d):
    stats = {}
    first = dk_randomize(as_small, d, rng=11, multiplier=2, stats=stats)
    second = dk_randomize(as_small, d, rng=11, multiplier=2)
    assert _edge_sets(first) == _edge_sets(second)
    assert stats["engine"] == engine


def _patch_batch_size(monkeypatch, batch_size):
    monkeypatch.setattr(vec, "DEFAULT_BATCH_SIZE", batch_size)
    monkeypatch.setattr(vec, "THREEK_BATCH_SIZE", batch_size)


def test_vectorized_output_is_batch_size_invariant(as_small, monkeypatch):
    """The batch width is a pure performance constant: per-proposal stream
    consumption makes the chain's output independent of how draws are
    batched."""
    reference = dk_randomize(as_small, 2, rng=7)
    for batch_size in (1, 17, 4096):
        _patch_batch_size(monkeypatch, batch_size)
        assert _edge_sets(dk_randomize(as_small, 2, rng=7)) == _edge_sets(reference)


def test_threek_batched_matches_batch_size_one(as_small, monkeypatch):
    """Regression for within-batch duplicate proposals: an accepted 3K move
    invalidates the precomputed deltas of later proposals in the same batch
    touching the same nodes; the staleness path must re-evaluate those
    exactly, so the batched chain agrees with a batch width of 1
    move-for-move."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        _patch_batch_size(monkeypatch, 1)
        reference = dk_randomize(as_small, 3, rng=13, multiplier=1)
        for batch_size in (64, 384):
            _patch_batch_size(monkeypatch, batch_size)
            batched = dk_randomize(as_small, 3, rng=13, multiplier=1)
            assert _edge_sets(batched) == _edge_sets(reference)


def test_threek_scalar_fallback_matches_batched(as_small, monkeypatch):
    """Beyond BITSET_MAX_NODES the batched 3K kernel tests membership on
    sorted arc keys instead of the bitset; it must sample the same chain
    move for move."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        reference = dk_randomize(as_small, 3, rng=21, multiplier=1)
        monkeypatch.setattr(vec, "BITSET_MAX_NODES", 0)
        fallback = dk_randomize(as_small, 3, rng=21, multiplier=1)
    assert _edge_sets(fallback) == _edge_sets(reference)


def test_threek_targeting_rank_gate_falls_back_to_scalar(hot_small, monkeypatch):
    """Degree diversity beyond the dense rank-packed gradient's slot cap
    makes the 3K-targeting chain keep a sorted sparse gradient; both
    layouts sample the same chain move-for-move on one seed."""
    seed_graph = dk_randomize(hot_small, 2, rng=3, multiplier=2)
    target = three_k_distribution(hot_small)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        batched = target_3k_from_2k(seed_graph, target, rng=5, max_attempts=6000)
        monkeypatch.setattr(vec, "THREEK_RANK_SLOTS_MAX", 0)
        sparse = target_3k_from_2k(seed_graph, target, rng=5, max_attempts=6000)
    assert _edge_sets(batched.graph) == _edge_sets(sparse.graph)
    assert batched.distance_trace == sparse.distance_trace


def test_threek_batch_efficiency_gauge_is_observable(as_small):
    """The vectorized 3K chain publishes its per-batch acceptance ratio."""
    from repro.telemetry.metrics import gauge_value, render_prometheus

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        dk_randomize(as_small, 3, rng=2, multiplier=1)
    value = gauge_value(
        "repro_rewiring_batch_efficiency", chain="3K-preserving randomizing"
    )
    assert 0 < value <= 1
    assert "repro_rewiring_batch_efficiency" in render_prometheus()


def test_engine_stats_are_unified(as_small):
    """Every chain records its engine: randomizing and targeting in their
    stats dicts, exploration on its result."""
    stats = {}
    dk_randomize(as_small, 1, rng=2, multiplier=2, stats=stats)
    assert set(stats) >= {"target_moves", "accepted_moves", "attempted_moves", "converged"}
    assert stats["engine"] == ENGINE_NAME
    assert stats["converged"] is True
    assert stats["attempted_moves"] >= stats["accepted_moves"]
    assert 0 < stats["pilot_accept_rate"] <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        _, targeting = dk_targeting_result(
            joint_degree_distribution(as_small), rng=1, max_attempts=2000
        )
    assert targeting["engine"] == ENGINE_NAME
    assert explore_2k(as_small, "s2", "max", rng=1, max_attempts=50).stats["engine"] == ENGINE_NAME


def test_every_chain_span_records_the_engine(as_small):
    enable_tracing()
    try:
        take_events()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RewiringConvergenceWarning)
            dk_randomize(as_small, 2, rng=1, multiplier=1)
            target_2k_from_1k(as_small, joint_degree_distribution(as_small), rng=1)
            target_3k_from_2k(as_small, three_k_distribution(as_small), rng=1)
            explore_1k_likelihood(as_small, "max", rng=1, max_attempts=50)
            explore_2k(as_small, "clustering", "min", rng=1, max_attempts=50)
        spans = [event for event in take_events() if event["name"].startswith("kernel.rewire_")]
    finally:
        disable_tracing()
    names = [event["name"] for event in spans]
    assert names == [
        "kernel.rewire_randomize",
        "kernel.rewire_target_2k",
        "kernel.rewire_target_3k",
        "kernel.rewire_explore",
        "kernel.rewire_explore",
    ]
    assert all(event["args"]["engine"] == ENGINE_NAME for event in spans)


def test_randomize_reports_its_acceptance_rates(hot_small):
    """A randomize chain records its pilot and whole-chain acceptance rates
    in its stats (hence in its RunRecord) and its move counts and pilot
    rate on its span."""
    enable_tracing()
    try:
        take_events()
        record = run_experiment(
            ExperimentSpec(
                topologies=(hot_small,), methods=("rewiring",), d_levels=(2,), seed=5, metrics=()
            )
        ).records[0]
        spans = [event for event in take_events() if event["name"] == "kernel.rewire_randomize"]
    finally:
        disable_tracing()
    stats = record.stats
    assert 0 < stats["pilot_accept_rate"] <= 1
    assert stats["accept_rate"] == stats["accepted_moves"] / stats["attempted_moves"]
    assert record.to_row()["stats"]["pilot_accept_rate"] == stats["pilot_accept_rate"]
    (chain,) = spans
    assert chain["args"]["attempted"] == stats["attempted_moves"]
    assert chain["args"]["accepted"] == stats["accepted_moves"]
    assert chain["args"]["pilot_accept_rate"] == stats["pilot_accept_rate"]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.integers(0, 2))
def test_vectorized_chain_invariants_on_random_graphs(seed, d):
    """Hypothesis property: dK-invariant exactness over random dK graphs."""
    graph = _random_graph(seed)
    rewired = dk_randomize(graph, d, rng=seed, multiplier=1.5)
    assert rewired.number_of_edges == graph.number_of_edges
    if d >= 1:
        assert degree_distribution(rewired) == degree_distribution(graph)
    if d >= 2:
        assert joint_degree_distribution(rewired) == joint_degree_distribution(graph)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_vectorized_3k_chain_invariants_on_random_graphs(seed):
    """Hypothesis property: dK-3 invariant exactness of the batched kernel."""
    graph = _random_graph(seed, n=40, m=90)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        rewired = dk_randomize(graph, 3, rng=seed, multiplier=0.5)
    original = three_k_distribution(graph)
    generated = three_k_distribution(rewired)
    assert generated.wedges == original.wedges
    assert generated.triangles == original.triangles


# --------------------------------------------------------------------------- #
# targeting chains
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINES)
def test_targeting_2k_preserves_degrees_and_improves(as_small, engine):
    seed_graph = dk_randomize(as_small, 1, rng=5, multiplier=3)
    target = joint_degree_distribution(as_small)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        run = target_2k_from_1k(seed_graph, target, rng=2)
    assert degree_distribution(run.graph) == degree_distribution(as_small)
    assert run.distance <= run.distance_trace[0]
    if run.converged:
        assert joint_degree_distribution(run.graph) == target


@pytest.mark.parametrize("engine", ENGINES)
def test_targeting_3k_preserves_jdd(hot_small, engine):
    seed_graph = dk_randomize(hot_small, 2, rng=3, multiplier=3)
    target = three_k_distribution(hot_small)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        run = target_3k_from_2k(seed_graph, target, rng=4, max_attempts=30000)
    assert joint_degree_distribution(run.graph) == joint_degree_distribution(hot_small)
    assert run.distance <= run.distance_trace[0]


def test_targeting_3k_trajectory_is_batch_size_invariant(as_small, monkeypatch):
    """The 3K-targeting sufficient statistics are exact integers, so the
    Metropolis trajectory (graph, distance trace, move counts) is identical
    for every batch size."""
    seed_graph = dk_randomize(as_small, 2, rng=1)
    target = three_k_distribution(as_small)
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        for batch_size in (1, 64, 384):
            _patch_batch_size(monkeypatch, batch_size)
            runs.append(target_3k_from_2k(seed_graph, target, rng=4, max_attempts=15000))
    reference = runs[-1]
    for run in runs:
        assert _edge_sets(run.graph) == _edge_sets(reference.graph)
        assert run.distance == reference.distance
        assert run.distance_trace == reference.distance_trace
        assert run.accepted_moves == reference.accepted_moves
        assert run.attempted_moves == reference.attempted_moves


@pytest.mark.parametrize("engine", ENGINES)
def test_targeting_3k_is_seed_deterministic(hot_small, engine):
    seed_graph = dk_randomize(hot_small, 2, rng=3, multiplier=2)
    target = three_k_distribution(hot_small)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        first = target_3k_from_2k(seed_graph, target, rng=6, max_attempts=8000)
        second = target_3k_from_2k(seed_graph, target, rng=6, max_attempts=8000)
    assert _edge_sets(first.graph) == _edge_sets(second.graph)
    assert first.distance_trace == second.distance_trace


def test_targeting_bootstrap_reports_its_stats(as_small):
    target = joint_degree_distribution(as_small)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        graph, stats = dk_targeting_result(target, rng=1)
    assert graph.number_of_edges > 0
    assert {"distance", "accepted_moves", "attempted_moves", "converged", "engine"} <= set(stats)


# --------------------------------------------------------------------------- #
# non-convergence surfacing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINES)
def test_unconverged_chain_warns(as_small, engine):
    # a budget of exactly target_moves attempts cannot absorb any rejection,
    # so the chain deterministically stops short and must say so
    stats = {}
    with pytest.warns(RewiringConvergenceWarning):
        dk_randomize(
            as_small,
            1,
            rng=1,
            multiplier=5.0,
            max_attempt_factor=1,
            stats=stats,
        )
    assert stats["engine"] == engine
    assert stats["converged"] is False
    assert stats["accepted_moves"] < stats["target_moves"]


def test_converged_chain_does_not_warn(as_small):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RewiringConvergenceWarning)
        dk_randomize(as_small, 1, rng=1, multiplier=2)


# --------------------------------------------------------------------------- #
# exploration objectives: S on the 1K chain, S2 and C̄ scorers on the 2K loop
# --------------------------------------------------------------------------- #
OBJECTIVES = [(metric, mode) for metric in ("s", "s2", "clustering") for mode in ("max", "min")]
MEASURED = {"s": "likelihood", "s2": "second_order_likelihood", "clustering": "mean_clustering"}
EXPLORE_ATTEMPTS = 3000


def _explore(graph, metric, mode, rng=4, max_attempts=EXPLORE_ATTEMPTS):
    if metric == "s":
        return explore_1k_likelihood(graph, mode, rng=rng, max_attempts=max_attempts)
    return explore_2k(graph, metric, mode, rng=rng, max_attempts=max_attempts)


@pytest.fixture(params=["as_small", "hot_small"])
def explored_graph(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("metric,mode", OBJECTIVES)
def test_exploration_keeps_invariants_and_tracks_the_metric(explored_graph, metric, mode):
    graph = explored_graph
    run = _explore(graph, metric, mode)
    if metric == "s":
        assert degree_distribution(run.graph) == degree_distribution(graph)
    else:
        assert joint_degree_distribution(run.graph) == joint_degree_distribution(graph)
    plan = MeasurementPlan((MEASURED[metric],), use_giant_component=False)
    assert run.metric_trace[0] == pytest.approx(plan.run(graph)[MEASURED[metric]], rel=1e-12)
    measured = plan.run(run.graph)[MEASURED[metric]]
    assert run.metric_value == pytest.approx(measured, rel=1e-9, abs=1e-9)
    assert run.metric_value == run.metric_trace[-1]
    steps = list(zip(run.metric_trace, run.metric_trace[1:]))
    if mode == "max":
        assert all(after >= before for before, after in steps)
    else:
        assert all(after <= before for before, after in steps)
    assert run.accepted_moves > 0
    assert run.attempted_moves == EXPLORE_ATTEMPTS


@pytest.mark.parametrize("metric,mode", OBJECTIVES)
def test_exploration_is_batch_size_invariant(explored_graph, metric, mode, monkeypatch):
    """Exploration energies are exact integers, so the chain takes the same
    moves for every batch size (the batch widths are kernel constants,
    patched here)."""
    runs = []
    for batch_size in (1, 64, 4096):
        _patch_batch_size(monkeypatch, batch_size)
        runs.append(_explore(explored_graph, metric, mode))
    reference = runs[-1]
    for run in runs:
        assert _edge_sets(run.graph) == _edge_sets(reference.graph)
        assert run.metric_trace == reference.metric_trace
        assert run.accepted_moves == reference.accepted_moves


@pytest.mark.parametrize("gate", ("BITSET_MAX_NODES", "THREEK_RANK_SLOTS_MAX"))
@pytest.mark.parametrize("metric,mode", [o for o in OBJECTIVES if o[0] != "s"])
def test_exploration_scalar_path_matches_batched(explored_graph, metric, mode, gate, monkeypatch):
    """A 2K exploration reads neither ceiling of the 3K kernel; 3K targeting
    from its output back to the original's P_3 reads both, and past either
    one (sorted arc keys for the bitset, a sparse gradient for the dense
    one) ``target_3k_from_2k`` takes the same moves."""
    target = three_k_distribution(explored_graph)
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RewiringConvergenceWarning)
        for ceiling in (None, 0):
            if ceiling is not None:
                monkeypatch.setattr(vec, gate, ceiling)
            explored = _explore(explored_graph, metric, mode)
            targeted = target_3k_from_2k(explored.graph, target, rng=5, max_attempts=3000)
            runs.append((explored, targeted))
    (explored, targeted), (twin, past) = runs
    assert targeted.accepted_moves > 0
    assert _edge_sets(twin.graph) == _edge_sets(explored.graph)
    assert twin.metric_trace == explored.metric_trace
    assert _edge_sets(past.graph) == _edge_sets(targeted.graph)
    assert past.distance_trace == targeted.distance_trace
    assert (past.accepted_moves, past.attempted_moves) == (
        targeted.accepted_moves,
        targeted.attempted_moves,
    )


def _complete_graph(n):
    graph = SimpleGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize("metric,mode", OBJECTIVES)
def test_frozen_graph_exploration_returns_its_start(star_graph, metric, mode):
    for graph in (star_graph, _complete_graph(5)):
        start = MeasurementPlan((MEASURED[metric],), use_giant_component=False).run(graph)
        run = _explore(graph, metric, mode, max_attempts=500)
        assert run.accepted_moves == 0
        assert run.metric_value == start[MEASURED[metric]]
        assert _edge_sets(run.graph) == _edge_sets(graph)


# --------------------------------------------------------------------------- #
# store interaction: the engine never enters cache keys
# --------------------------------------------------------------------------- #
class TestStoreCrossEngine:
    def test_generation_key_has_no_backend_input(self):
        """generation_key's signature carries no engine; identical options
        must map to identical keys however the graph will be built."""
        key = generation_key("rewiring", {"multiplier": 2.0}, 7, "source-hash", d=2)
        assert key == generation_key("rewiring", {"multiplier": 2.0}, 7, "source-hash", d=2)
