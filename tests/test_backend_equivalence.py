"""Property-style equivalence suite: the csr kernels against the python oracle.

The library measures with the csr kernels only; the pure-Python kernels in
``tests/oracle`` are the reference they must reproduce.  Every integer
count is exactly equal, the Table-2 scalar summary is bit-identical, and
Brandes betweenness agrees to 1e-12 relative error.  The corpus includes
path-like graphs (path-300, ring-301) whose BFS depth is close to n.  The
property test also runs the csr kernels on the same graph as a
:class:`~repro.kernels.biggraph.BigGraph`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import oracle_kernels

from repro.core.extraction import (
    dk_distribution,
    joint_degree_distribution,
    three_k_distribution,
)
from repro.core.randomness import dk_random_graph
from repro.experiment import ExperimentSpec
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.metrics.betweenness import node_betweenness
from repro.metrics.distances import distance_distribution, distance_histogram
from repro.measure.plan import TABLE2_CORE_METRICS, Measurement
from repro.metrics.summary import summarize
from repro.store.artifact_store import ArtifactStore
from repro.store.memo import memoized_measure


def star(n):
    return SimpleGraph(n, edges=[(0, i) for i in range(1, n)])


def clique(n):
    return SimpleGraph(n, edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return SimpleGraph(n, edges=[(i, i + 1) for i in range(n - 1)])


def ring(n):
    return SimpleGraph(n, edges=[(i, (i + 1) % n) for i in range(n)])


def random_dk_graphs():
    """2K/1K/0K-random graphs from a scale-free-ish seed topology."""
    rng = np.random.default_rng(11)
    seed_graph = SimpleGraph(120)
    targets = rng.integers(0, 120, size=400)
    for index, v in enumerate(targets):
        u = int(rng.integers(0, 1 + index % 119))
        v = int(v)
        if u != v and not seed_graph.has_edge(u, v):
            seed_graph.add_edge(u, v)
    return [
        dk_random_graph(seed_graph, d, rng=7 + d, method=method)
        for d, method in ((0, "rewiring"), (1, "rewiring"), (2, "pseudograph"))
    ]


def graph_corpus():
    corpus = [
        SimpleGraph(0),  # empty graph
        SimpleGraph(3),  # isolated nodes only
        star(8),
        clique(6),
        SimpleGraph(9, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7)]),  # disconnected
        path(6),
    ]
    zero_k, one_k, two_k = random_dk_graphs()
    # The 2K pseudograph's edge count follows the generator's RNG stream, so
    # its test id is a fixed label (the count when the label was set), not a
    # live count: a change of stream must not rename the tests.
    corpus.extend([zero_k, one_k, pytest.param(two_k, id="n120m365")])
    # depth ~ n: the batched sweeps take one sparse product per BFS level
    corpus.extend([path(300), ring(301)])
    return corpus


CORPUS = graph_corpus()


def corpus_id(graph):
    return f"n{graph.number_of_nodes}m{graph.number_of_edges}"


def assert_summaries_equivalent(a: Measurement, b: Measurement):
    assert a.metrics == b.metrics
    for name in a.metrics:
        va, vb = a[name], b[name]
        if name in ("nodes", "edges"):
            assert va == vb, name  # counts: exact
        else:
            assert math.isclose(va, vb, rel_tol=1e-12, abs_tol=1e-12), (name, va, vb)


@pytest.mark.parametrize("graph", CORPUS, ids=corpus_id)
def test_summaries_equivalent(graph):
    with oracle_kernels():
        py = summarize(graph, compute_spectrum=False)
    csr = summarize(graph, compute_spectrum=False)
    assert_summaries_equivalent(py, csr)
    # the engine's stronger guarantee: the summaries are bit-identical
    assert py.as_dict() == csr.as_dict()


@pytest.mark.parametrize("graph", CORPUS, ids=corpus_id)
def test_integer_kernels_exactly_equal(graph):
    with oracle_kernels():
        histogram_py = distance_histogram(graph)
        jdd_py = joint_degree_distribution(graph)
        threek_py = three_k_distribution(graph)
    assert histogram_py == distance_histogram(graph)
    jdd_csr = joint_degree_distribution(graph)
    # same pairs in the same (edge-list) order: generators read them in order
    assert list(jdd_py.counts.items()) == list(jdd_csr.counts.items())
    assert jdd_py.zero_degree_nodes == jdd_csr.zero_degree_nodes
    # P_3: the same wedge and triangle counts
    assert three_k_distribution(graph) == threek_py


@pytest.mark.parametrize("graph", CORPUS, ids=corpus_id)
def test_biggraph_extracts_p3(graph):
    # P_3 and every lower distribution: P_0 to P_2 as well
    big = BigGraph.from_simple_graph(graph)
    for d in range(4):
        assert dk_distribution(big, d) == dk_distribution(graph, d), d


@pytest.mark.parametrize("graph", CORPUS, ids=corpus_id)
def test_betweenness_within_1e12(graph):
    with oracle_kernels():
        py = node_betweenness(graph)
    csr = node_betweenness(graph)
    assert len(py) == len(csr)
    for value, expected in zip(csr, py):
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-15)


def test_sampled_sweep_equivalent_for_same_seed():
    graph = random_dk_graphs()[2]
    with oracle_kernels():
        py = distance_histogram(graph, sources=20, rng=5)
        py_distribution = distance_distribution(graph, sources=20, rng=5)
    assert py == distance_histogram(graph, sources=20, rng=5)
    assert distance_distribution(graph, sources=20, rng=5) == pytest.approx(py_distribution)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    edges=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120
    ),
)
def test_property_random_graphs_equivalent(n, edges):
    graph = SimpleGraph(n)
    for u, v in edges:
        if u != v and u < n and v < n and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    with oracle_kernels():
        python = summarize(graph, compute_spectrum=False)
        histogram = distance_histogram(graph)
    assert_summaries_equivalent(python, summarize(graph, compute_spectrum=False))
    # the same kernels on the memory-mapped tier's graph type
    big = BigGraph.from_simple_graph(graph)
    assert_summaries_equivalent(python, summarize(big, compute_spectrum=False))
    assert histogram == distance_histogram(graph)


class TestBackendNeverChangesCacheKeys:
    def test_summary_store_entry_shared_across_backends(self, tmp_path):
        graph = star(30)
        store = ArtifactStore(tmp_path / "store")
        first = memoized_measure(graph, store, metrics=TABLE2_CORE_METRICS)
        written = store.info_dict()["metrics"]
        assert written == 9  # one metric-granular entry per Table-2 scalar
        # keys never name a kernel set: an oracle run is served the
        # csr-computed entries (same keys, no write) and agrees with them
        with oracle_kernels():
            second = memoized_measure(graph.copy(), store, metrics=TABLE2_CORE_METRICS)
            recomputed = summarize(graph.copy(), compute_spectrum=False)
        assert store.info_dict()["metrics"] == written
        assert first == second == recomputed

    def test_experiment_cell_key_ignores_backend(self, tmp_path):
        # cells written by a csr run are served to an oracle run of the same
        # spec, and an uncached oracle run records the same metrics (the
        # original topology only: a generator's input would be extracted by
        # the oracle's JDD kernel, whose dict order differs)
        spec = ExperimentSpec(
            topologies=("hot_small", "skitter_like_small"),
            methods=(),
            include_original=True,
            seed=3,
        )
        store = ArtifactStore(tmp_path / "store")
        first = spec.run(store=store)
        with oracle_kernels():
            served = spec.run(store=store)
            fresh = spec.run()
        assert served.cached_cells == len(spec.cells())
        assert fresh.cached_cells == 0
        rows = [result.to_rows(include_timing=False) for result in (first, served, fresh)]
        assert rows[0] == rows[1] == rows[2]
