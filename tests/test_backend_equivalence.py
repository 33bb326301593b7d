"""Property-style equivalence suite: python and CSR backends are identical.

The contract of the kernel engine is that the backend is a pure performance
knob: every integer count is exactly equal across backends and every derived
float is (at least) ``math.isclose``-equal — for the Table-2 scalar summary
they are in fact bit-identical, which is what allows the artifact store to
share cached metrics across backends.  The property test also runs the CSR
kernels on the same graph as a :class:`~repro.kernels.biggraph.BigGraph`.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extraction import joint_degree_distribution
from repro.core.randomness import dk_random_graph
from repro.experiment import ExperimentSpec, _cell_cache_key
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.metrics.distances import distance_distribution, distance_histogram
from repro.metrics.summary import ScalarMetrics, summarize
from repro.store.artifact_store import ArtifactStore
from repro.store.memo import memoized_summarize


def star(n):
    return SimpleGraph(n, edges=[(0, i) for i in range(1, n)])


def clique(n):
    return SimpleGraph(n, edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


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
        SimpleGraph(6, edges=[(i, i + 1) for i in range(5)]),  # path
    ]
    corpus.extend(random_dk_graphs())
    return corpus


def assert_summaries_equivalent(a: ScalarMetrics, b: ScalarMetrics):
    for f in fields(ScalarMetrics):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("nodes", "edges"):
            assert va == vb, f.name  # counts: exact
        else:
            assert math.isclose(va, vb, rel_tol=1e-12, abs_tol=1e-12), (f.name, va, vb)


@pytest.mark.parametrize("graph", graph_corpus(), ids=lambda g: f"n{g.number_of_nodes}m{g.number_of_edges}")
def test_summaries_equivalent(graph):
    py = summarize(graph, compute_spectrum=False, backend="python")
    csr = summarize(graph, compute_spectrum=False, backend="csr")
    assert_summaries_equivalent(py, csr)
    # the engine's stronger guarantee: the summaries are bit-identical
    assert py.as_dict() == csr.as_dict()


@pytest.mark.parametrize("graph", graph_corpus(), ids=lambda g: f"n{g.number_of_nodes}m{g.number_of_edges}")
def test_integer_kernels_exactly_equal(graph):
    assert distance_histogram(graph, backend="python") == distance_histogram(
        graph, backend="csr"
    )
    jdd_py = joint_degree_distribution(graph, backend="python")
    jdd_csr = joint_degree_distribution(graph, backend="csr")
    assert jdd_py.counts == jdd_csr.counts
    assert jdd_py.zero_degree_nodes == jdd_csr.zero_degree_nodes


def test_sampled_sweep_equivalent_for_same_seed():
    graph = random_dk_graphs()[2]
    py = distance_histogram(graph, sources=20, rng=5, backend="python")
    csr = distance_histogram(graph, sources=20, rng=5, backend="csr")
    assert py == csr
    assert distance_distribution(graph, sources=20, rng=5, backend="csr") == pytest.approx(
        distance_distribution(graph, sources=20, rng=5, backend="python")
    )


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
    python = summarize(graph, compute_spectrum=False, backend="python")
    assert_summaries_equivalent(python, summarize(graph, compute_spectrum=False, backend="csr"))
    # the same kernels on the memory-mapped tier's graph type
    big = BigGraph.from_simple_graph(graph)
    assert_summaries_equivalent(python, summarize(big, compute_spectrum=False))
    assert distance_histogram(graph, backend="python") == distance_histogram(
        graph, backend="csr"
    )


class TestBackendNeverChangesCacheKeys:
    def test_summary_store_entry_shared_across_backends(self, tmp_path):
        graph = star(30)
        store = ArtifactStore(tmp_path / "store")
        first = memoized_summarize(graph, store, compute_spectrum=False, backend="csr")
        written = store.info()["metrics"]
        assert written == 9  # one metric-granular entry per Table-2 scalar
        # the python run is served the CSR-computed entries: same keys, no write
        second = memoized_summarize(graph, store, compute_spectrum=False, backend="python")
        assert store.info()["metrics"] == written
        assert first == second

    def test_experiment_cell_key_ignores_backend(self):
        def spec_with(backend):
            return ExperimentSpec(
                topologies=("hot_small",),
                methods=("pseudograph",),
                d_levels=(2,),
                seed=3,
                backend=backend,
            )

        cells = {backend: spec_with(backend).cells()[0] for backend in ("python", "csr")}
        keys = {
            backend: _cell_cache_key(spec_with(backend), cell, "fake-topology-hash")
            for backend, cell in cells.items()
        }
        assert keys["python"] == keys["csr"]

    def test_spec_rejects_bad_backend(self):
        with pytest.raises(Exception, match="backend"):
            ExperimentSpec(topologies=("hot_small",), methods=("pseudograph",), backend="gpu")
