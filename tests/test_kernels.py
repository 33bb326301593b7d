"""Tests of the CSR kernel engine: view caching, kernels, backend labels."""

from __future__ import annotations

import inspect
import math
import pickle

import numpy as np
import oracle
import pytest
from oracle import oracle_kernels
from oracle.sweep_python import bfs_distances

import repro
from repro.graph.simple_graph import SimpleGraph
from repro.kernels import bfs as bfs_mod
from repro.kernels import biggraph as biggraph_mod
from repro.kernels.backend import AUTO_THRESHOLD, resolve_backend
from repro.kernels.biggraph import BigGraph, _view, bfs_sweep
from repro.measure.plan import MeasurementPlan
from repro.metrics.betweenness import node_betweenness
from repro.metrics.distances import sample_sources


def ring(n):
    return SimpleGraph(n, edges=[(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def mixed_graph():
    """Triangle + pendant + separate edge + isolated node."""
    return SimpleGraph(7, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)])


class TestCSRGraph:
    """A SimpleGraph's CSR view: a BigGraph over int64 arrays, cached."""

    def test_layout(self, mixed_graph):
        csr = _view(mixed_graph)
        assert isinstance(csr, BigGraph)
        assert csr.indptr.dtype == csr.indices.dtype == np.int64
        assert csr.n == 7
        assert csr.m == 5
        assert list(csr.degrees) == mixed_graph.degrees()
        assert csr.indptr[0] == 0 and csr.indptr[-1] == 2 * csr.m
        for u in mixed_graph.nodes():
            row = list(csr.neighbors(u))
            assert row == sorted(mixed_graph.neighbors(u))

    def test_empty_graph(self):
        csr = _view(SimpleGraph(0))
        assert csr.n == 0 and csr.m == 0 and len(csr.indptr) == 1

    def test_edgeless_graph(self):
        csr = _view(SimpleGraph(4))
        assert csr.n == 4 and csr.m == 0
        assert list(csr.degrees) == [0, 0, 0, 0]

    def test_cached_on_instance(self, mixed_graph):
        assert _view(mixed_graph) is _view(mixed_graph)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(3, 4),
            lambda g: g.remove_edge(0, 1),
            lambda g: g.add_node(),
            lambda g: g.add_nodes(2),
        ],
    )
    def test_mutation_invalidates_cache(self, mixed_graph, mutate):
        first = _view(mixed_graph)
        mutate(mixed_graph)
        second = _view(mixed_graph)
        assert second is not first
        assert list(second.degrees) == mixed_graph.degrees()

    def test_copy_does_not_share_cache(self, mixed_graph):
        _view(mixed_graph)
        clone = mixed_graph.copy()
        assert clone._csr_cache is None
        clone.add_edge(3, 4)
        assert _view(mixed_graph) is not _view(clone)

    def test_pickle_drops_cache(self, mixed_graph):
        _view(mixed_graph)
        restored = pickle.loads(pickle.dumps(mixed_graph))
        assert restored == mixed_graph
        assert restored._csr_cache is None
        assert list(_view(restored).degrees) == mixed_graph.degrees()


class TestBackendRegistry:
    """``repro.kernels.backend`` is a label shim: every graph runs on csr."""

    def test_available_backends(self, mixed_graph):
        big = BigGraph.from_simple_graph(mixed_graph)
        assert {resolve_backend(), resolve_backend(mixed_graph), resolve_backend(big)} == {"csr"}

    def test_unknown_backend_rejected(self, mixed_graph):
        # no measurement entry point takes a backend any more
        from repro import metrics
        from repro.measure import intermediates
        from repro.measure.plan import MeasurementPlan
        from repro.metrics import summary
        from repro.store import memo
        from repro.workloads import routing

        entry_points = [
            summary.summarize,
            MeasurementPlan.run,
            memo.memoized_measure,
            routing.routing_load,
            repro.ExperimentSpec,
        ]
        for module in (metrics, intermediates):
            entry_points.extend(
                getattr(module, name) for name in module.__all__
                if callable(getattr(module, name))
            )
        for function in entry_points:
            assert "backend" not in inspect.signature(function).parameters, function
        with pytest.raises(TypeError, match="backend"):
            summary.summarize(mixed_graph, backend="python")

    def test_auto_threshold(self):
        small, large = ring(4), ring(1025)
        assert AUTO_THRESHOLD == 0
        assert resolve_backend(small) == resolve_backend(large) == "csr"

    @pytest.mark.parametrize("setting", ["python", "csr", "auto"])
    def test_biggraph_always_resolves_to_csr(self, mixed_graph, monkeypatch, setting):
        # a leftover REPRO_BACKEND setting changes nothing
        monkeypatch.setenv("REPRO_BACKEND", setting)
        big = BigGraph.from_simple_graph(mixed_graph)
        assert resolve_backend(big) == resolve_backend(mixed_graph) == "csr"
        summaries = [repro.summarize(g, compute_spectrum=False) for g in (big, mixed_graph)]
        assert summaries[0] == summaries[1]


class TestBfsKernel:
    def test_histogram_matches_python(self, mixed_graph):
        sources = list(mixed_graph.nodes())
        expected: dict[int, int] = {}
        for s in sources:
            for d in bfs_distances(mixed_graph, s):
                if d >= 0:
                    expected[d] = expected.get(d, 0) + 1
        assert bfs_sweep(mixed_graph, sources, False)[0] == expected

    def test_histogram_subset_of_sources(self, mixed_graph):
        assert bfs_sweep(mixed_graph, [2], False)[0] == {0: 1, 1: 3}

    def test_histogram_empty(self):
        assert bfs_sweep(SimpleGraph(0), [], False)[0] == {}

    def test_histogram_many_source_blocks(self):
        # more sources than one 64-bit word forces multi-word packing
        graph = ring(130)
        full = bfs_sweep(graph, list(graph.nodes()), False)[0]
        assert full[0] == 130
        assert sum(full.values()) == 130 * 130

    def test_histogram_with_isolated_nodes_matches_oracle(self):
        # nodes 60..69 have no neighbor: the sweep ORs into the reachable
        # rows only, and a source among them sees just itself
        graph = SimpleGraph(70, edges=_random_graph(60, 90, seed=4).edge_list())
        for sources in (list(graph.nodes()), [0, 5, 61, 69]):
            expected = oracle.bfs_histogram(graph, sources)
            assert bfs_sweep(graph, sources, False)[0] == expected
            assert bfs_sweep(BigGraph.from_simple_graph(graph), sources, False)[0] == expected

    def test_histogram_over_several_source_blocks_matches_oracle(self, monkeypatch, hot_small):
        # a tiny gather budget cuts the sweep into 64-source blocks
        monkeypatch.setattr(bfs_mod, "MAX_GATHER_BYTES", 8)
        sources = list(hot_small.nodes())
        assert bfs_mod._block_bits(2 * hot_small.number_of_edges) == 64 < len(sources)
        assert bfs_sweep(hot_small, sources, False)[0] == oracle.bfs_histogram(hot_small, sources)

    def test_histogram_on_memory_mapped_uint32_graph_matches_oracle(self, hot_small, tmp_path):
        BigGraph.from_simple_graph(hot_small).save(tmp_path / "art")
        loaded = BigGraph.load(tmp_path / "art")
        assert isinstance(loaded.indices, np.memmap)
        assert loaded.indices.dtype == np.uint32
        sources = list(hot_small.nodes())[::3]
        assert bfs_sweep(loaded, sources, False)[0] == oracle.bfs_histogram(hot_small, sources)


class TestBetweennessKernel:
    def test_matches_python_exactly_enough(self, mixed_graph):
        with oracle_kernels():
            py = node_betweenness(mixed_graph)
        csr = node_betweenness(mixed_graph)
        assert len(py) == len(csr)
        for a, b in zip(py, csr):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def test_star_center_dominates(self):
        star = SimpleGraph(6, edges=[(0, i) for i in range(1, 6)])
        values = node_betweenness(star)
        assert values[0] == pytest.approx(1.0)
        assert all(v == pytest.approx(0.0) for v in values[1:])


class TestSampleSources:
    def test_full_sweep_when_none_or_clamped(self):
        assert sample_sources(5, None) == ([0, 1, 2, 3, 4], 1.0)
        assert sample_sources(5, 5) == ([0, 1, 2, 3, 4], 1.0)
        # a sample larger than n is clamped to the full sweep, never an error
        assert sample_sources(5, 50) == ([0, 1, 2, 3, 4], 1.0)

    def test_no_duplicate_sources(self):
        # regression: sampling WITH replacement duplicates sources and skews
        # d(x); every draw must yield distinct nodes
        for seed in range(20):
            chosen, scale = sample_sources(30, 10, rng=seed)
            assert len(set(chosen)) == len(chosen) == 10
            assert scale == 3.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            sample_sources(5, 0)

    def test_same_seed_same_sample(self):
        assert sample_sources(100, 7, rng=42) == sample_sources(100, 7, rng=42)


def test_triangle_kernels_agree_on_random_graph():
    rng = np.random.default_rng(3)
    graph = SimpleGraph(80)
    while graph.number_of_edges < 400:
        u, v = int(rng.integers(80)), int(rng.integers(80))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    expected = oracle.triangles_per_node(graph)
    assert biggraph_mod.triangles_per_node(graph) == expected
    big = BigGraph.from_simple_graph(graph)
    assert biggraph_mod.triangles_per_node(big) == expected


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    graph = SimpleGraph(n)
    while graph.number_of_edges < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


CHUNKED_KERNELS = (
    "triangles_per_node",
    "threek_counts",
    "edge_degree_moments",
    "second_order_total",
    "jdd_counts",
)


@pytest.mark.parametrize("arc_chunk", [1, 3, 7])
@pytest.mark.parametrize("candidate_budget", [1, 5])
@pytest.mark.parametrize(
    "graph",
    [
        _random_graph(40, 120, seed=1),
        _random_graph(25, 150, seed=2),
        SimpleGraph(0),
        SimpleGraph(5),
        SimpleGraph(9, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (5, 6), (6, 7), (5, 7)]),
    ],
    ids=["random-sparse", "random-dense", "empty", "edgeless", "isolated-nodes"],
)
def test_chunked_kernels_match_python_across_chunks(
    monkeypatch, graph, arc_chunk, candidate_budget
):
    # tiny chunks force the cross-chunk JDD merge, the node-block split of
    # second_order_total and the 3K wedge pass, and the triangle and
    # wedge-pair batch splits on small graphs
    monkeypatch.setattr(biggraph_mod, "ARC_CHUNK", arc_chunk)
    monkeypatch.setattr(biggraph_mod, "TRIANGLE_CANDIDATE_BUDGET", candidate_budget)
    big = BigGraph.from_simple_graph(graph)
    for name in CHUNKED_KERNELS:
        expected = getattr(oracle, name)(graph)
        assert getattr(biggraph_mod, name)(graph) == expected, name
        assert getattr(biggraph_mod, name)(big) == expected, name


@pytest.mark.parametrize("metric", ["transitivity", "edge_load_by_degree"])
def test_triangle_and_edge_load_metrics_run_on_biggraph(metric, hot_small):
    # edge_load_by_degree is the degree-product load of Sreenivasan et al. 2006
    plan = MeasurementPlan((metric,))
    simple = plan.run(hot_small)[metric]
    assert plan.run(BigGraph.from_simple_graph(hot_small))[metric] == simple
    with oracle_kernels():
        assert plan.run(hot_small.copy())[metric] == pytest.approx(simple, rel=1e-12)
