"""Tests of the CSR kernel engine: snapshot caching, registry, kernels."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.graph.simple_graph import SimpleGraph
from repro.graph.subgraphs import triangles_per_node as triangles_reference
from repro.kernels import backend as backend_mod
from repro.kernels.backend import (
    AUTO_THRESHOLD,
    available_backends,
    current_backend,
    dispatch,
    get_kernel,
    resolve_backend,
    use_backend,
)
from repro.kernels.bfs import bfs_histogram
from repro.kernels.csr import CSRGraph, csr_graph
from repro.metrics.betweenness import node_betweenness
from repro.metrics.distances import bfs_distances, sample_sources


def ring(n):
    return SimpleGraph(n, edges=[(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def mixed_graph():
    """Triangle + pendant + separate edge + isolated node."""
    return SimpleGraph(7, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)])


class TestCSRGraph:
    def test_layout(self, mixed_graph):
        csr = csr_graph(mixed_graph)
        assert csr.n == 7
        assert csr.m == 5
        assert list(csr.degrees) == mixed_graph.degrees()
        assert csr.indptr[0] == 0 and csr.indptr[-1] == 2 * csr.m
        for u in mixed_graph.nodes():
            row = list(csr.neighbors(u))
            assert row == sorted(mixed_graph.neighbors(u))

    def test_empty_graph(self):
        csr = csr_graph(SimpleGraph(0))
        assert csr.n == 0 and csr.m == 0 and len(csr.indptr) == 1

    def test_edgeless_graph(self):
        csr = csr_graph(SimpleGraph(4))
        assert csr.n == 4 and csr.m == 0
        assert list(csr.degrees) == [0, 0, 0, 0]

    def test_cached_on_instance(self, mixed_graph):
        assert csr_graph(mixed_graph) is csr_graph(mixed_graph)

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
        first = csr_graph(mixed_graph)
        mutate(mixed_graph)
        second = csr_graph(mixed_graph)
        assert second is not first
        assert list(second.degrees) == mixed_graph.degrees()

    def test_copy_does_not_share_cache(self, mixed_graph):
        csr_graph(mixed_graph)
        clone = mixed_graph.copy()
        assert clone._csr_cache is None
        clone.add_edge(3, 4)
        assert csr_graph(mixed_graph) is not csr_graph(clone)

    def test_pickle_drops_cache(self, mixed_graph):
        csr_graph(mixed_graph)
        restored = pickle.loads(pickle.dumps(mixed_graph))
        assert restored == mixed_graph
        assert restored._csr_cache is None
        assert list(csr_graph(restored).degrees) == mixed_graph.degrees()


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ("python", "csr", "biggraph")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(None, "fortran")
        with pytest.raises(ValueError, match="unknown backend"):
            use_backend("fortran")

    def test_bad_env_backend_reported_clearly(self, monkeypatch):
        # a typo'd REPRO_BACKEND lands in _state unvalidated (validating at
        # import time would make the package unimportable); the first
        # resolve must surface it as a clear ValueError, not a KeyError
        monkeypatch.setitem(backend_mod._state, "backend", "numppy")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(None)

    def test_malformed_threshold_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSR_THRESHOLD", "2k")
        with pytest.warns(RuntimeWarning, match="REPRO_CSR_THRESHOLD"):
            assert backend_mod._int_env("REPRO_CSR_THRESHOLD", 1024) == 1024

    def test_per_call_override_wins(self, mixed_graph):
        with use_backend("csr"):
            assert resolve_backend(mixed_graph, "python") == "python"
        with use_backend("python"):
            assert resolve_backend(mixed_graph, "csr") == "csr"

    def test_use_backend_context_restores(self, mixed_graph):
        before = current_backend()
        with use_backend("csr"):
            assert current_backend() == "csr"
            assert resolve_backend(mixed_graph) == "csr"
        assert current_backend() == before

    def test_auto_threshold(self):
        small, large = ring(4), ring(AUTO_THRESHOLD + 1)
        with use_backend("auto"):
            assert resolve_backend(small) == "python"
            assert resolve_backend(large) == "csr"

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="no kernel"):
            get_kernel("warp_drive", "csr")

    def test_dispatch_returns_backend_impl(self, mixed_graph):
        py = dispatch("triangles_per_node", mixed_graph, "python")
        csr = dispatch("triangles_per_node", mixed_graph, "csr")
        assert py is not csr
        assert py(mixed_graph) == csr(mixed_graph)

    def test_missing_numpy_degrades_with_warning(self, mixed_graph, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        monkeypatch.setattr(backend_mod, "_warned_missing_numpy", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend(mixed_graph, "csr") == "python"
        assert backend_mod.available_backends() == ("python",)
        assert resolve_backend(ring(AUTO_THRESHOLD + 1), "auto") == "python"


class TestBfsKernel:
    def test_histogram_matches_python(self, mixed_graph):
        sources = list(mixed_graph.nodes())
        expected: dict[int, int] = {}
        for s in sources:
            for d in bfs_distances(mixed_graph, s):
                if d >= 0:
                    expected[d] = expected.get(d, 0) + 1
        assert bfs_histogram(mixed_graph, sources) == expected

    def test_histogram_subset_of_sources(self, mixed_graph):
        assert bfs_histogram(mixed_graph, [2]) == {0: 1, 1: 3}

    def test_histogram_empty(self):
        assert bfs_histogram(SimpleGraph(0), []) == {}

    def test_histogram_many_source_blocks(self):
        # more sources than one 64-bit word forces multi-word packing
        graph = ring(130)
        full = bfs_histogram(graph, list(graph.nodes()))
        assert full[0] == 130
        assert sum(full.values()) == 130 * 130


class TestBetweennessKernel:
    def test_matches_python_exactly_enough(self, mixed_graph):
        py = node_betweenness(mixed_graph, backend="python")
        csr = node_betweenness(mixed_graph, backend="csr")
        assert len(py) == len(csr)
        for a, b in zip(py, csr):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def test_star_center_dominates(self):
        star = SimpleGraph(6, edges=[(0, i) for i in range(1, 6)])
        values = node_betweenness(star, backend="csr")
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
    expected = triangles_reference(graph)
    assert dispatch("triangles_per_node", graph, "csr")(graph) == expected
    # the numpy-only sorted-intersection path must agree with the scipy one
    from repro.kernels.csr import csr_graph as build
    from repro.kernels.triangles import _triangles_by_intersection

    assert list(_triangles_by_intersection(build(graph))) == expected
