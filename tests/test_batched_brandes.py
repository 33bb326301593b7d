"""Batched Brandes kernel vs the per-source python oracle.

The csr and biggraph ``bfs_sweep`` kernels run Brandes on blocks of sources
as dense matrix columns (:mod:`repro.kernels.betweenness`).  The python
``bfs_sweep`` (one :func:`~repro.metrics.betweenness.brandes_source` per
source) is the oracle: histograms must match exactly, node centrality and
per-edge load to 1e-12 relative error.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.simple_graph import SimpleGraph
from repro.kernels import backend as kernel_backend
from repro.kernels import betweenness as batched
from repro.kernels.backend import get_kernel, resolve_backend
from repro.kernels.biggraph import BigGraph
from repro.measure.intermediates import shared_sweep
from repro.topologies.as_level import synthetic_as_topology


def path(n):
    return SimpleGraph.from_edges((i, i + 1) for i in range(n - 1))


def ring(n):
    return SimpleGraph.from_edges((i, (i + 1) % n) for i in range(n))


def assert_close(values, oracle):
    assert len(values) == len(oracle)
    for index, (value, expected) in enumerate(zip(values, oracle)):
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=0.0), (
            index, value, expected,
        )


def assert_matches_oracle(graph, sources, backend="csr"):
    """Run ``backend``'s sweep on ``graph`` and compare it with python's."""
    expected = get_kernel("bfs_sweep", "python")(graph, sources, True, True)
    target = BigGraph.from_simple_graph(graph) if backend == "biggraph" else graph
    histogram, centrality, edge_load = get_kernel("bfs_sweep", backend)(
        target, sources, True, True
    )
    assert histogram == expected[0]
    assert_close(centrality, expected[1])
    assert_close(edge_load, expected[2])
    return histogram, centrality, edge_load


@pytest.fixture
def small_blocks(monkeypatch):
    """Four sources per block, so small graphs span several blocks."""
    monkeypatch.setattr(batched, "BLOCK_SOURCES", 4)


@pytest.mark.parametrize("backend", ["csr", "biggraph"])
def test_all_sources_on_an_as_topology(backend):
    graph = synthetic_as_topology(200, rng=3)
    assert_matches_oracle(graph, list(graph.nodes()), backend)


@pytest.mark.parametrize("backend", ["csr", "biggraph"])
def test_sampled_sources_across_partial_blocks(backend, small_blocks):
    graph = synthetic_as_topology(120, rng=5)
    sources = sorted(np.random.default_rng(2).choice(120, 11, replace=False).tolist())
    assert len(sources) % batched.BLOCK_SOURCES != 0
    assert_matches_oracle(graph, sources, backend)


def test_block_width_does_not_change_the_result(small_blocks):
    graph = synthetic_as_topology(90, rng=8)
    narrow = assert_matches_oracle(graph, list(graph.nodes()))
    batched.BLOCK_SOURCES = 64
    wide = get_kernel("bfs_sweep", "csr")(graph, list(graph.nodes()), True, True)
    assert narrow[0] == wide[0]
    assert_close(narrow[1], wide[1])
    assert_close(narrow[2], wide[2])


@pytest.mark.parametrize("backend", ["csr", "biggraph"])
def test_one_source_and_no_sources(backend):
    graph = synthetic_as_topology(60, rng=1)
    assert_matches_oracle(graph, [7], backend)
    histogram, centrality, edge_load = assert_matches_oracle(graph, [], backend)
    assert histogram == {}
    assert not any(centrality) and not any(edge_load)


@pytest.mark.parametrize(
    "graph, depth",
    [(path(60), 59), (ring(61), 30), (ring(64), 32)],
    ids=["path", "odd-ring", "even-ring"],
)
def test_long_paths_and_rings(graph, depth):
    # depth ~ n: one sparse product per level, forward and backward
    histogram, _, _ = assert_matches_oracle(graph, list(graph.nodes()))
    assert max(histogram) == depth


def test_disconnected_graph_and_isolated_sources():
    graph = SimpleGraph(
        10, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (5, 6), (6, 7), (7, 5), (7, 8)]
    )
    # node 4 and node 9 are isolated; sources span every component
    assert_matches_oracle(graph, [0, 4, 5, 8, 9])
    assert_matches_oracle(graph, list(graph.nodes()))


def test_edgeless_graph():
    histogram, centrality, edge_load = assert_matches_oracle(SimpleGraph(5), [0, 3])
    assert histogram == {0: 2}
    assert edge_load == []


def test_node_centrality_without_edge_load():
    graph = synthetic_as_topology(80, rng=4)
    sources = list(range(0, 80, 3))
    expected = get_kernel("bfs_sweep", "python")(graph, sources, True, False)
    histogram, centrality, edge_load = get_kernel("bfs_sweep", "csr")(
        graph, sources, True, False
    )
    assert histogram == expected[0]
    assert_close(centrality, expected[1])
    assert edge_load is None


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=70),
    data=st.data(),
)
def test_property_random_graphs_match_the_oracle(n, edges, data):
    graph = SimpleGraph(n)
    for u, v in edges:
        if u != v and u < n and v < n and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    sources = data.draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="sources"
    )
    assert_matches_oracle(graph, sources)
    assert_matches_oracle(graph, sources, "biggraph")


def test_block_width_is_bounded_by_scratch_memory():
    assert batched._block_sources(1000) == batched.BLOCK_SOURCES
    width = batched._block_sources(10**6)
    assert 1 <= width < batched.BLOCK_SOURCES
    assert width * 10**6 * batched._ENTRY_BYTES <= batched.MAX_GATHER_BYTES
    assert batched._block_sources(10**9) == 1  # never below one source


# --------------------------------------------------------------------------- #
# the auto rule: every Brandes sweep goes to the batched kernel
# --------------------------------------------------------------------------- #
@pytest.fixture
def counting_sweep(monkeypatch):
    calls: list[tuple[str, bool]] = []
    for name in ("python", "csr"):
        real = get_kernel("bfs_sweep", name)

        def counting(graph, sources, want_betweenness, want_edge_load=False,
                     _real=real, _name=name):
            calls.append((_name, want_betweenness or want_edge_load))
            return _real(graph, sources, want_betweenness, want_edge_load)

        monkeypatch.setitem(kernel_backend._KERNELS, ("bfs_sweep", name), counting)
    return calls


def test_auto_sends_brandes_sweeps_to_csr_at_small_n(counting_sweep):
    graph = synthetic_as_topology(50, rng=6)
    assert graph.number_of_nodes < kernel_backend.AUTO_THRESHOLD
    assert resolve_backend(graph, "auto") == "python"
    assert resolve_backend(graph, "auto", brandes=True) == "csr"
    shared_sweep(synthetic_as_topology(50, rng=6), backend="auto")
    shared_sweep(graph, backend="auto", want_betweenness=True)
    assert counting_sweep == [("python", False), ("csr", True)]
    # an explicit backend is never overridden
    assert resolve_backend(graph, "python", brandes=True) == "python"


def test_auto_histogram_request_reuses_a_cached_brandes_sweep(counting_sweep):
    graph = synthetic_as_topology(50, rng=6)
    brandes = shared_sweep(graph, backend="auto", want_edge_load=True)
    plain = shared_sweep(graph, backend="auto")
    assert plain is brandes
    assert counting_sweep == [("csr", True)]
