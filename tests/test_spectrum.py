"""The sparse spectrum path against the dense oracle.

Above ``DENSE_LIMIT`` nodes ``extreme_eigenvalues`` runs a deflated
shift-invert Lanczos solve for ``λ_1`` and a Lanczos run for ``λ_{n-1}``.
Patching ``DENSE_LIMIT`` to 0 sends small graphs down that path, where the
full dense spectrum is cheap to compare against: ``λ_1`` must agree within
1e-9 relative and ``λ_{n-1}`` within 1e-8 absolute.
"""

from __future__ import annotations

import pytest

from repro.graph.components import giant_component
from repro.graph.simple_graph import SimpleGraph
from repro.metrics import spectrum
from repro.metrics.spectrum import extreme_eigenvalues, laplacian_spectrum
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.hot import synthetic_hot_topology


def dense_extremes(graph):
    """``(λ_1, λ_{n-1})`` read off the full dense spectrum."""
    eigenvalues = laplacian_spectrum(graph)
    non_zero = eigenvalues[eigenvalues > 1e-8]
    return float(non_zero[0]), float(eigenvalues[-1])


def assert_close(result, expected):
    assert result[0] == pytest.approx(expected[0], rel=1e-9, abs=0)
    assert result[1] == pytest.approx(expected[1], rel=0, abs=1e-8)


def disjoint_union(*graphs):
    union = SimpleGraph(sum(graph.number_of_nodes for graph in graphs))
    offset = 0
    for graph in graphs:
        for u, v in graph.edge_list():
            union.add_edge(u + offset, v + offset)
        offset += graph.number_of_nodes
    return union


def path(n):
    return SimpleGraph.from_edges([(i, i + 1) for i in range(n - 1)])


def ring(n):
    return SimpleGraph.from_edges([(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def with_isolated_nodes(graph, count):
    graph = graph.copy()
    graph.add_nodes(count)
    return graph


GRAPHS = {
    "as400": lambda: synthetic_as_topology(400, rng=7),
    "hot939": lambda: synthetic_hot_topology(939, rng=7),
    "path200": lambda: path(200),
    "ring300": lambda: ring(300),
    "star50": lambda: SimpleGraph.from_edges([(0, i) for i in range(1, 50)]),
    "K30": lambda: complete(30),
    "ten_triangles": lambda: disjoint_union(*[complete(3) for _ in range(10)]),
    "isolated_nodes": lambda: with_isolated_nodes(synthetic_as_topology(200, rng=3), 7),
}


@pytest.fixture
def sparse_path(monkeypatch):
    """Send every graph down the sparse branch of ``extreme_eigenvalues``."""
    monkeypatch.setattr(spectrum, "DENSE_LIMIT", 0)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sparse_path_matches_dense_oracle(sparse_path, name):
    graph = GRAPHS[name]()
    assert_close(extreme_eigenvalues(graph), dense_extremes(graph))


def test_isolated_nodes_do_not_make_the_factor_singular(sparse_path):
    graph = with_isolated_nodes(synthetic_as_topology(300, rng=7), 5)
    assert_close(extreme_eigenvalues(graph), dense_extremes(graph))


def test_isolated_nodes_above_the_dense_limit():
    graph = with_isolated_nodes(giant_component(synthetic_as_topology(2600, rng=3)), 5)
    assert graph.number_of_nodes > spectrum.DENSE_LIMIT
    connected = extreme_eigenvalues(giant_component(graph))
    assert_close(extreme_eigenvalues(graph), connected)


def test_many_components_give_the_smallest_component_gap():
    components = [synthetic_as_topology(400, rng=seed) for seed in range(7)]
    graph = disjoint_union(*components)
    assert graph.number_of_nodes > spectrum.DENSE_LIMIT
    # the spectrum of a disjoint union is the union of the spectra
    per_component = [dense_extremes(component) for component in components]
    oracle = (
        min(lambda_1 for lambda_1, _ in per_component),
        max(lambda_n_1 for _, lambda_n_1 in per_component),
    )
    result = extreme_eigenvalues(graph)
    assert result[0] > 0.1
    assert_close(result, oracle)


def test_edgeless_graph_has_no_nonzero_eigenvalue(sparse_path):
    assert extreme_eigenvalues(SimpleGraph(10)) == (0.0, 0.0)


def test_sparse_path_is_deterministic():
    graph = giant_component(synthetic_as_topology(2600, rng=3))
    assert graph.number_of_nodes > spectrum.DENSE_LIMIT
    first = extreme_eigenvalues(graph)
    assert extreme_eigenvalues(graph) == first
