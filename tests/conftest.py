"""Shared fixtures for the test suite.

Every test under ``tests/`` runs with warnings turned into errors (see
:func:`pytest_collection_modifyitems`): a test that expects a warning says
so with ``pytest.warns`` or a ``filterwarnings`` mark of its own.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.graph.simple_graph import SimpleGraph
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.hot import synthetic_hot_topology

_TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    # prepended, so a test's own filterwarnings marks take precedence
    for item in items:
        if _TESTS_DIR in Path(item.fspath).parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture
def hold_sweep(monkeypatch):
    """``hold_sweep(handle, joiners)``: stall measurement sweeps for a burst.

    Every BFS sweep on the service ``handle`` waits until ``joiners``
    requests have joined an in-flight computation (or 30 s pass), so a
    coalescing test does not depend on how long the sweep itself runs.
    """
    from repro.measure import intermediates

    real_sweep = intermediates.bfs_sweep

    def hold(handle, joiners: int) -> None:
        def held_sweep(*args, **kwargs):
            deadline = time.monotonic() + 30.0
            while handle.service.flights.joined < joiners and time.monotonic() < deadline:
                time.sleep(0.002)
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(intermediates, "bfs_sweep", held_sweep)

    return hold


def build_graph(edges, n=None):
    """Build a SimpleGraph from an edge list, growing nodes as needed."""
    graph = SimpleGraph.from_edges(edges)
    if n is not None:
        while graph.number_of_nodes < n:
            graph.add_node()
    return graph


@pytest.fixture
def triangle_graph():
    """A single triangle."""
    return build_graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_graph():
    """A path on five nodes: 0-1-2-3-4."""
    return build_graph([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def star_graph():
    """A star: node 0 connected to 1..5."""
    return build_graph([(0, i) for i in range(1, 6)])


@pytest.fixture
def square_with_diagonal():
    """A 4-cycle with one chord: two triangles sharing an edge."""
    return build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


@pytest.fixture
def small_mixed_graph():
    """The size-4 worked example shape of the paper: a triangle plus a pendant."""
    return build_graph([(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.fixture
def disconnected_graph():
    """Two components: a triangle and a single edge, plus one isolated node."""
    return build_graph([(0, 1), (1, 2), (0, 2), (3, 4)], n=6)


@pytest.fixture(scope="session")
def random_graph():
    """A moderately sized random graph (Erdős–Rényi-ish) for metric cross-checks."""
    rng = np.random.default_rng(42)
    graph = SimpleGraph(60)
    while graph.number_of_edges < 150:
        u = int(rng.integers(60))
        v = int(rng.integers(60))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


@pytest.fixture(scope="session")
def hot_small():
    """A small HOT-like router topology (fast to analyze)."""
    return synthetic_hot_topology(150, core_size=6, hosts_range=(2, 20), rng=7)


@pytest.fixture(scope="session")
def as_small():
    """A small skitter-like AS topology (fast to analyze)."""
    return synthetic_as_topology(300, rng=7)
