"""Shared fixtures for the test suite.

The suite runs in two configurations: the normal one with NumPy installed,
and a degraded one (the no-numpy CI job) checking that the pure-Python
analysis path works on a bare interpreter.  Without NumPy, the test modules
that exercise NumPy-dependent subsystems (generators, experiment pipeline,
store, spectrum, networkx oracles) are skipped at collection time via
``collect_ignore``; the remaining modules cover the graph substrate, the dK
extraction/distance core and the python-backend metrics.
"""

from __future__ import annotations

import pytest

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:
    np = None
    HAVE_NUMPY = False

from repro.graph.simple_graph import SimpleGraph

if HAVE_NUMPY:
    from repro.topologies.as_level import synthetic_as_topology
    from repro.topologies.hot import synthetic_hot_topology

#: Test modules that hard-require numpy (directly or through the modules
#: they exercise); ignored at collection time on a no-numpy interpreter.
_NUMPY_ONLY = [
    "test_analysis.py",
    "test_backend_equivalence.py",
    "test_baselines.py",
    "test_batched_brandes.py",
    "test_cli.py",
    "test_conversion.py",
    "test_counting.py",
    "test_entropy.py",
    "test_experiment.py",
    "test_experiment_resume.py",
    "test_exploration.py",
    "test_generator_registry.py",
    "test_integration.py",
    "test_kernels.py",
    "test_matching.py",
    "test_measure_plan.py",
    "test_metrics.py",
    "test_preserving.py",
    "test_properties.py",
    "test_pseudograph.py",
    "test_randomness.py",
    "test_rescaling.py",
    "test_rewiring_engine.py",
    "test_series.py",
    "test_service.py",
    "test_stochastic.py",
    "test_store.py",
    "test_store_serialize.py",
    "test_swaps.py",
    "test_targeting.py",
    "test_telemetry_experiment.py",
    "test_threek.py",
    "test_topologies.py",
]

collect_ignore = [] if HAVE_NUMPY else _NUMPY_ONLY


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
    if not HAVE_NUMPY:
        pytest.skip("requires numpy")
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
    if not HAVE_NUMPY:
        pytest.skip("requires numpy")
    return synthetic_hot_topology(150, core_size=6, hosts_range=(2, 20), rng=7)


@pytest.fixture(scope="session")
def as_small():
    """A small skitter-like AS topology (fast to analyze)."""
    if not HAVE_NUMPY:
        pytest.skip("requires numpy")
    return synthetic_as_topology(300, rng=7)
