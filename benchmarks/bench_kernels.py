"""Kernel-engine benchmark: python vs CSR backends on the heavy metrics.

Times ``mean_distance``, ``mean_clustering`` and the full ``summarize`` on
skitter-like AS topologies at n ∈ {1k, 5k, 20k}, once per backend, and
records every timing (plus the derived speedups) into BENCH_results.json.
At n = 20k the distance sweep is source-sampled (both backends draw the same
sources), since the exact pure-Python sweep would take minutes.

The acceptance bar of the kernel engine is asserted here: the CSR
distance-distribution kernel must be >= 10x faster than the Python BFS sweep
from n = 5k up.

The spectrum rows time ``extreme_eigenvalues`` on the 9,204-node
skitter-like giant component twice: the former sparse method (shift-invert
at σ = 0, factored under SciPy's default COLAMD ordering, six eigenvalues
with the zero ones filtered out) as the before row, and the library's
deflated shift-invert solve as the after row.  Both must agree on λ_1.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from benchmarks._common import AS_SEED, record_result
from repro.graph.components import giant_component
from repro.measure import clear_measure_cache
from repro.metrics.clustering import mean_clustering
from repro.metrics.distances import mean_distance
from repro.metrics.spectrum import extreme_eigenvalues, normalized_laplacian
from repro.metrics.summary import summarize
from repro.topologies.as_level import synthetic_as_topology

SIZES = (1000, 5000, 20000)

#: n -> sampled BFS sources for the distance-heavy benchmarks (None = exact).
DISTANCE_SOURCES = {1000: None, 5000: None, 20000: 500}

_GRAPHS: dict[int, object] = {}

#: wall times keyed by (operation, n, backend), for the speedup rows.
_TIMINGS: dict[tuple[str, int, str], float] = {}


def _graph(n):
    if n not in _GRAPHS:
        _GRAPHS[n] = synthetic_as_topology(n, rng=AS_SEED)
    return _GRAPHS[n]


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Import the CSR kernel modules (and SciPy) outside the timed regions."""
    summarize(synthetic_as_topology(64, rng=1), compute_spectrum=False, backend="csr")


def _operation(name, graph, n, backend):
    # each operation is timed cold: the measurement-intermediate cache would
    # otherwise let later operations reuse earlier traversals (that sharing
    # is benchmarked separately in bench_measure_plan.py)
    clear_measure_cache(graph)
    if name == "mean_distance":
        return mean_distance(graph, sources=DISTANCE_SOURCES[n], rng=1, backend=backend)
    if name == "mean_clustering":
        return mean_clustering(graph, backend=backend)
    return summarize(
        graph,
        compute_spectrum=False,
        distance_sources=DISTANCE_SOURCES[n],
        rng=1,
        backend=backend,
    )


@pytest.mark.parametrize("backend", ("python", "csr"))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("operation", ("mean_distance", "mean_clustering", "summarize"))
def test_kernel_backend(benchmark, operation, n, backend):
    graph = _graph(n)
    start = time.perf_counter()
    result = benchmark.pedantic(
        _operation, args=(operation, graph, n, backend), rounds=1, iterations=1
    )
    wall = time.perf_counter() - start
    _TIMINGS[(operation, n, backend)] = wall
    record_result(
        f"kernels_{operation}_n{n}_{backend}",
        wall,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    )
    assert result is not None


def test_kernel_speedups():
    """Derive speedup rows; assert the >= 10x distance-kernel acceptance bar."""
    rows = []
    for (operation, n, backend), wall in sorted(_TIMINGS.items()):
        if backend != "python" or (operation, n, "csr") not in _TIMINGS:
            continue
        speedup = wall / max(_TIMINGS[(operation, n, "csr")], 1e-9)
        graph = _graph(n)
        record_result(
            f"kernels_speedup_{operation}_n{n}",
            speedup,
            n=graph.number_of_nodes,
            m=graph.number_of_edges,
        )
        rows.append((operation, n, speedup))
        print(f"{operation} n={n}: csr {speedup:.1f}x faster")
    distance_speedups = {n: s for op, n, s in rows if op == "mean_distance" and n >= 5000}
    assert distance_speedups, "distance benchmarks did not run"
    for n, speedup in distance_speedups.items():
        assert speedup >= 10.0, (
            f"CSR distance kernel only {speedup:.1f}x faster at n={n} (need >= 10x)"
        )


#: node count of the skitter-like topology the spectrum rows measure
SPECTRUM_N = 9204


def _zero_shift_extremes(graph):
    """The former sparse method: shift-invert at σ = 0 under COLAMD (baseline)."""
    laplacian = normalized_laplacian(graph)
    largest = spla.eigsh(laplacian, k=1, which="LA", return_eigenvectors=False, tol=1e-6)[0]
    smallest = np.sort(
        spla.eigsh(laplacian, k=6, sigma=0, which="LM", return_eigenvectors=False, tol=1e-6)
    )
    return float(smallest[smallest > 1e-8][0]), float(largest)


def test_spectrum_extremes_before_after():
    graph = giant_component(synthetic_as_topology(SPECTRUM_N, rng=AS_SEED))
    results = {}
    for label, method, function in (
        ("before", "shift-invert sigma=0, splu COLAMD, k=6", _zero_shift_extremes),
        (
            "after",
            "deflated shift-invert sigma=-1e-3, splu MMD_AT_PLUS_A, k=1",
            extreme_eigenvalues,
        ),
    ):
        start = time.perf_counter()
        results[label] = function(graph)
        wall = time.perf_counter() - start
        params = {"n": graph.number_of_nodes, "m": graph.number_of_edges, "method": method}
        record_result(
            f"spectrum_extremes_skitter_gcc_n{SPECTRUM_N}_{label}",
            wall,
            n=graph.number_of_nodes,
            m=graph.number_of_edges,
            params=params,
            lambda_1=results[label][0],
            lambda_n_1=results[label][1],
        )
        print(f"spectrum {label}: {wall:.3f} s, {results[label]}")
    assert results["after"][0] == pytest.approx(results["before"][0], rel=1e-9)
    assert results["after"][1] == pytest.approx(results["before"][1], abs=1e-8)
