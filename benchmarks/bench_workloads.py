"""Traffic-workload benchmark: routing-load throughput, cold vs store-warm.

Routes uniform all-pairs demand (shortest paths, even splitting) over a
skitter-like AS topology and records the congestion battery —
``WORKLOAD_METRICS`` — three ways, all into BENCH_results.json:

* **cold**: empty artifact store, one planner run (a single Brandes sweep
  feeds every load/congestion metric) plus the store writes;
* **store-warm**: the identical request again, every metric a store read,
  zero routing recomputation;
* the derived throughput rows, nodes routed/sec = n / wall, for both.

The acceptance bar: the warm replay must beat the cold computation by a
wide margin (>= 5x) — otherwise the store is not actually short-circuiting
the routing sweep.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._common import AS_SEED, FULL_SCALE, record_result
from repro.measure import clear_measure_cache
from repro.store import ArtifactStore
from repro.store.memo import memoized_measure
from repro.store.serialize import graph_content_hash
from repro.topologies.as_level import synthetic_as_topology
from repro.workloads import WORKLOAD_METRICS

N = 5000 if FULL_SCALE else 2000

_STATE: dict[str, object] = {}


def _graph():
    if "graph" not in _STATE:
        _STATE["graph"] = synthetic_as_topology(N, rng=AS_SEED)
    return _STATE["graph"]


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Import the CSR sweep kernel outside the timed regions."""
    from repro.measure import MeasurementPlan

    MeasurementPlan(WORKLOAD_METRICS).run(synthetic_as_topology(64, rng=1))


def test_routing_load_cold_then_store_warm(benchmark, tmp_path):
    graph = _graph()
    store = ArtifactStore(tmp_path / "store")
    graph_hash = graph_content_hash(graph)

    def cold():
        clear_measure_cache(graph)
        return memoized_measure(
            graph,
            store,
            metrics=WORKLOAD_METRICS,
            graph_hash=graph_hash,
        )

    start = time.perf_counter()
    result = benchmark.pedantic(cold, rounds=1, iterations=1)
    cold_wall = time.perf_counter() - start
    record_result(f"workload_routing_cold_n{N}", cold_wall, graph)
    record_result(
        f"workload_routing_nodes_per_sec_cold_n{N}",
        graph.number_of_nodes / max(cold_wall, 1e-9),
        graph,
    )

    # the replay must be pure store reads: no sweep, no routing recomputation
    clear_measure_cache(graph)
    start = time.perf_counter()
    warm = memoized_measure(
        graph,
        store,
        metrics=WORKLOAD_METRICS,
        graph_hash=graph_hash,
    )
    warm_wall = time.perf_counter() - start
    record_result(f"workload_routing_warm_n{N}", warm_wall, graph)
    record_result(
        f"workload_routing_nodes_per_sec_warm_n{N}",
        graph.number_of_nodes / max(warm_wall, 1e-9),
        graph,
    )
    record_result(
        f"workload_routing_warm_speedup_n{N}", cold_wall / max(warm_wall, 1e-9), graph
    )
    print(
        f"routing load n={N}: cold {cold_wall:.3f}s "
        f"({graph.number_of_nodes / max(cold_wall, 1e-9):.0f} nodes/s), "
        f"warm {warm_wall:.4f}s "
        f"({graph.number_of_nodes / max(warm_wall, 1e-9):.0f} nodes/s)"
    )

    for name in WORKLOAD_METRICS:
        assert warm[name] == result[name], name
    assert result["max_edge_load"] > 0
    assert cold_wall / max(warm_wall, 1e-9) >= 5.0, (
        f"store-warm replay only {cold_wall / max(warm_wall, 1e-9):.1f}x faster "
        f"than the cold routing sweep at n={N} (need >= 5x)"
    )
