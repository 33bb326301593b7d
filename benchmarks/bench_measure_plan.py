"""Measurement-planner benchmark: shared intermediates vs metric-at-a-time.

Three quantities, all recorded into BENCH_results.json:

* the full Table-2 summary, cold (empty intermediate cache) and warm
  (second run on the same graph: every intermediate served from the
  per-graph cache);
* the *combined* distance+betweenness request — d̄, σ_d, d(x), diameter,
  node betweenness and betweenness-per-degree — once through the planner
  (ONE unified BFS sweep) and once metric-at-a-time with the cache cleared
  between calls (the pre-planner behaviour: a separate traversal per
  metric family), plus the sweep-count reduction observed by a counting
  kernel stub;
* the acceptance bar: the planner must be >= 1.5x faster than the
  metric-at-a-time baseline on the combined request at n >= 5k.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._common import AS_SEED, record_result
from repro.graph.components import giant_component
from repro.measure import MeasurementPlan, clear_measure_cache, intermediates
from repro.metrics.betweenness import betweenness_by_degree, node_betweenness
from repro.metrics.distances import (
    diameter,
    distance_distribution,
    distance_std,
    mean_distance,
)
from repro.metrics.summary import summarize
from repro.topologies.as_level import synthetic_as_topology

N = 5000

#: Sampled BFS sources: exact betweenness at n=5k would dominate the bench.
SOURCES = 128

COMBINED_METRICS = (
    "mean_distance",
    "distance_std",
    "distance_distribution",
    "diameter",
    "node_betweenness",
    "betweenness_by_degree",
)

_STATE: dict[str, object] = {}


def _graph():
    if "graph" not in _STATE:
        _STATE["graph"] = synthetic_as_topology(N, rng=AS_SEED)
    return _STATE["graph"]


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Import the CSR kernel modules outside the timed regions."""
    summarize(synthetic_as_topology(64, rng=1), compute_spectrum=False)


@pytest.fixture
def sweep_counter(monkeypatch):
    calls = []
    real = intermediates.bfs_sweep

    def counting(graph, sources, want_betweenness, want_edge_load=False):
        calls.append(want_betweenness)
        return real(graph, sources, want_betweenness, want_edge_load)

    monkeypatch.setattr(intermediates, "bfs_sweep", counting)
    return calls


def test_table2_summary_cold_then_warm(benchmark):
    graph = _graph()
    clear_measure_cache(graph)

    def cold():
        clear_measure_cache(graph)
        return summarize(graph, compute_spectrum=False)

    start = time.perf_counter()
    result = benchmark.pedantic(cold, rounds=1, iterations=1)
    cold_wall = time.perf_counter() - start
    record_result(f"measure_plan_table2_cold_n{N}", cold_wall, graph)

    start = time.perf_counter()
    warm_result = summarize(graph, compute_spectrum=False)
    warm_wall = time.perf_counter() - start
    record_result(f"measure_plan_table2_warm_n{N}", warm_wall, graph)
    assert warm_result == result
    assert warm_wall < cold_wall
    print(f"table2 n={N}: cold {cold_wall:.3f}s, warm {warm_wall:.4f}s")


def _combined_metric_at_a_time(target):
    """The pre-planner behaviour: every metric family re-traverses."""
    results = {}
    for name, metric in (
        ("mean_distance", mean_distance),
        ("distance_std", distance_std),
        ("distance_distribution", distance_distribution),
        ("diameter", diameter),
        ("node_betweenness", node_betweenness),
        ("betweenness_by_degree", betweenness_by_degree),
    ):
        clear_measure_cache(target)
        results[name] = metric(target, sources=SOURCES, rng=1)
    return results


def test_combined_distance_betweenness_speedup(benchmark, sweep_counter):
    graph = _graph()
    target = giant_component(graph)
    plan = MeasurementPlan(COMBINED_METRICS, distance_sources=SOURCES)

    # baseline: metric-at-a-time, cache cleared between calls
    start = time.perf_counter()
    _combined_metric_at_a_time(target)
    legacy_wall = time.perf_counter() - start
    legacy_sweeps = len(sweep_counter)
    record_result(f"measure_plan_combined_legacy_n{N}", legacy_wall, graph)

    # planner: one run, one sweep
    sweep_counter.clear()
    clear_measure_cache(graph)
    clear_measure_cache(target)

    def planned():
        clear_measure_cache(graph)
        return plan.run(graph, rng=1)

    start = time.perf_counter()
    result = benchmark.pedantic(planned, rounds=1, iterations=1)
    plan_wall = time.perf_counter() - start
    plan_sweeps = len(sweep_counter)
    record_result(f"measure_plan_combined_plan_n{N}", plan_wall, graph)

    speedup = legacy_wall / max(plan_wall, 1e-9)
    record_result(f"measure_plan_combined_speedup_n{N}", speedup, graph)
    record_result(f"measure_plan_combined_sweeps_legacy_n{N}", float(legacy_sweeps), graph)
    record_result(f"measure_plan_combined_sweeps_plan_n{N}", float(plan_sweeps), graph)
    print(
        f"combined n={N}: metric-at-a-time {legacy_wall:.3f}s ({legacy_sweeps} sweeps), "
        f"planner {plan_wall:.3f}s ({plan_sweeps} sweep), {speedup:.1f}x"
    )

    assert result["mean_distance"] > 0
    assert plan_sweeps == 1, "the combined request must run exactly one sweep"
    assert legacy_sweeps == len(COMBINED_METRICS)
    assert speedup >= 1.5, (
        f"planner only {speedup:.2f}x faster than metric-at-a-time on the "
        f"combined distance+betweenness request at n={N} (need >= 1.5x)"
    )
