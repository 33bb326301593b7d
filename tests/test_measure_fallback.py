"""Measurement planner on the pure-Python oracle kernels.

The planner, the shared-intermediate layer and every non-spectrum metric
run on the python reference kernels of ``tests/oracle`` (``bfs_sweep``,
triangles, correlations) as well as on CSR.
"""

from __future__ import annotations

import oracle
import pytest
from oracle import oracle_kernels

from repro.graph.simple_graph import SimpleGraph
from repro.measure import MeasurementPlan, clear_measure_cache
from repro.metrics.distances import distance_std, mean_distance
from repro.metrics.summary import summarize


def ring_with_chords(n=24):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(n)]
    return SimpleGraph(n, edges=edges)


@pytest.fixture
def counting_sweep(monkeypatch):
    calls: list[bool] = []
    real = oracle.bfs_sweep

    def counting(graph, sources, want_betweenness, want_edge_load=False):
        calls.append(want_betweenness)
        return real(graph, sources, want_betweenness, want_edge_load)

    monkeypatch.setattr(oracle, "bfs_sweep", counting)
    return calls


def test_plan_runs_without_numpy(counting_sweep):
    graph = ring_with_chords()
    plan = MeasurementPlan(
        (
            "nodes",
            "mean_distance",
            "distance_std",
            "distance_distribution",
            "mean_clustering",
            "assortativity",
            "betweenness_by_degree",
        )
    )
    with oracle_kernels():
        result = plan.run(graph)
    assert counting_sweep == [True]  # one sweep fed distances AND betweenness
    assert result["nodes"] == 24
    assert result["mean_distance"] > 0
    assert sum(result["distance_distribution"].values()) == pytest.approx(1.0)
    assert result["betweenness_by_degree"]


def test_plan_matches_summarize_on_python_backend():
    graph = ring_with_chords()
    plan = MeasurementPlan.table2(compute_spectrum=False)
    with oracle_kernels():
        summary = summarize(graph, compute_spectrum=False)
        clear_measure_cache(graph)
        measured = plan.run(graph)
    assert measured.as_dict() == summary.as_dict()


def test_standalone_distance_metrics_share_one_sweep(counting_sweep):
    graph = ring_with_chords()
    with oracle_kernels():
        mean_distance(graph)
        distance_std(graph)
    assert counting_sweep == [False]
