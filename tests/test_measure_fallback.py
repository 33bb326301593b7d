"""Measurement planner on the pure-Python backend.

The planner, the shared-intermediate layer and every non-spectrum metric
run on the python reference kernels (``bfs_sweep``, triangles,
correlations) as well as on CSR.
"""

from __future__ import annotations

import pytest

from repro.graph.simple_graph import SimpleGraph
from repro.kernels import backend as kernel_backend
from repro.measure import MeasurementPlan, clear_measure_cache
from repro.metrics.distances import distance_std, mean_distance
from repro.metrics.summary import summarize


def ring_with_chords(n=24):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(n)]
    return SimpleGraph(n, edges=edges)


@pytest.fixture
def counting_sweep(monkeypatch):
    calls: list[bool] = []
    real = kernel_backend.get_kernel("bfs_sweep", "python")

    def counting(graph, sources, want_betweenness, want_edge_load=False):
        calls.append(want_betweenness)
        return real(graph, sources, want_betweenness, want_edge_load)

    monkeypatch.setitem(kernel_backend._KERNELS, ("bfs_sweep", "python"), counting)
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
    result = plan.run(graph, backend="python")
    assert counting_sweep == [True]  # one sweep fed distances AND betweenness
    assert result["nodes"] == 24
    assert result["mean_distance"] > 0
    assert sum(result["distance_distribution"].values()) == pytest.approx(1.0)
    assert result["betweenness_by_degree"]


def test_plan_matches_summarize_on_python_backend():
    graph = ring_with_chords()
    summary = summarize(graph, compute_spectrum=False, backend="python")
    clear_measure_cache(graph)
    plan = MeasurementPlan.table2(compute_spectrum=False)
    assert plan.run(graph, backend="python").scalar_metrics().as_dict() == summary.as_dict()


def test_standalone_distance_metrics_share_one_sweep(counting_sweep):
    graph = ring_with_chords()
    mean_distance(graph, backend="python")
    distance_std(graph, backend="python")
    assert counting_sweep == [False]
