"""Figures 8 and 9: distance distribution and betweenness(k) for dK-random vs HOT.

Paper shape: 1K-random graphs are a poor approximation of the HOT topology
(high-degree nodes crowd the core, distances collapse); 2K pushes the hubs
back to the periphery; 3K matches the original almost exactly.
"""

from __future__ import annotations

from repro.analysis.figures import (
    betweenness_series,
    distance_distribution_series,
    series_l1_difference,
)
from repro.analysis.tables import series_table
from repro.experiment import ExperimentSpec, run_experiment
from benchmarks._common import GENERATION_SEED, run_once


def test_fig8_fig9_hot_series(benchmark, hot_graph):
    spec = ExperimentSpec(
        topologies=(hot_graph,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=GENERATION_SEED,
        metrics=(),
        keep_graphs=True,
    )
    result = run_once(benchmark, run_experiment, spec)
    graphs = {f"{record.d}K-random": record.graph for record in result.records}
    graphs["HOT-like"] = hot_graph

    distances = distance_distribution_series(graphs)
    betweenness = betweenness_series(graphs)

    print()
    print(series_table(distances, x_label="hops", title="Figure 8: HOT distance distribution", max_rows=20))
    print()
    print(series_table(betweenness, x_label="degree", title="Figure 9: HOT betweenness per degree", max_rows=20))

    reference = distances["HOT-like"]
    errors = {
        label: series_l1_difference(series, reference)
        for label, series in distances.items()
        if label != "HOT-like"
    }
    # the dK-series converges: 3K nearly exact, and better than 1K; 1K is a
    # poor approximation (the paper's motivation for going beyond degree
    # distributions for router-level topologies)
    assert errors["3K-random"] <= errors["1K-random"]
    assert errors["3K-random"] <= errors["0K-random"]
    assert errors["3K-random"] < 0.35
    assert errors["1K-random"] > 0.15
