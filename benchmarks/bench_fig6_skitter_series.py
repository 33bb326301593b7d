"""Figure 6: distance distribution, betweenness(k) and C(k) for dK-random vs skitter.

Paper shape: the series converge toward the original as d grows; clustering is
the last metric to fall in line (only at 3K).  The ledger gets two rows: the
experiment grid that generates the four dK-random graphs, and the three
series measured afterwards over those graphs and the original.
"""

from __future__ import annotations

import time

from repro.analysis.figures import (
    betweenness_series,
    clustering_series,
    distance_distribution_series,
    series_l1_difference,
)
from repro.analysis.tables import series_table
from repro.experiment import ExperimentSpec, run_experiment
from benchmarks._common import GENERATION_SEED, record_result, run_once

BETWEENNESS_SOURCES = 200


def test_fig6_skitter_series(benchmark, skitter_graph):
    spec = ExperimentSpec(
        topologies=(skitter_graph,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=GENERATION_SEED,
        metrics=(),
        keep_graphs=True,
    )
    result = run_once(benchmark, run_experiment, spec)
    graphs = {f"{record.d}K-random": record.graph for record in result.records}
    graphs["skitter-like"] = skitter_graph

    start = time.perf_counter()
    distances = distance_distribution_series(graphs)
    betweenness = betweenness_series(graphs, sources=BETWEENNESS_SOURCES, rng=GENERATION_SEED)
    clustering = clustering_series(graphs)
    record_result(
        "fig6_skitter_series_measure",
        time.perf_counter() - start,
        skitter_graph,
        graphs=len(graphs),
        betweenness_sources=BETWEENNESS_SOURCES,
    )

    print()
    print(series_table(distances, x_label="hops", title="Figure 6a: distance distribution", max_rows=15))
    print()
    print(series_table(betweenness, x_label="degree", title="Figure 6b: betweenness per degree", max_rows=15))
    print()
    print(series_table(clustering, x_label="degree", title="Figure 6c: clustering C(k)", max_rows=15))

    reference_distance = distances["skitter-like"]
    distance_errors = {
        label: series_l1_difference(series, reference_distance)
        for label, series in distances.items()
        if label != "skitter-like"
    }
    # convergence: 2K/3K distance PDFs are closer to the original than 0K's
    assert distance_errors["3K-random"] <= distance_errors["0K-random"]
    assert distance_errors["2K-random"] <= distance_errors["0K-random"]

    reference_clustering = clustering["skitter-like"]
    clustering_errors = {
        label: series_l1_difference(series, reference_clustering)
        for label, series in clustering.items()
        if label != "skitter-like"
    }
    # clustering per degree is only reproduced once wedges/triangles are
    # constrained: the 3K error is the smallest of all levels
    assert clustering_errors["3K-random"] <= min(
        clustering_errors["0K-random"], clustering_errors["1K-random"], clustering_errors["2K-random"]
    ) + 1e-9
