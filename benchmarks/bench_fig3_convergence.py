"""Figure 3: visual convergence of 0K..3K-random graphs to the HOT topology.

The paper shows picturizations; this head-less reproduction reports the
structural fingerprints behind the pictures -- where the high-degree nodes
sit (hub neighbour degrees), how tree-like the graph is, and the dK distance
to the original -- which converge toward the original as d grows.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.distance import graph_dk_distance
from repro.experiment import ExperimentSpec, run_experiment
from repro.metrics.assortativity import assortativity
from repro.metrics.distances import mean_distance
from repro.topologies.hot import hot_like_statistics
from benchmarks._common import GENERATION_SEED, run_once


def _fingerprints(hot_graph):
    spec = ExperimentSpec(
        topologies=(hot_graph,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=GENERATION_SEED,
        metrics=(),
        keep_graphs=True,
    )
    family = {record.d: record.graph for record in run_experiment(spec).records}
    rows = []
    distances = {}
    for d, graph in sorted(family.items()):
        stats = hot_like_statistics(graph)
        distances[d] = graph_dk_distance(hot_graph, graph, 3)
        rows.append(
            [
                f"{d}K-random",
                graph.average_degree(),
                stats["degree_one_fraction"],
                stats["hub_neighbor_mean_degree"],
                assortativity(graph),
                mean_distance(graph),
                distances[d],
            ]
        )
    stats = hot_like_statistics(hot_graph)
    rows.append(
        [
            "original",
            hot_graph.average_degree(),
            stats["degree_one_fraction"],
            stats["hub_neighbor_mean_degree"],
            assortativity(hot_graph),
            mean_distance(hot_graph),
            0.0,
        ]
    )
    return rows, distances


def test_fig3_structural_convergence(benchmark, hot_graph):
    rows, distances = run_once(benchmark, _fingerprints, hot_graph)
    print()
    print(
        render_table(
            ["graph", "kbar", "deg-1 frac", "hub-neigh kbar", "r", "dbar", "D_3 to orig"],
            rows,
            title="Figure 3 (as numbers): structural convergence of dK-random graphs to HOT",
        )
    )
    # the 3K-distance to the original shrinks monotonically in d and hits 0 at d=3
    assert distances[0] >= distances[1] >= distances[2] >= distances[3]
    assert distances[3] == 0.0
