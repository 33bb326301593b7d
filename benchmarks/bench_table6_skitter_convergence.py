"""Table 6: scalar metrics for dK-random graphs vs the skitter-like AS topology.

Paper shape: 1K is already a reasonable description of AS topologies, 2K
matches everything except clustering, 3K matches clustering as well.
"""

from __future__ import annotations

import pytest

from repro.analysis.convergence import convergence_from_experiment
from repro.analysis.tables import scalar_metrics_table
from repro.experiment import ExperimentSpec, run_experiment
from benchmarks._common import GENERATION_SEED, chain_stats_table, run_once


def test_table6_skitter_convergence(benchmark, skitter_graph):
    spec = ExperimentSpec(
        topologies=(skitter_graph,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=GENERATION_SEED,
        include_original=True,
        distance_sources=300,
        compute_spectrum=True,
    )
    result = run_once(benchmark, run_experiment, spec)
    study = convergence_from_experiment(result)
    print()
    print(
        scalar_metrics_table(
            study.as_columns(original_label="skitter-like"),
            title="Table 6: scalar metrics for dK-random vs skitter-like graphs",
        )
    )
    print(chain_stats_table(result, title="Table 6 chains"))
    original = study.original
    by_d = study.by_d
    # 0K destroys the degree correlations entirely
    assert abs(by_d[0].assortativity - original.assortativity) > abs(
        by_d[2].assortativity - original.assortativity
    )
    # 2K reproduces r exactly (up to GCC extraction noise)
    assert by_d[2].assortativity == pytest.approx(original.assortativity, abs=0.05)
    assert by_d[3].assortativity == pytest.approx(original.assortativity, abs=0.05)
    # clustering is only captured at 3K: the 3K error is (much) smaller
    clustering_error_2k = abs(by_d[2].mean_clustering - original.mean_clustering)
    clustering_error_3k = abs(by_d[3].mean_clustering - original.mean_clustering)
    assert clustering_error_3k <= clustering_error_2k
    assert by_d[3].mean_clustering == pytest.approx(original.mean_clustering, abs=0.05)
    # average distance converges as d grows
    assert abs(by_d[3].mean_distance - original.mean_distance) <= abs(
        by_d[0].mean_distance - original.mean_distance
    ) + 0.1
