"""Table 4: scalar metrics of 3K-random HOT graphs (randomizing vs targeting).

Paper shape: both 3K constructions reproduce the original HOT metrics almost
exactly (3K essentially pins the topology down).
"""

from __future__ import annotations

import pytest

from repro.analysis.comparison import comparison_from_experiment
from repro.analysis.tables import scalar_metrics_table
from repro.experiment import ExperimentSpec, run_experiment
from benchmarks._common import GENERATION_SEED, chain_stats_table, run_once


def test_table4_3k_algorithms_on_hot(benchmark, hot_graph):
    spec = ExperimentSpec(
        topologies=(hot_graph,),
        methods=("rewiring", "targeting"),
        d_levels=(3,),
        seed=GENERATION_SEED,
        include_original=True,
    )
    result = run_once(benchmark, run_experiment, spec)
    comparison = comparison_from_experiment(result)
    print()
    print(
        scalar_metrics_table(
            comparison.as_columns(original_label="Orig. HOT"),
            title="Table 4: scalar metrics for 3K-random HOT graphs",
        )
    )
    print(chain_stats_table(result, title="Table 4 chains"))
    original = comparison.original
    randomizing = comparison.columns["rewiring"]
    # 3K-randomizing rewiring preserves the 3K-distribution exactly, so k̄, r
    # and clustering coincide with the original
    assert randomizing.average_degree == pytest.approx(original.average_degree, rel=0.02)
    assert randomizing.assortativity == pytest.approx(original.assortativity, abs=0.02)
    assert randomizing.mean_clustering == pytest.approx(original.mean_clustering, abs=0.02)
    # the distance structure is also essentially pinned down
    assert randomizing.mean_distance == pytest.approx(original.mean_distance, rel=0.15)
    # targeting starts from a 2K seed and moves toward the target 3K counts:
    # it stays in the right neighbourhood on the scalar metrics
    targeting = comparison.columns["targeting"]
    assert targeting.average_degree == pytest.approx(original.average_degree, rel=0.1)
    assert targeting.assortativity == pytest.approx(original.assortativity, abs=0.1)
