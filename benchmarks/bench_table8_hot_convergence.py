"""Table 8: scalar metrics for dK-random graphs vs the HOT-like topology.

Paper shape: the HOT router-level topology is the hard case -- 0K/1K-random
graphs are poor approximations, 2K is better, 3K is essentially exact; the
dK-series converges more slowly than for the AS-level (skitter) topology.
"""

from __future__ import annotations

import pytest

from repro.analysis.convergence import convergence_from_experiment
from repro.analysis.tables import scalar_metrics_table
from repro.experiment import ExperimentSpec, run_experiment
from benchmarks._common import GENERATION_SEED, chain_stats_table, run_once


def test_table8_hot_convergence(benchmark, hot_graph):
    spec = ExperimentSpec(
        topologies=(hot_graph,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=GENERATION_SEED,
        include_original=True,
        compute_spectrum=True,
    )
    result = run_once(benchmark, run_experiment, spec)
    study = convergence_from_experiment(result)
    print()
    print(
        scalar_metrics_table(
            study.as_columns(original_label="HOT-like"),
            title="Table 8: scalar metrics for dK-random vs HOT-like graphs",
        )
    )
    print(chain_stats_table(result, title="Table 8 chains"))
    original = study.original
    by_d = study.by_d
    # 1K-random graphs approximate HOT poorly: their assortativity error is
    # clearly worse than the 2K/3K ones (the paper's headline argument)
    error_r = {d: abs(by_d[d].assortativity - original.assortativity) for d in by_d}
    assert error_r[1] > error_r[2]
    assert error_r[3] <= 0.03
    # distance structure: 3K nearly exact, 1K clearly off
    error_d = {d: abs(by_d[d].mean_distance - original.mean_distance) for d in by_d}
    assert error_d[3] <= error_d[1]
    assert by_d[3].mean_distance == pytest.approx(original.mean_distance, rel=0.1)
    # clustering stays ~0 at every level (HOT is almost a tree)
    assert by_d[3].mean_clustering == pytest.approx(original.mean_clustering, abs=0.02)
