"""End-to-end integration tests: the paper's methodology on small topologies."""

import pytest

from repro.analysis.convergence import convergence_from_experiment
from repro.core.randomness import dk_random_graph
from repro.core.series import DKSeries
from repro.experiment import ExperimentSpec
from repro.graph.io import read_edge_list, write_edge_list
from repro.metrics.summary import summarize
from repro.topologies.registry import build_topology


def test_full_pipeline_analyze_generate_compare(tmp_path, hot_small):
    """Analyze a topology, persist it, regenerate a 2K-random counterpart and
    verify that the paper's headline claim holds: the 2K-random graph matches
    the original on degree-correlation metrics."""
    path = tmp_path / "original.edges"
    write_edge_list(hot_small, path)
    original = read_edge_list(path)
    assert original == hot_small

    series = DKSeries.from_graph(original)
    generated = dk_random_graph(original, 2, rng=1)
    assert series.matches_graph(generated, 2)

    original_summary = summarize(original, compute_spectrum=False)
    generated_summary = summarize(generated, compute_spectrum=False)
    assert generated_summary.assortativity == pytest.approx(
        original_summary.assortativity, abs=0.05
    )
    assert generated_summary.average_degree == pytest.approx(
        original_summary.average_degree, rel=0.05
    )


def test_convergence_shape_on_hot_like_topology(hot_small):
    """The HOT-like headline result: higher d reproduces the original more
    faithfully (Table 8's qualitative shape)."""
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(0, 1, 2, 3),
        seed=7,
        include_original=True,
    )
    study = convergence_from_experiment(spec.run())
    errors_r = study.convergence_error("assortativity")
    errors_d = study.convergence_error("mean_distance")
    # 0K-random graphs are far from the original; 2K/3K-random graphs match r
    assert errors_r[0] > errors_r[2]
    assert errors_r[3] == pytest.approx(0.0, abs=0.02)
    # distance structure improves from 1K to 3K
    assert errors_d[3] <= errors_d[1] + 0.3


def test_registered_topologies_support_the_pipeline():
    graph = build_topology("hot_small")
    for d in (0, 1, 2):
        generated = dk_random_graph(graph, d, rng=d)
        assert generated.number_of_edges == graph.number_of_edges
