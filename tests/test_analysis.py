"""Tests for the analysis harness (comparison, convergence, figures, tables)."""

import pytest

from repro.analysis.comparison import comparison_from_experiment
from repro.analysis.convergence import convergence_from_experiment
from repro.analysis.figures import (
    betweenness_series,
    clustering_series,
    distance_distribution_series,
    series_l1_difference,
)
from repro.analysis.tables import format_value, render_table, scalar_metrics_table, series_table
from repro.core.extraction import degree_distribution
from repro.exceptions import ExperimentError
from repro.experiment import ExperimentSpec, run_experiment
from repro.metrics.summary import summarize


def _rewiring_grid(graph, d_levels, **options):
    spec = ExperimentSpec(
        topologies=(graph,),
        methods=("rewiring",),
        d_levels=d_levels,
        include_original=True,
        **options,
    )
    return run_experiment(spec)


class TestComparison:
    def test_comparison_labels_each_level(self, hot_small):
        result = _rewiring_grid(hot_small, (1, 2), replicates=2, seed=1)
        comparison = comparison_from_experiment(result)
        assert set(comparison.columns) == {"rewiring (d=1)", "rewiring (d=2)"}
        columns = comparison.as_columns()
        assert "Original" in columns
        # rewirings preserve the average degree exactly (GCC effects aside)
        assert columns["rewiring (d=2)"].average_degree == pytest.approx(
            columns["Original"].average_degree, rel=0.05
        )

    def test_original_column_is_seeded(self, as_small):
        # the original is measured on its own seeded stream, so a sampled
        # distance estimate reads the same in every run of the grid
        originals = [
            comparison_from_experiment(
                _rewiring_grid(as_small, (1,), seed=2, distance_sources=20)
            ).original
            for _ in range(2)
        ]
        assert originals[0] == originals[1]

    def test_comparison_refuses_a_scenario_grid(self, hot_small):
        # one column per method would average the intact and the degraded
        # graphs, against an intact original
        result = _rewiring_grid(
            hot_small, (1,), seed=1, metrics=("edges",), scenarios=(None, "hub_degree:0.05")
        )
        with pytest.raises(ExperimentError, match="at most one scenario"):
            comparison_from_experiment(result)
        with pytest.raises(ExperimentError, match="at most one scenario"):
            convergence_from_experiment(result)


class TestConvergence:
    def test_convergence_from_experiment(self, hot_small):
        study = convergence_from_experiment(_rewiring_grid(hot_small, (0, 1, 2), seed=3))
        assert set(study.by_d) == {0, 1, 2}
        columns = study.as_columns()
        assert list(columns) == ["0K", "1K", "2K", "Original"]
        errors = study.convergence_error("assortativity")
        # 2K-random graphs reproduce r exactly; 0K-random graphs do not
        assert errors[2] <= errors[0]
        assert study.sample_graphs == {}

    def test_convergence_sample_graphs(self, hot_small):
        result = _rewiring_grid(hot_small, (0, 2), replicates=2, seed=5, keep_graphs=True)
        study = convergence_from_experiment(result)
        assert set(study.sample_graphs) == {0, 2}
        assert study.sample_graphs[2] is result.records_for(d=2)[0].graph
        assert study.sample_graphs[2].number_of_edges == hot_small.number_of_edges

    def test_convergence_needs_one_method(self, hot_small):
        spec = ExperimentSpec(
            topologies=(hot_small,),
            methods=("rewiring", "pseudograph"),
            d_levels=(1,),
            include_original=True,
        )
        with pytest.raises(ExperimentError, match="one-method"):
            convergence_from_experiment(run_experiment(spec))


class TestFigures:
    def test_distance_distribution_series(self, hot_small):
        series = distance_distribution_series({"HOT": hot_small})
        assert sum(series["HOT"].values()) == pytest.approx(1.0)

    def test_betweenness_and_clustering_series(self, as_small):
        graphs = {"AS": as_small}
        betweenness = betweenness_series(graphs, sources=60, rng=1)
        clustering = clustering_series(graphs)
        assert set(betweenness["AS"]) <= set(degree_distribution(as_small).counts)
        assert all(0 <= value <= 1 for value in clustering["AS"].values())

    def test_series_l1_difference(self):
        a = {1: 0.5, 2: 0.5}
        b = {1: 0.25, 3: 0.75}
        assert series_l1_difference(a, a) == 0.0
        assert series_l1_difference(a, b) == pytest.approx(0.25 + 0.5 + 0.75)


class TestTables:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(0.123456) == "0.123"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value(0.0) == "0"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_scalar_metrics_table(self, hot_small):
        summary = summarize(hot_small)
        text = scalar_metrics_table({"HOT": summary}, title="Table")
        assert "kbar" in text and "lambda_1" in text and "HOT" in text
        # without the spectrum the eigenvalues were never computed: no λ rows
        # (not rows of zeros)
        summary = summarize(hot_small, compute_spectrum=False)
        text = scalar_metrics_table({"HOT": summary}, title="Table")
        assert "kbar" in text and "lambda" not in text

    def test_series_table(self):
        text = series_table({"a": {1: 0.5, 2: 0.25}, "b": {2: 1.0}}, x_label="hops")
        assert "hops" in text
        assert "0.5" in text
