"""Tests for the analysis harness (comparison, convergence, figures, tables)."""

import pytest

from repro.analysis.comparison import (
    compare_2k_algorithms,
    compare_generators,
    standard_2k_generators,
    standard_3k_generators,
)
from repro.analysis.convergence import dk_convergence_study, dk_random_family
from repro.analysis.figures import (
    betweenness_series,
    clustering_series,
    degree_ccdf_series,
    distance_distribution_series,
    series_l1_difference,
)
from repro.analysis.tables import format_value, render_table, scalar_metrics_table, series_table
from repro.core.randomness import dk_random_graph
from repro.metrics.summary import summarize


class TestComparison:
    def test_compare_generators(self, hot_small):
        generators = {
            "1K-rewiring": lambda rng=None: dk_random_graph(hot_small, 1, rng=rng),
            "2K-rewiring": lambda rng=None: dk_random_graph(hot_small, 2, rng=rng),
        }
        comparison = compare_generators(
            hot_small, generators, instances=2, rng=1, compute_spectrum=False
        )
        assert set(comparison.columns) == {"1K-rewiring", "2K-rewiring"}
        columns = comparison.as_columns()
        assert "Original" in columns
        # rewirings preserve the average degree exactly (GCC effects aside)
        assert columns["2K-rewiring"].average_degree == pytest.approx(
            columns["Original"].average_degree, rel=0.05
        )

    def test_standard_generator_sets(self, hot_small):
        assert set(standard_2k_generators(hot_small)) == {
            "Stochastic",
            "Pseudograph",
            "Matching",
            "2K-randomizing",
            "2K-targeting",
        }
        assert set(standard_3k_generators(hot_small)) == {"3K-randomizing", "3K-targeting"}

    def test_compare_2k_algorithms_subset(self, hot_small):
        comparison = compare_2k_algorithms(
            hot_small,
            instances=1,
            rng=2,
            compute_spectrum=False,
            labels=("Pseudograph", "2K-randomizing"),
        )
        assert set(comparison.columns) == {"Pseudograph", "2K-randomizing"}


class TestConvergence:
    def test_dk_convergence_study(self, hot_small):
        study = dk_convergence_study(
            hot_small, ds=(0, 1, 2), instances=1, rng=3, compute_spectrum=False
        )
        assert set(study.by_d) == {0, 1, 2}
        columns = study.as_columns()
        assert list(columns) == ["0K", "1K", "2K", "Original"]
        errors = study.convergence_error("assortativity")
        # 2K-random graphs reproduce r exactly; 0K-random graphs do not
        assert errors[2] <= errors[0]

    def test_convergence_monotonicity_helper(self, hot_small):
        study = dk_convergence_study(
            hot_small, ds=(1, 2), instances=1, rng=4, compute_spectrum=False
        )
        assert isinstance(study.is_monotonically_converging("average_degree", slack=1.0), bool)

    def test_dk_random_family(self, hot_small):
        family = dk_random_family(hot_small, ds=(0, 2), rng=5)
        assert set(family) == {0, 2}
        assert family[2].number_of_edges == hot_small.number_of_edges


class TestFigures:
    def test_distance_distribution_series(self, hot_small):
        series = distance_distribution_series({"HOT": hot_small})
        assert sum(series["HOT"].values()) == pytest.approx(1.0)

    def test_betweenness_and_clustering_series(self, as_small):
        graphs = {"AS": as_small}
        betweenness = betweenness_series(graphs, sources=60, rng=1)
        clustering = clustering_series(graphs)
        ccdf = degree_ccdf_series(graphs)
        assert set(betweenness["AS"]) <= set(as_small.degree_histogram())
        assert all(0 <= value <= 1 for value in clustering["AS"].values())
        assert ccdf["AS"][min(ccdf["AS"])] == pytest.approx(1.0)

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
