"""Table 7 + Figure 7: 2K-space explorations for the skitter-like topology.

Paper shape: driving C̄ or S2 to their extremes while preserving the JDD only
moves clustering / S2 within a modest band; all other scalar metrics stay
essentially unchanged, which is the evidence that d = 2 is already strongly
constraining for AS topologies.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_table, series_table
from repro.generators.exploration import explore_2k
from repro.generators.rewiring.preserving import dk_randomize
from repro.metrics.assortativity import assortativity, second_order_likelihood
from repro.metrics.clustering import clustering_by_degree, mean_clustering
from repro.metrics.distances import mean_distance
from benchmarks._common import GENERATION_SEED, run_once


def _exploration_study(graph, attempts):
    columns = {}
    graphs = {
        "Min C": explore_2k(graph, "clustering", "min", rng=GENERATION_SEED, max_attempts=attempts).graph,
        "Max C": explore_2k(graph, "clustering", "max", rng=GENERATION_SEED, max_attempts=attempts).graph,
        "Min S2": explore_2k(graph, "s2", "min", rng=GENERATION_SEED, max_attempts=attempts).graph,
        "Max S2": explore_2k(graph, "s2", "max", rng=GENERATION_SEED, max_attempts=attempts).graph,
        "2K-rand.": dk_randomize(graph, 2, rng=GENERATION_SEED, multiplier=5),
        "skitter-like": graph,
    }
    for label, candidate in graphs.items():
        columns[label] = {
            "kbar": candidate.average_degree(),
            "r": assortativity(candidate),
            "Cbar": mean_clustering(candidate),
            "dbar": mean_distance(candidate, sources=200, rng=GENERATION_SEED),
            "S2": second_order_likelihood(candidate),
        }
    clustering_profiles = {
        label: clustering_by_degree(graphs[label]) for label in ("Max C", "2K-rand.", "Min C", "skitter-like")
    }
    return columns, clustering_profiles


def test_table7_and_fig7_2k_space_exploration(benchmark, skitter_graph):
    attempts = 30 * skitter_graph.number_of_edges
    columns, clustering_profiles = run_once(benchmark, _exploration_study, skitter_graph, attempts)

    metrics = ["kbar", "r", "Cbar", "dbar", "S2"]
    rows = [[metric, *(columns[label][metric] for label in columns)] for metric in metrics]
    print()
    print(
        render_table(
            ["Metric", *columns.keys()],
            rows,
            title="Table 7: scalar metrics for 2K-space explorations (skitter-like)",
        )
    )
    print()
    print(
        series_table(
            clustering_profiles,
            x_label="degree",
            title="Figure 7: clustering C(k) under 2K exploration",
            max_rows=18,
        )
    )

    reference = columns["skitter-like"]
    for label in ("Min C", "Max C", "Min S2", "Max S2", "2K-rand."):
        # 2K-preserving exploration cannot change k̄ or r
        assert columns[label]["kbar"] == pytest.approx(reference["kbar"], rel=1e-9)
        assert columns[label]["r"] == pytest.approx(reference["r"], abs=1e-9)
        # the average distance moves, but stays in the same regime: the
        # paper's Table 7 itself records a 2.3x swing on skitter (3.12 for
        # the original vs 7.21 under Max C), so bound the ratio, not a
        # tight relative error
        ratio = columns[label]["dbar"] / reference["dbar"]
        assert 1 / 2.5 <= ratio <= 2.5, (label, columns[label]["dbar"], reference["dbar"])
    # the exploration produces a genuine clustering band around the 2K-random value
    assert columns["Min C"]["Cbar"] <= columns["2K-rand."]["Cbar"] <= columns["Max C"]["Cbar"]
    assert columns["Min S2"]["S2"] <= columns["Max S2"]["S2"]
