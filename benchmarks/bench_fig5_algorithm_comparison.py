"""Figure 5: per-algorithm comparison of the 2K and 3K constructions.

* 5a -- clustering C(k) in the skitter-like graph for the five 2K algorithms,
* 5b -- distance distribution in the HOT-like graph for the five 2K algorithms,
* 5c -- distance distribution in the HOT-like graph for the two 3K algorithms.

Paper shape: all algorithms produce consistent curves except the stochastic
construction, which deviates visibly.

The per-method graph families are produced by the Experiment pipeline
(``keep_graphs=True``): one spec declares the whole methods × d grid, and
unsupported (method, d) combinations are skipped automatically.  Every
family is generated against an artifact store and regenerated warm — the
second pass streams the identical graphs back from disk faster than any
construction algorithm could rebuild them.
"""

from __future__ import annotations

import time

from repro.analysis.figures import (
    clustering_series,
    distance_distribution_series,
    series_l1_difference,
)
from repro.analysis.tables import series_table
from repro.experiment import ExperimentSpec, run_experiment
from repro.store import ArtifactStore
from benchmarks._common import GENERATION_SEED, record_result, run_once

ALL_METHODS = ("stochastic", "pseudograph", "matching", "rewiring", "targeting")


def _build_families(graph, d_levels, store=None):
    """Generate one graph per (method, d) cell; returns {d: {method: graph}}."""
    spec = ExperimentSpec(
        topologies=(graph,),
        methods=ALL_METHODS,
        d_levels=d_levels,
        replicates=1,
        seed=GENERATION_SEED,
        metrics=(),
        keep_graphs=True,
    )
    result = run_experiment(spec, store=store)
    families: dict[int, dict[str, object]] = {d: {} for d in d_levels}
    for record in result.records:
        families[record.d][record.method] = record.graph
    return families


def _assert_warm_families_match(graph, d_levels, store, cold_families, cold_time):
    """Rebuild the families warm and check the store replayed them exactly."""
    warm_start = time.perf_counter()
    warm_families = _build_families(graph, d_levels, store=store)
    warm = time.perf_counter() - warm_start
    record_result(f"fig5_warm_store_d{'_'.join(map(str, d_levels))}", warm, graph)
    for d, family in cold_families.items():
        for method, cold_graph in family.items():
            if method == "original":
                continue
            assert warm_families[d][method] == cold_graph, (d, method)
    # generous slack: the real regression signal is the graph equality above
    assert warm * 2 <= cold_time + 1.0, (
        f"warm store run ({warm:.3f}s) not clearly faster than cold ({cold_time:.3f}s)"
    )


def test_fig5a_clustering_per_2k_algorithm(benchmark, skitter_graph, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold_start = time.perf_counter()
    family = run_once(benchmark, _build_families, skitter_graph, (2,), store=store)[2]
    cold = time.perf_counter() - cold_start
    _assert_warm_families_match(skitter_graph, (2,), store, {2: family}, cold)
    family["original"] = skitter_graph
    series = clustering_series(family)
    print()
    print(series_table(series, x_label="degree", title="Figure 5a: C(k) per 2K algorithm", max_rows=15))
    reference = series["original"]
    differences = {
        label: series_l1_difference(series[label], reference) for label in family if label != "original"
    }
    # the rewiring-based constructions are no worse than the stochastic one
    assert differences["rewiring"] <= differences["stochastic"] * 1.5 + 1.0


def test_fig5b_5c_distance_distributions_on_hot(benchmark, hot_graph, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold_start = time.perf_counter()
    families = run_once(benchmark, _build_families, hot_graph, (2, 3), store=store)
    cold = time.perf_counter() - cold_start
    _assert_warm_families_match(hot_graph, (2, 3), store, families, cold)
    two_k, three_k = families[2], families[3]
    two_k["original"] = hot_graph
    three_k["original"] = hot_graph
    series_2k = distance_distribution_series(two_k)
    series_3k = distance_distribution_series(three_k)
    print()
    print(series_table(series_2k, x_label="hops", title="Figure 5b: HOT distance PDF per 2K algorithm", max_rows=20))
    print()
    print(series_table(series_3k, x_label="hops", title="Figure 5c: HOT distance PDF per 3K algorithm", max_rows=20))

    reference = series_2k["original"]
    errors = {
        label: series_l1_difference(series_2k[label], reference)
        for label in two_k
        if label != "original"
    }
    # consistency of the non-stochastic algorithms: their distance PDFs stay
    # closer to the original than the stochastic construction's
    assert min(errors["pseudograph"], errors["matching"], errors["rewiring"]) <= errors["stochastic"] + 0.05
    # the 3K-randomizing construction is essentially exact on distances
    assert series_l1_difference(series_3k["rewiring"], series_3k["original"]) < 0.35
