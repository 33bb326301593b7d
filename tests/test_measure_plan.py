"""Measurement-planner suite: plan-vs-legacy equivalence, single-sweep
guarantee, metric-subset selection through the stack, per-metric memoization.
"""

from __future__ import annotations

import json

import numpy as np
import oracle
import pytest
from oracle import KERNEL_SETS, kernel_set, oracle_kernels

from repro.analysis.tables import scalar_metrics_table
from repro.cli import main
from repro.experiment import ExperimentSpec, run_experiment
from repro.graph.components import giant_component
from repro.graph.simple_graph import SimpleGraph
from repro.measure import (
    Measurement,
    MeasurementPlan,
    average_measurements,
    available_metrics,
    clear_measure_cache,
    intermediates,
)
from repro.measure.plan import TABLE2_CORE_METRICS, battery_plan
from repro.metrics.assortativity import (
    assortativity,
    likelihood,
    second_order_likelihood,
)
from repro.metrics.betweenness import betweenness_by_degree, node_betweenness
from repro.metrics.clustering import mean_clustering
from repro.metrics.distances import (
    diameter,
    distance_distribution,
    distance_std,
    mean_distance,
)
from repro.metrics.summary import summarize
from repro.store import ArtifactStore
from repro.store.memo import memoized_measure


def star(n):
    return SimpleGraph(n, edges=[(0, i) for i in range(1, n)])


def random_dk_graph(seed=11, n=80, m=200):
    rng = np.random.default_rng(seed)
    graph = SimpleGraph(n)
    while graph.number_of_edges < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def graph_corpus():
    return [
        SimpleGraph(0),
        SimpleGraph(4),  # isolated nodes only
        star(9),
        SimpleGraph(9, edges=[(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 7)]),
        random_dk_graph(7),
        random_dk_graph(23, n=50, m=90),
    ]


@pytest.fixture
def counting_sweep(monkeypatch):
    """Count ``bfs_sweep`` kernel invocations of the csr kernels and the oracle."""
    calls: list[tuple[str, bool]] = []
    for module, name in ((intermediates, "csr"), (oracle, "python")):
        real = module.bfs_sweep

        def counting(
            graph, sources, want_betweenness, want_edge_load=False,
            _real=real, _name=name,
        ):
            calls.append((_name, want_betweenness))
            return _real(graph, sources, want_betweenness, want_edge_load)

        monkeypatch.setattr(module, "bfs_sweep", counting)
    return calls


# --------------------------------------------------------------------------- #
# Plan-vs-legacy equivalence: bit-identical on the csr kernels and the oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "graph", graph_corpus(), ids=lambda g: f"n{g.number_of_nodes}m{g.number_of_edges}"
)
@pytest.mark.parametrize("backend", KERNEL_SETS)
def test_plan_bit_identical_to_metric_at_a_time(graph, backend):
    # the pre-refactor summarize() computed each metric in isolation on the
    # giant component; the planner must reproduce that bit for bit
    with kernel_set(backend):
        summary = summarize(graph, compute_spectrum=False)
        clear_measure_cache(graph)  # force the planner to recompute everything
        gcc = giant_component(graph)
        legacy = {
            "nodes": gcc.number_of_nodes,
            "edges": gcc.number_of_edges,
            "average_degree": gcc.average_degree(),
            "assortativity": assortativity(gcc),
            "mean_clustering": mean_clustering(gcc),
            "mean_distance": mean_distance(gcc),
            "distance_std": distance_std(gcc),
            "likelihood": likelihood(gcc),
            "second_order_likelihood": second_order_likelihood(gcc),
        }
    assert summary.metrics == tuple(legacy)
    assert summary.as_dict() == legacy


@pytest.mark.parametrize(
    "graph", graph_corpus(), ids=lambda g: f"n{g.number_of_nodes}m{g.number_of_edges}"
)
def test_plan_backends_identical_for_combined_requests(graph):
    plan = MeasurementPlan(
        (
            "mean_distance",
            "distance_std",
            "distance_distribution",
            "diameter",
            "transitivity",
            "betweenness_by_degree",
        )
    )
    with oracle_kernels():
        py = plan.run(graph)
    csr = plan.run(graph)
    for name in ("mean_distance", "distance_std", "diameter", "transitivity"):
        assert py[name] == csr[name], name
    assert py["distance_distribution"] == csr["distance_distribution"]
    assert py["betweenness_by_degree"] == pytest.approx(csr["betweenness_by_degree"])


def test_plan_matches_standalone_distribution_functions():
    graph = random_dk_graph(3)
    gcc = giant_component(graph)
    plan = MeasurementPlan(
        ("distance_distribution", "diameter", "betweenness_by_degree", "node_betweenness")
    )
    result = plan.run(graph)
    assert result["distance_distribution"] == distance_distribution(gcc)
    assert result["diameter"] == diameter(gcc)
    assert result["node_betweenness"] == node_betweenness(gcc)
    assert result["betweenness_by_degree"] == betweenness_by_degree(gcc)
    assert result["betweenness_by_degree"] != {}


def test_plan_validates_metric_names():
    with pytest.raises(ValueError, match="unknown metric"):
        MeasurementPlan(("mean_distance", "no_such_metric"))
    # an unhashable name is a bad name, not a TypeError
    with pytest.raises(ValueError, match="must be strings"):
        MeasurementPlan(("mean_distance", ["x"]))


def test_table2_plan_and_battery_detection():
    full = MeasurementPlan.table2()
    assert full.metrics == TABLE2_CORE_METRICS + ("lambda_1", "lambda_n_1")
    assert MeasurementPlan.table2(compute_spectrum=False).metrics == TABLE2_CORE_METRICS
    # a study's plan: the battery when no metric set is named, else exactly it
    assert battery_plan(None) == full
    assert battery_plan(None, compute_spectrum=False).metrics == TABLE2_CORE_METRICS
    assert battery_plan(("diameter", "nodes")).metrics == ("diameter", "nodes")


# --------------------------------------------------------------------------- #
# The single-sweep guarantee (counting stub)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", KERNEL_SETS)
@pytest.mark.parametrize(
    "metrics, expect_betweenness",
    [
        (("mean_distance", "distance_std"), False),
        (("mean_distance", "distance_std", "distance_distribution", "diameter"), False),
        (("betweenness_by_degree",), True),
        (
            (
                "mean_distance",
                "distance_std",
                "distance_distribution",
                "diameter",
                "node_betweenness",
                "betweenness_by_degree",
            ),
            True,
        ),
    ],
)
def test_sweep_runs_exactly_once_per_plan(counting_sweep, backend, metrics, expect_betweenness):
    graph = random_dk_graph(5)
    with kernel_set(backend):
        MeasurementPlan(metrics).run(graph)
    assert counting_sweep == [(backend, expect_betweenness)]


def test_standalone_mean_and_std_share_one_sweep(counting_sweep):
    graph = random_dk_graph(9)
    a = mean_distance(graph)
    b = distance_std(graph)
    assert counting_sweep == [("csr", False)]
    # ... and the whole Table-2 summary on the same graph adds no sweep
    summary = summarize(graph, compute_spectrum=False, use_giant_component=False)
    assert counting_sweep == [("csr", False)]
    assert summary.mean_distance == a and summary.distance_std == b


def test_betweenness_upgrades_cached_sweep_once(counting_sweep):
    graph = random_dk_graph(13)
    mean_distance(graph)
    node_betweenness(graph)
    # the histogram-only sweep is upgraded by exactly one combined sweep ...
    assert counting_sweep == [("csr", False), ("csr", True)]
    # ... after which both kinds of request are cache hits
    distance_std(graph)
    node_betweenness(graph)
    assert len(counting_sweep) == 2


def test_mutation_invalidates_cached_intermediates(counting_sweep):
    graph = random_dk_graph(17)
    before = mean_distance(graph)
    u, v = next(iter(graph.edges()))
    graph.remove_edge(u, v)
    after = mean_distance(graph)
    assert len(counting_sweep) == 2
    assert before != after


def test_sampled_sweeps_are_not_cached_across_calls(counting_sweep):
    graph = random_dk_graph(21)
    mean_distance(graph, sources=10, rng=1)
    mean_distance(graph, sources=10, rng=2)
    assert len(counting_sweep) == 2
    # but one *plan run* draws the sample once for all sampled metrics
    counting_sweep.clear()
    plan = MeasurementPlan(("mean_distance", "distance_std"), distance_sources=10)
    plan.run(graph, rng=3)
    assert len(counting_sweep) == 1


# --------------------------------------------------------------------------- #
# Measurement container
# --------------------------------------------------------------------------- #
def test_measurement_accessors_and_roundtrip():
    graph = random_dk_graph(2)
    plan = MeasurementPlan(("mean_distance", "distance_distribution", "nodes"))
    result = plan.run(graph)
    assert result.mean_distance == result["mean_distance"]
    assert "nodes" in result and len(result) == 3
    with pytest.raises(AttributeError):
        result.betweenness_by_degree
    # one flat, ordered {name: encoded value} dict (distributions as pairs)
    encoded = result.to_jsonable()
    assert list(encoded) == ["mean_distance", "distance_distribution", "nodes"]
    assert encoded["distance_distribution"] == sorted(
        [key, value] for key, value in result["distance_distribution"].items()
    )
    decoded = Measurement.from_jsonable(json.loads(json.dumps(encoded)))
    assert decoded == result
    assert list(decoded["distance_distribution"]) == sorted(
        decoded["distance_distribution"]
    )


def test_average_measurements():
    graphs = [random_dk_graph(s) for s in (31, 32, 33)]
    plan = MeasurementPlan(("mean_distance", "nodes", "distance_distribution"))
    measurements = [plan.run(g) for g in graphs]
    averaged = average_measurements(measurements)
    assert averaged["mean_distance"] == pytest.approx(
        sum(m["mean_distance"] for m in measurements) / 3
    )
    assert isinstance(averaged["nodes"], int)
    keys = {k for m in measurements for k in m["distance_distribution"]}
    assert set(averaged["distance_distribution"]) == keys
    with pytest.raises(ValueError):
        average_measurements([])
    with pytest.raises(ValueError, match="different metric sets"):
        average_measurements([measurements[0], MeasurementPlan(("nodes",)).run(graphs[0])])


# --------------------------------------------------------------------------- #
# Per-metric store memoization
# --------------------------------------------------------------------------- #
def test_widening_metric_set_computes_only_new_metrics(tmp_path, counting_sweep):
    graph = random_dk_graph(41)
    store = ArtifactStore(tmp_path / "store")
    first = memoized_measure(graph, store, metrics=("mean_distance", "mean_clustering"))
    assert store.info_dict()["metrics"] == 2
    assert len(counting_sweep) == 1

    # widen on a fresh graph object (cold in-process caches): the cached
    # metrics come from the store, only the new ones compute
    clone = graph.copy()
    triangle_calls = []
    real_triangles = intermediates.triangles_per_node

    def counting_triangles(g):
        triangle_calls.append(1)
        return real_triangles(g)

    intermediates.triangles_per_node = counting_triangles
    try:
        widened = memoized_measure(
            clone,
            store,
            metrics=("mean_distance", "mean_clustering", "distance_std", "transitivity"),
        )
    finally:
        intermediates.triangles_per_node = real_triangles
    assert store.info_dict()["metrics"] == 4
    # distance_std needed a sweep (mean_distance's cached value has no
    # histogram), transitivity a triangle pass; mean_clustering did NOT
    # recount triangles — it was a store read
    assert len(counting_sweep) == 2
    assert len(triangle_calls) == 1
    assert widened["mean_distance"] == first["mean_distance"]
    assert widened["mean_clustering"] == first["mean_clustering"]

    # a third, identical request is a pure store read: no kernels at all
    clear_measure_cache(clone)
    again = memoized_measure(
        clone,
        store,
        metrics=("mean_distance", "mean_clustering", "distance_std", "transitivity"),
    )
    assert len(counting_sweep) == 2
    assert again == widened


def test_distance_sources_only_invalidates_traversal_metrics(tmp_path):
    graph = random_dk_graph(43)
    store = ArtifactStore(tmp_path / "store")
    memoized_measure(graph, store, metrics=("mean_distance", "mean_clustering"))
    assert store.info_dict()["metrics"] == 2
    memoized_measure(
        graph,
        store,
        metrics=("mean_distance", "mean_clustering"),
        distance_sources=5,
        rng=np.random.default_rng(1),
    )
    # mean_distance got a new (sampled) entry; mean_clustering was reused
    assert store.info_dict()["metrics"] == 3


# --------------------------------------------------------------------------- #
# Metric-subset selection end to end: ExperimentSpec.metrics -> store -> CLI
# --------------------------------------------------------------------------- #
def test_experiment_metric_subset_records(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph",),
        d_levels=(2,),
        seed=3,
        include_original=True,
        metrics=("mean_distance", "distance_distribution", "betweenness_by_degree"),
    )
    result = run_experiment(spec)
    for record in result.records:
        assert isinstance(record.metrics, Measurement)
        assert record.metric_value("mean_distance") > 0
        assert sum(record.metrics["distance_distribution"].values()) == pytest.approx(1.0)
        assert record.metrics["betweenness_by_degree"]
    rows = result.to_rows(include_timing=False)
    assert list(rows[0]["metrics"]) == list(spec.metrics)
    json.dumps(rows)  # distribution metrics serialize cleanly


def test_experiment_default_metrics_unchanged(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,), methods=("pseudograph",), d_levels=(2,), seed=3
    )
    assert spec.metrics == TABLE2_CORE_METRICS  # compute_spectrum=False default
    record = run_experiment(spec).records[0]
    assert isinstance(record.metrics, Measurement)
    assert record.metrics.metrics == TABLE2_CORE_METRICS
    # no lambda_1 / lambda_n_1 at all: the spectrum was never computed
    assert list(record.to_row()["metrics"]) == list(TABLE2_CORE_METRICS)
    assert "lambda" not in scalar_metrics_table({"pseudograph": record.metrics})


def test_experiment_spectrum_metrics_are_measured():
    spec = ExperimentSpec(
        topologies=("hot_small",), methods=(), include_original=True, compute_spectrum=True
    )
    (record,) = run_experiment(spec).records
    assert list(record.to_row()["metrics"])[-2:] == ["lambda_1", "lambda_n_1"]
    # a connected graph's smallest non-zero eigenvalue is positive
    assert 0 < record.metrics.lambda_1 < record.metrics.lambda_n_1
    assert "lambda_1" in scalar_metrics_table({"original": record.metrics})


def test_experiment_metrics_validation_and_aliases(hot_small):
    with pytest.raises(Exception, match="unknown metric"):
        ExperimentSpec(
            topologies=(hot_small,), methods=("pseudograph",), metrics=("nope",)
        )
    spec = ExperimentSpec(topologies=(hot_small,), methods=("pseudograph",), metrics=())
    assert spec.metrics == ()
    # the removed collect_metrics alias is rejected, not silently ignored
    with pytest.raises(TypeError, match="collect_metrics"):
        ExperimentSpec(
            topologies=(hot_small,), methods=("pseudograph",), collect_metrics=False
        )


def test_experiment_subset_resume_roundtrip(tmp_path, hot_small):
    store = ArtifactStore(tmp_path / "store")
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph",),
        d_levels=(2,),
        seed=9,
        include_original=True,
        metrics=("mean_distance", "distance_std", "betweenness_by_degree"),
    )
    cold = run_experiment(spec, store=store)
    warm = run_experiment(spec, store=store)
    assert warm.cached_cells == len(warm.records) == 2
    assert warm.to_rows(include_timing=False) == cold.to_rows(include_timing=False)
    restored = warm.records[0].metrics
    assert isinstance(restored, Measurement)
    assert restored == cold.records[0].metrics


def test_reordered_metric_spec_shares_cells_and_averages(tmp_path, hot_small):
    # the cell key canonicalizes the metric set by sorting, so a reordered
    # spec resumes the same cells; restored measurements are re-ordered to
    # the requesting spec, keeping averaging (and to_rows) consistent
    from repro.analysis.comparison import comparison_from_experiment

    store = ArtifactStore(tmp_path / "store")
    first = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph",),
        d_levels=(2,),
        replicates=1,
        seed=5,
        include_original=True,
        metrics=("distance_std", "mean_distance"),
    )
    run_experiment(first, store=store)
    reordered = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph",),
        d_levels=(2,),
        replicates=2,
        seed=5,
        include_original=True,
        metrics=("mean_distance", "distance_std"),
    )
    grown = run_experiment(reordered, store=store)
    assert grown.cached_cells == 2  # original + replicate 0 reused
    for record in grown.records:
        assert record.metrics.metrics == ("mean_distance", "distance_std")
    comparison = comparison_from_experiment(grown)  # averaging must not raise
    assert comparison.columns["pseudograph"]["mean_distance"] > 0


def test_sampled_sweep_metrics_recompute_as_a_group(tmp_path):
    # widening a sampled metric set must not mix two different BFS samples
    # into one (mean, std) pair: the whole sweep group recomputes together
    graph = random_dk_graph(47)
    store = ArtifactStore(tmp_path / "store")
    memoized_measure(
        graph,
        store,
        metrics=("mean_distance", "mean_clustering"),
        distance_sources=8,
        rng=np.random.default_rng(1),
    )
    clear_measure_cache(graph)
    widened = memoized_measure(
        graph,
        store,
        metrics=("mean_distance", "distance_std", "mean_clustering"),
        distance_sources=8,
        rng=np.random.default_rng(2),
    )
    clear_measure_cache(graph)
    one_shot = MeasurementPlan(
        ("mean_distance", "distance_std"), distance_sources=8
    ).run(graph, rng=np.random.default_rng(2))
    # both traversal metrics come from the single rng=2 sample
    assert widened["mean_distance"] == one_shot["mean_distance"]
    assert widened["distance_std"] == one_shot["distance_std"]


def test_sampled_metrics_cached_by_different_runs_never_mix(tmp_path):
    # entries written by different runs carry different sample tags: a
    # request finding all its sweep metrics cached, but from two samples,
    # must recompute the group instead of serving a mixed (d̄, σ_d) pair
    graph = random_dk_graph(53)
    store = ArtifactStore(tmp_path / "store")
    memoized_measure(
        graph, store, metrics=("mean_distance",), distance_sources=8,
        rng=np.random.default_rng(1),
    )
    clear_measure_cache(graph)
    memoized_measure(
        graph, store, metrics=("distance_std",), distance_sources=8,
        rng=np.random.default_rng(2),
    )
    clear_measure_cache(graph)
    combined = memoized_measure(
        graph, store, metrics=("mean_distance", "distance_std"), distance_sources=8,
        rng=np.random.default_rng(3),
    )
    clear_measure_cache(graph)
    one_shot = MeasurementPlan(
        ("mean_distance", "distance_std"), distance_sources=8
    ).run(graph, rng=np.random.default_rng(3))
    assert combined.as_dict() == one_shot.as_dict()
    # the rewritten entries now share a tag: a repeat is a pure store read
    clear_measure_cache(graph)
    again = memoized_measure(
        graph, store, metrics=("mean_distance", "distance_std"), distance_sources=8,
        rng=np.random.default_rng(99),
    )
    assert again.as_dict() == combined.as_dict()


def test_clamped_distance_sources_cache_like_exact(tmp_path, counting_sweep):
    # distance_sources >= n is clamped to the exact sweep: deterministic, so
    # widening must reuse the cached entries instead of re-sweeping
    graph = random_dk_graph(59, n=40, m=80)
    store = ArtifactStore(tmp_path / "store")
    memoized_measure(graph, store, metrics=("mean_distance",), distance_sources=10_000)
    clone = graph.copy()
    widened = memoized_measure(
        clone, store, metrics=("mean_distance", "distance_std"),
        distance_sources=10_000,
    )
    # one sweep per planner run; the widened run's sweep served distance_std
    # while mean_distance stayed a store read (no group recompute)
    assert len(counting_sweep) == 2
    assert store.info_dict()["metrics"] == 2
    assert widened["mean_distance"] == mean_distance(giant_component(graph))


def test_spec_to_dict_round_trips(hot_small):
    for spec in (
        ExperimentSpec(topologies=(hot_small,), methods=("pseudograph",), metrics=()),
        ExperimentSpec(topologies=(hot_small,), methods=("pseudograph",)),
        ExperimentSpec(
            topologies=(hot_small,), methods=("pseudograph",), metrics=("mean_distance",)
        ),
    ):
        config = spec.to_dict()
        rebuilt = ExperimentSpec(
            topologies=(hot_small,),
            methods=tuple(config["methods"]),
            metrics=tuple(config["metrics"]),
            compute_spectrum=config["compute_spectrum"],
        )
        assert rebuilt.metrics == spec.metrics


def test_cli_dist_per_node_metric_renders_summary(capsys):
    assert main(["dist", "hot_small", "--metrics", "node_betweenness"]) == 0
    output = capsys.readouterr().out
    assert "node_betweenness (per-node summary)" in output
    assert "mean" in output


def test_cli_dist_metrics(capsys):
    assert main(["dist", "hot_small", "--metrics", "mean_distance,distance_distribution"]) == 0
    output = capsys.readouterr().out
    assert "mean_distance" in output
    assert "distance_distribution" in output


def test_cli_dist_metrics_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["dist", "hot_small", "--metrics", "bogus_metric"])


def test_cli_run_experiment_metrics(capsys):
    assert (
        main(
            [
                "run-experiment",
                "--topology", "hot_small",
                "--method", "pseudograph",
                "-d", "2",
                "--metrics", "mean_distance,betweenness_by_degree",
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "Experiment:" in output
    assert "dbar" in output  # the subset's mean_distance row renders


def test_cli_run_experiment_metrics_conflicts_with_spectrum():
    with pytest.raises(SystemExit):
        main(
            [
                "run-experiment",
                "--topology", "hot_small",
                "--method", "pseudograph",
                "--metrics", "mean_distance",
                "--spectrum",
            ]
        )


def test_available_metrics_cover_table2():
    names = available_metrics()
    for name in TABLE2_CORE_METRICS:
        assert name in names
    assert names["distance_distribution"].kind == "distribution"
    assert names["nodes"].dtype == "int"
