"""Tests for the traffic-workload engine: routing load, congestion, scenarios."""

from __future__ import annotations

import oracle
import pytest
from oracle import KERNEL_SETS, kernel_set, oracle_kernels
from oracle.sweep_python import edge_betweenness as reference_edge_betweenness

from repro.graph.simple_graph import SimpleGraph
from repro.measure import MeasurementPlan, clear_measure_cache, intermediates
from repro.measure.intermediates import shared_sweep, shared_target
from repro.metrics.betweenness import edge_betweenness, node_betweenness
from repro.workloads import (
    WORKLOAD_METRICS,
    Scenario,
    apply_scenario,
    canonical_edge_order,
    edge_load_by_degree,
    effective_throughput,
    load_percentile,
    max_load,
    routing_load,
    scenario_label,
)


def star(n=8):
    return SimpleGraph.from_edges((0, i) for i in range(1, n))


def path(n=7):
    return SimpleGraph.from_edges((i, i + 1) for i in range(n - 1))


def cycle(n=9):
    return SimpleGraph.from_edges((i, (i + 1) % n) for i in range(n))


def ring_with_chords(n=24):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 5) % n) for i in range(n)]
    return SimpleGraph(n, edges=edges)


def grid(side):
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return SimpleGraph(side * side, edges=edges)


@pytest.fixture
def counting_sweep(monkeypatch):
    """Record every ``bfs_sweep`` kernel call as ``(kernel set, wants)``."""
    calls: list[tuple[str, bool, bool]] = []
    for module, name in ((intermediates, "csr"), (oracle, "python")):
        real = module.bfs_sweep

        def counting(
            graph, sources, want_betweenness, want_edge_load=False,
            _real=real, _name=name,
        ):
            calls.append((_name, want_betweenness, want_edge_load))
            return _real(graph, sources, want_betweenness, want_edge_load)

        monkeypatch.setattr(module, "bfs_sweep", counting)
    return calls


# --------------------------------------------------------------------------- #
# congestion formulas
# --------------------------------------------------------------------------- #
def test_max_load_and_empty_vector():
    assert max_load([0.25, 0.5, 0.1]) == 0.5
    assert max_load([]) == 0.0
    assert effective_throughput([]) == 0.0
    assert load_percentile([], 99.0) == 0.0


def test_load_percentile_nearest_rank():
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert load_percentile(values, 100.0) == 1.0
    assert load_percentile(values, 50.0) == 0.5
    assert load_percentile(values, 10.0) == 0.1
    assert load_percentile(values, 1.0) == 0.1


def test_load_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        load_percentile([0.1], 0.0)
    with pytest.raises(ValueError):
        load_percentile([0.1], 101.0)


def test_effective_throughput_is_inverse_bottleneck():
    assert effective_throughput([0.25, 0.5]) == pytest.approx(2.0)
    assert effective_throughput([0.0, 0.0]) == 0.0


# --------------------------------------------------------------------------- #
# routing load: oracle, conventions, determinism
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "graph", [star(), path(), cycle(), ring_with_chords()],
    ids=["star", "path", "cycle", "chords"],
)
def test_edge_load_bit_identical_to_edge_betweenness(graph):
    # the same convention as the standalone per-edge oracle: bit for bit on
    # the reference kernels, to 1e-12 on the batched csr kernel, which
    # edge_betweenness and routing_load share
    expected = reference_edge_betweenness(graph, normalized=True)
    with oracle_kernels():
        reference, _ = routing_load(graph)
    edge_load, _ = routing_load(graph)
    library = edge_betweenness(graph, normalized=True)
    assert set(reference) == set(edge_load) == set(library) == set(expected)
    for edge, value in reference.items():
        assert value == expected[edge], edge
        assert edge_load[edge] == pytest.approx(value, rel=1e-12, abs=0.0), edge
        assert library[edge] == edge_load[edge], edge


def test_node_load_matches_betweenness_convention():
    graph = ring_with_chords()
    _, node_load = routing_load(graph)
    assert node_load == pytest.approx(node_betweenness(graph))


def test_star_load_concentrates_on_hub():
    # every demand pair routes through the hub; all edges carry equal load
    n = 8
    edge_load, node_load = routing_load(star(n))
    values = list(edge_load.values())
    assert values == pytest.approx([values[0]] * len(values))
    assert node_load.index(max(node_load)) == 0
    # hub transit load = all pairs not touching the hub
    pairs = n * (n - 1) / 2.0
    assert node_load[0] * ((n - 1) * (n - 2) / 2.0) == pytest.approx(
        (n - 1) * (n - 2) / 2.0 / pairs * pairs * node_load[0]
    )


def test_routing_load_empty_and_edgeless_graphs():
    assert routing_load(SimpleGraph(0)) == ({}, [])
    edge_load, node_load = routing_load(SimpleGraph(4))
    assert edge_load == {}
    assert node_load == [0.0, 0.0, 0.0, 0.0]


def test_sampled_routing_load_is_seed_deterministic():
    graph = ring_with_chords()
    first = routing_load(graph, sources=8, rng=11)
    clear_measure_cache(graph)
    second = routing_load(graph, sources=8, rng=11)
    assert first == second
    clear_measure_cache(graph)
    other = routing_load(graph, sources=8, rng=12)
    assert other != first


@pytest.mark.parametrize(
    "graph", [star(), path(), cycle()], ids=["star", "path", "cycle"]
)
def test_backends_bit_identical_on_dyadic_graphs(graph):
    # sigma ratios are dyadic rationals here, so float summation order
    # cannot differ: the csr kernel and the oracle agree bit for bit
    with oracle_kernels():
        py_edges, py_nodes = routing_load(graph)
    csr_edges, csr_nodes = routing_load(graph)
    assert py_edges == csr_edges
    assert py_nodes == csr_nodes


def test_backends_agree_on_general_graphs():
    graph = ring_with_chords()
    with oracle_kernels():
        py_edges, py_nodes = routing_load(graph)
    csr_edges, csr_nodes = routing_load(graph)
    assert csr_nodes == pytest.approx(py_nodes, abs=1e-12)
    for edge, value in py_edges.items():
        assert csr_edges[edge] == pytest.approx(value, abs=1e-12)


def test_edge_load_by_degree_groups_by_degree_product():
    graph = star(5)  # hub degree 4, leaves degree 1 -> one group, product 4
    edge_load, _ = routing_load(graph)
    profile = edge_load_by_degree(graph, edge_load)
    assert list(profile) == [4]
    assert profile[4] == pytest.approx(sum(edge_load.values()) / len(edge_load))


# --------------------------------------------------------------------------- #
# the one-sweep guarantee (the acceptance criterion)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", KERNEL_SETS)
def test_betweenness_edge_load_and_congestion_share_one_sweep(counting_sweep, backend):
    graph = ring_with_chords()
    plan = MeasurementPlan(
        (
            "mean_distance",
            "node_betweenness",
            "edge_load",
            "node_load",
            *WORKLOAD_METRICS,
            "edge_load_by_degree",
        )
    )
    with kernel_set(backend):
        measurement = plan.run(graph)
    assert counting_sweep == [(backend, True, True)]  # exactly ONE Brandes sweep
    edges = canonical_edge_order(graph)
    assert len(measurement["edge_load"]) == len(edges)
    assert measurement["max_edge_load"] == pytest.approx(max(measurement["edge_load"]))
    assert measurement["max_node_load"] == pytest.approx(max(measurement["node_load"]))
    assert measurement["effective_throughput"] == pytest.approx(
        1.0 / measurement["max_edge_load"]
    )
    assert measurement["edge_load_p99"] <= measurement["max_edge_load"]


def test_edge_load_upgrades_cached_sweep_once(counting_sweep):
    graph = ring_with_chords()
    MeasurementPlan(("mean_distance",)).run(graph)
    assert counting_sweep == [("csr", False, False)]
    MeasurementPlan(("max_edge_load",)).run(graph)
    # upgrade recomputes once; the Brandes path keeps the centrality it
    # produced even though only edge load was requested...
    assert counting_sweep[-1] == ("csr", False, True)
    assert len(counting_sweep) == 2
    # the planner measures the (cached) giant-component copy
    assert shared_sweep(shared_target(graph)).centrality is not None
    # ...after which every workload metric is a cache read
    MeasurementPlan(("node_betweenness", *WORKLOAD_METRICS)).run(graph)
    assert len(counting_sweep) == 2


def test_shared_sweep_keeps_centrality_on_edge_load_requests():
    # whenever the Brandes path runs, the centrality it computed is kept:
    # a later betweenness request must not trigger another sweep
    graph = cycle(6)
    sweep = shared_sweep(graph, want_edge_load=True)
    assert sweep.centrality is not None
    assert sweep.edge_load is not None


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #
def test_scenario_parse_round_trips():
    scenario = Scenario.parse("hub_degree:0.05")
    assert scenario == Scenario("hub_degree", 0.05)
    assert Scenario.parse(scenario.label) == scenario
    assert Scenario.parse(scenario.to_jsonable()) == scenario
    assert Scenario.parse(scenario) is scenario
    assert Scenario.parse(None) is None
    assert Scenario.parse("none") is None
    assert Scenario.parse("baseline") is None
    assert scenario_label(None) == "none"
    assert scenario_label(scenario) == "hub_degree:0.05"


def test_scenario_parse_rejects_junk():
    with pytest.raises(ValueError):
        Scenario.parse("meteor_strike:0.5")
    with pytest.raises(ValueError):
        Scenario.parse("hub_degree")  # no fraction
    with pytest.raises(ValueError):
        Scenario.parse("hub_degree:1.5")  # out of [0, 1]
    with pytest.raises(TypeError):
        Scenario.parse(3.14)


def test_baseline_scenario_is_identity():
    graph = star()
    same, stats = apply_scenario(graph, None)
    assert same is graph
    assert stats == {"scenario": "none", "removed_nodes": 0, "removed_edges": 0}


def test_hub_degree_attack_removes_the_hub():
    graph = star(8)
    attacked, stats = apply_scenario(graph, Scenario("hub_degree", 0.05))
    # ceil(0.05 * 8) = 1 node: the hub, taking every edge with it
    assert stats == {"scenario": "hub_degree:0.05", "removed_nodes": 1, "removed_edges": 7}
    assert attacked.number_of_edges == 0
    assert attacked.number_of_nodes == graph.number_of_nodes  # ids stay stable
    assert graph.number_of_edges == 7  # the input graph is untouched


def test_hub_load_attack_targets_the_transit_hub():
    # node 2 bridges the two cliques: top degree is tied, but load is not
    graph = SimpleGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    )
    attacked, stats = apply_scenario(graph, Scenario("hub_load", 0.15))
    assert stats["removed_nodes"] == 1
    assert attacked.degree(2) == 0 or attacked.degree(3) == 0
    degraded_nodes = [v for v in graph.nodes() if attacked.degree(v) < graph.degree(v)]
    assert 2 in degraded_nodes or 3 in degraded_nodes


def test_hub_load_ties_break_by_degree_then_node_id():
    # the four centre nodes of a 12x12 grid carry equal load by symmetry,
    # but the summed floats differ in the last ulp; the documented rule
    # (equal degree, then lower id) must pick 65 and 66
    graph = grid(12)
    attacked, stats = apply_scenario(graph, Scenario("hub_load", 0.01))
    stripped = {v for v in graph.nodes() if attacked.degree(v) == 0}
    assert stats["removed_nodes"] == 2
    assert stripped == {65, 66}


def test_random_scenarios_are_seed_deterministic():
    graph = ring_with_chords()
    for kind in ("random_node", "random_edge"):
        first, stats_a = apply_scenario(graph, Scenario(kind, 0.2), rng=5)
        second, stats_b = apply_scenario(graph, Scenario(kind, 0.2), rng=5)
        assert sorted(first.edge_list()) == sorted(second.edge_list())
        assert stats_a == stats_b
        other, _ = apply_scenario(graph, Scenario(kind, 0.2), rng=6)
        assert sorted(other.edge_list()) != sorted(first.edge_list())


def test_zero_fraction_removes_nothing():
    graph = ring_with_chords()
    for kind in ("hub_degree", "hub_load", "random_node", "random_edge"):
        attacked, stats = apply_scenario(graph, Scenario(kind, 0.0), rng=1)
        assert stats["removed_nodes"] == 0
        assert stats["removed_edges"] == 0
        assert sorted(attacked.edge_list()) == sorted(graph.edge_list())


def test_attack_degrades_throughput():
    graph = ring_with_chords()
    plan = MeasurementPlan(("effective_throughput",))
    intact = plan.run(graph)["effective_throughput"]
    attacked, _ = apply_scenario(graph, Scenario("hub_degree", 0.1))
    degraded = plan.run(attacked)["effective_throughput"]
    assert degraded < intact


# --------------------------------------------------------------------------- #
# the experiment-grid scenario dimension (store-backed resume)
# --------------------------------------------------------------------------- #
def test_scenario_cells_share_the_baseline_seed():
    from repro.experiment import ExperimentSpec

    base = ExperimentSpec(
        topologies=("hot_small",), methods=("rewiring",), d_levels=(1,), replicates=2
    )
    swept = ExperimentSpec(
        topologies=("hot_small",),
        methods=("rewiring",),
        d_levels=(1,),
        replicates=2,
        scenarios=("none", "hub_degree:0.02", "random_edge:0.1"),
    )
    base_seeds = {(c.method, c.d, c.replicate): c.seed for c in base.cells()}
    for cell in swept.cells():
        # every scenario degrades the SAME generated graph: seeds must match
        assert cell.seed == base_seeds[(cell.method, cell.d, cell.replicate)]
    labels = {scenario_label(c.scenario) for c in swept.cells()}
    assert labels == {"none", "hub_degree:0.02", "random_edge:0.1"}


def test_spec_rejects_bad_scenarios():
    from repro.exceptions import ExperimentError
    from repro.experiment import ExperimentSpec

    with pytest.raises(ExperimentError):
        ExperimentSpec(
            topologies=("hot_small",), methods=("rewiring",), scenarios=("bogus:0.5",)
        )
    with pytest.raises(ExperimentError):
        ExperimentSpec(topologies=("hot_small",), methods=("rewiring",), scenarios=())


def test_attack_sweep_resumes_warm_with_zero_recomputation(
    tmp_path, counting_sweep, hot_small, monkeypatch
):
    """The acceptance criterion: a warm rerun of an attack-fraction sweep
    performs zero generator builds and zero routing sweeps."""
    from repro.experiment import ExperimentSpec, run_experiment
    from repro.generators.registry import GeneratorSpec
    from repro.store import ArtifactStore

    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(1,),
        replicates=1,
        seed=9,
        include_original=True,
        metrics=("nodes", "edges", *WORKLOAD_METRICS),
        scenarios=("none", "hub_degree:0.02", "hub_degree:0.1", "random_edge:0.2"),
    )
    store = ArtifactStore(tmp_path / "store")
    first = run_experiment(spec, store=store)
    assert first.cached_cells == 0
    assert len(first.records) == 8  # (original + rewiring d=1) x 4 scenarios
    assert counting_sweep  # the cold run did route traffic

    counting_sweep.clear()

    def exploding_build(self, *args, **kwargs):
        raise AssertionError("warm resume must not regenerate any graph")

    monkeypatch.setattr(GeneratorSpec, "build", exploding_build)
    second = run_experiment(spec, store=store)
    assert counting_sweep == []  # zero routing recomputation
    assert second.cached_cells == len(second.records) == 8
    assert second.to_rows(include_timing=False) == first.to_rows(include_timing=False)


def test_scenario_records_and_throughput_ordering(tmp_path, hot_small):
    from repro.experiment import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=(),
        include_original=True,
        metrics=("nodes", "edges", "effective_throughput"),
        scenarios=("none", "hub_degree:0.1"),
    )
    result = run_experiment(spec)
    by_scenario = {record.scenario: record for record in result.records}
    assert set(by_scenario) == {None, "hub_degree:0.1"}
    intact = by_scenario[None].metric_value("effective_throughput")
    attacked = by_scenario["hub_degree:0.1"].metric_value("effective_throughput")
    assert attacked < intact
    rows = result.to_rows()
    assert any(row.get("scenario") == "hub_degree:0.1" for row in rows)
