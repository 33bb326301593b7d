"""Tests for the Experiment pipeline (spec expansion, execution, determinism)."""

import json

import pytest

from repro.analysis.comparison import comparison_from_experiment
from repro.analysis.tables import experiment_table
from repro.exceptions import ExperimentError
from repro.experiment import (
    ORIGINAL_METHOD,
    ExperimentSpec,
    run_experiment,
)
from repro.graph.simple_graph import SimpleGraph


def small_spec(**overrides):
    defaults = dict(
        topologies=("hot_small",),
        methods=("pseudograph", "matching"),
        d_levels=(1, 2),
        replicates=2,
        seed=1,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# --------------------------------------------------------------------------- #
# Spec validation and grid expansion
# --------------------------------------------------------------------------- #
def test_spec_rejects_empty_and_invalid_inputs():
    with pytest.raises(ExperimentError):
        ExperimentSpec(topologies=(), methods=("rewiring",))
    with pytest.raises(ExperimentError):
        ExperimentSpec(topologies=("hot_small",), methods=())
    with pytest.raises(ExperimentError):
        small_spec(replicates=0)
    with pytest.raises(ExperimentError):
        small_spec(d_levels=(5,))
    with pytest.raises(ExperimentError):
        small_spec(methods=(ORIGINAL_METHOD,), include_original=True)


def test_spec_rejects_unknown_generator_options_and_metric_names():
    with pytest.raises(ExperimentError, match="'foo'"):
        small_spec(methods=("rewiring",), generator_options={"rewiring": {"foo": 1}})
    with pytest.raises(ExperimentError, match="'batch_size'"):
        small_spec(generator_options={"pseudograph": {"batch_size": 7}})
    with pytest.raises(ExperimentError, match="must be strings"):
        small_spec(metrics=[["x"]])


@pytest.mark.parametrize(
    "options",
    [
        {"rewiring": {"multiplier": "x"}},
        {"rewiring": {"multiplier": -3}},
        {"targeting": {"max_attempts": "5"}},
        {"targeting": {"max_attempts": 0}},
    ],
)
def test_spec_rejects_bad_generator_option_values(options):
    with pytest.raises(ExperimentError, match="must be"):
        small_spec(methods=tuple(options), generator_options=options)


def test_cells_skip_unsupported_combinations():
    spec = small_spec(methods=("matching", "rewiring"), d_levels=(2, 3), replicates=1)
    cells = spec.cells()
    combos = {(cell.method, cell.d) for cell in cells}
    # matching does not support d=3: the cell is silently dropped
    assert combos == {("matching", 2), ("rewiring", 2), ("rewiring", 3)}


def test_cells_raise_on_unsupported_when_strict():
    spec = small_spec(methods=("matching",), d_levels=(3,), skip_unsupported=False)
    with pytest.raises(ValueError):
        spec.cells()


def test_unknown_method_fails_fast():
    spec = small_spec(methods=("quantum",))
    with pytest.raises(ValueError):
        run_experiment(spec)


def test_empty_grid_raises():
    spec = small_spec(methods=("matching",), d_levels=(0,))
    with pytest.raises(ExperimentError, match="grid is empty"):
        run_experiment(spec)


def test_cell_seeds_are_distinct_and_deterministic():
    cells_a = small_spec().cells()
    cells_b = small_spec().cells()
    assert [cell.seed for cell in cells_a] == [cell.seed for cell in cells_b]
    assert len({cell.seed for cell in cells_a}) == len(cells_a)
    # a different base seed moves every cell seed
    cells_c = small_spec(seed=2).cells()
    assert all(a.seed != c.seed for a, c in zip(cells_a, cells_c))


# --------------------------------------------------------------------------- #
# Execution and determinism
# --------------------------------------------------------------------------- #
def test_results_identical_across_worker_counts():
    spec = small_spec()
    sequential = run_experiment(spec, workers=1)
    parallel = run_experiment(spec, workers=2)
    assert sequential.to_rows(include_timing=False) == parallel.to_rows(include_timing=False)


def test_acceptance_grid_two_topologies_three_methods_two_replicates(hot_small):
    # the acceptance-criteria spec: 2 topologies x 3 methods x 2 replicates,
    # run under workers=2, deterministic and JSON-serializable
    spec = ExperimentSpec(
        topologies=("hot_small", hot_small),
        methods=("rewiring", "pseudograph", "matching"),
        d_levels=(2,),
        replicates=2,
        seed=7,
        include_original=True,
    )
    first = run_experiment(spec, workers=2)
    second = run_experiment(spec, workers=2)
    assert first.to_rows(include_timing=False) == second.to_rows(include_timing=False)
    # 2 originals + 2 topologies * 3 methods * 2 replicates
    assert len(first.records) == 2 + 2 * 3 * 2
    document = json.loads(first.to_json())
    assert document["spec"]["topologies"] == ["hot_small", "graph-1"]
    assert len(document["records"]) == len(first.records)
    # the SimpleGraph entry and the registered name denote the same protocol
    assert {record["method"] for record in document["records"]} == {
        "original",
        "rewiring",
        "pseudograph",
        "matching",
    }


def test_graph_and_path_topology_entries(tmp_path, hot_small):
    from repro.graph.io import write_edge_list

    path = tmp_path / "hot.edges"
    write_edge_list(hot_small, path)
    spec = ExperimentSpec(
        topologies=(str(path), hot_small),
        methods=("pseudograph",),
        d_levels=(2,),
        seed=3,
    )
    result = run_experiment(spec)
    by_topology = {record.topology: record for record in result.records}
    assert set(by_topology) == {str(path), "graph-1"}
    # same underlying graph + same derivation coordinates differ only by index
    assert by_topology[str(path)].edges > 0


def test_rewritten_edge_list_is_read_again(tmp_path):
    path = tmp_path / "grown.edges"
    spec = ExperimentSpec(topologies=(str(path),), methods=(), include_original=True)
    path.write_text("0 1\n1 2\n")
    assert run_experiment(spec).records[0].edges == 2
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    assert run_experiment(spec).records[0].edges == 4


def test_unresolvable_topology_raises():
    spec = ExperimentSpec(topologies=("no-such-thing",), methods=("pseudograph",), d_levels=(2,))
    with pytest.raises(ExperimentError, match="neither a registered topology"):
        run_experiment(spec)


def test_original_records_and_dk_distances(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(1, 2),
        seed=5,
        include_original=True,
        dk_distances=True,
    )
    result = run_experiment(spec)
    original = result.original_record("graph-0")
    assert original.method == ORIGINAL_METHOD
    assert original.nodes == hot_small.number_of_nodes
    for record in result.records_for(method="rewiring"):
        assert record.dk_distance == 0.0  # rewiring preserves P_d exactly


def test_keep_graphs_and_stats(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(2,),
        seed=5,
        metrics=(),
        keep_graphs=True,
    )
    record = run_experiment(spec).records[0]
    assert isinstance(record.graph, SimpleGraph)
    assert record.metrics is None
    assert record.stats["accepted_moves"] > 0
    # graphs never leak into the serialized form
    assert "graph" not in record.to_row()


def test_generator_options_are_forwarded(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(2,),
        seed=5,
        metrics=(),
        generator_options={"rewiring": {"multiplier": 1.0}},
    )
    record = run_experiment(spec).records[0]
    assert record.stats["target_moves"] == hot_small.number_of_edges


def test_targeting_cell_reports_its_accept_rate(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,), methods=("targeting",), d_levels=(2,), seed=5, metrics=()
    )
    stats = run_experiment(spec).records[0].stats
    assert stats["attempted_moves"] > 0
    assert stats["accept_rate"] == stats["accepted_moves"] / stats["attempted_moves"]


# --------------------------------------------------------------------------- #
# Analysis consumption
# --------------------------------------------------------------------------- #
def test_comparison_from_experiment(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph", "matching"),
        d_levels=(2,),
        replicates=2,
        seed=1,
        include_original=True,
    )
    result = run_experiment(spec)
    comparison = comparison_from_experiment(result)
    assert set(comparison.columns) == {"pseudograph", "matching"}
    assert comparison.original.nodes == hot_small.number_of_nodes
    # 2K methods reproduce the average degree closely
    assert comparison.columns["matching"].average_degree == pytest.approx(
        comparison.original.average_degree, rel=0.1
    )


def test_comparison_requires_original_record():
    spec = small_spec(include_original=False)
    result = run_experiment(spec)
    with pytest.raises(ExperimentError, match="include_original"):
        comparison_from_experiment(result)


def test_experiment_table_renders(hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph",),
        d_levels=(2,),
        replicates=2,
        seed=1,
        include_original=True,
    )
    table = experiment_table(run_experiment(spec), title="grid")
    assert "grid" in table
    assert "pseudograph" in table
    assert "original" in table
