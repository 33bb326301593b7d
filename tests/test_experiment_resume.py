"""Tests for store-backed experiments: memoization, per-cell resume, CLI."""

import json
import threading

import pytest

from repro.cli import cache_main, main
from repro.exceptions import ExperimentInterrupted
from repro.experiment import ExperimentSpec, run_experiment
from repro.generators.registry import (
    GeneratorSpec,
    register_generator,
    unregister_generator,
)
from repro.graph.simple_graph import SimpleGraph
from repro.store import ArtifactStore

#: Grows by one entry per counting-stub generator invocation.
CALLS: list[int] = []


@pytest.fixture
def counting_generator():
    """A registered generator that counts its invocations.

    The builder rewires nothing: it returns a seed-dependent random graph of
    the input's size, so distinct seeds give distinct artifacts.
    """

    def build(graph, d, rng):
        CALLS.append(1)
        n = graph.number_of_nodes
        result = SimpleGraph(n)
        while result.number_of_edges < min(graph.number_of_edges, n * (n - 1) // 2):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                result.add_edge(u, v)
        return result

    register_generator(
        GeneratorSpec(
            name="counting-stub",
            description="invocation-counting test generator",
            supported_d=frozenset({0, 1, 2, 3}),
            input_kind="graph",
            builder=build,
        ),
        overwrite=True,
    )
    CALLS.clear()
    yield "counting-stub"
    unregister_generator("counting-stub")
    CALLS.clear()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def stub_spec(topology, **overrides):
    defaults = dict(
        topologies=(topology,),
        methods=("counting-stub",),
        d_levels=(2,),
        replicates=2,
        seed=3,
        include_original=True,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# --------------------------------------------------------------------------- #
# The acceptance criterion: a warm identical grid runs zero generator calls
# --------------------------------------------------------------------------- #
def test_warm_identical_grid_performs_zero_generator_calls(counting_generator, store, hot_small):
    spec = stub_spec(hot_small)
    first = run_experiment(spec, store=store)
    assert len(CALLS) == 2  # one per replicate
    assert first.cached_cells == 0

    second = run_experiment(spec, store=store)
    assert len(CALLS) == 2  # zero new generator calls
    assert second.cached_cells == len(second.records) == 3
    assert second.to_rows(include_timing=False) == first.to_rows(include_timing=False)


def test_changed_metric_options_reuse_graphs_not_cells(counting_generator, store, hot_small):
    run_experiment(stub_spec(hot_small), store=store)
    assert len(CALLS) == 2
    # different measurement options -> cells recompute, but the generated
    # graphs are served from the store: still zero new generator calls
    changed = stub_spec(hot_small, dk_distances=True)
    result = run_experiment(changed, store=store)
    assert len(CALLS) == 2
    assert result.cached_cells == 0
    for record in result.records_for(method="counting-stub"):
        assert record.dk_distance is not None


def test_changed_seed_regenerates(counting_generator, store, hot_small):
    run_experiment(stub_spec(hot_small), store=store)
    run_experiment(stub_spec(hot_small, seed=4), store=store)
    assert len(CALLS) == 4


def test_growing_the_grid_reuses_completed_replicates(counting_generator, store, hot_small):
    run_experiment(stub_spec(hot_small, replicates=1), store=store)
    assert len(CALLS) == 1
    grown = run_experiment(stub_spec(hot_small, replicates=3), store=store)
    # replicate 0 and the original cell come from the store; only 1 and 2 run
    assert len(CALLS) == 3
    assert grown.cached_cells == 2


def test_resume_false_recomputes_everything(counting_generator, store, hot_small):
    spec = stub_spec(hot_small)
    first = run_experiment(spec, store=store)
    refreshed = run_experiment(spec, store=store, resume=False)
    assert len(CALLS) == 4
    assert refreshed.cached_cells == 0
    assert refreshed.to_rows(include_timing=False) == first.to_rows(include_timing=False)


# --------------------------------------------------------------------------- #
# Fidelity of restored records
# --------------------------------------------------------------------------- #
def test_store_and_no_store_rows_are_identical(hot_small, store):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph", "rewiring"),
        d_levels=(2,),
        replicates=2,
        seed=1,
        include_original=True,
        dk_distances=True,
    )
    eager = run_experiment(spec)
    stored = run_experiment(spec, store=store)
    warm = run_experiment(spec, store=store)
    assert stored.to_rows(include_timing=False) == eager.to_rows(include_timing=False)
    assert warm.to_rows(include_timing=False) == eager.to_rows(include_timing=False)


# --------------------------------------------------------------------------- #
# Store-less runs: a temporary store that never outlives the call
# --------------------------------------------------------------------------- #
def test_store_less_run_removes_its_temporary_store(counting_generator, temp_root, hot_small):
    seen = set()
    result = run_experiment(
        stub_spec(hot_small), on_cell=lambda done, total: seen.update(temp_root.iterdir())
    )
    assert len(result.records) == 3
    # every cell ran on one temporary store, gone once the call returned
    assert len(seen) == 1 and seen.pop().name.startswith("repro-store-")
    assert list(temp_root.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_cancelled_store_less_run_removes_its_temporary_store(temp_root, hot_small, workers):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("pseudograph",),
        d_levels=(1, 2),
        replicates=4,
        metrics=("average_degree",),
    )
    cancel = threading.Event()

    def on_cell(done, total):
        if done >= 1:
            cancel.set()

    with pytest.raises(ExperimentInterrupted) as err:
        run_experiment(spec, workers=workers, cancel=cancel, on_cell=on_cell)
    assert err.value.reason == "cancelled"
    assert "resume" not in str(err.value)  # nothing is left to resume from
    assert list(temp_root.iterdir()) == []


def test_workers_share_the_store(store):
    spec = ExperimentSpec(
        topologies=("hot_small",),
        methods=("pseudograph", "matching"),
        d_levels=(1, 2),
        replicates=2,
        seed=1,
        include_original=True,
    )
    cold = run_experiment(spec, workers=2, store=store)
    assert cold.cached_cells == 0
    warm = run_experiment(spec, workers=2, store=store)
    assert warm.cached_cells == len(warm.records)
    assert warm.to_rows(include_timing=False) == cold.to_rows(include_timing=False)
    # a sequential warm run agrees too
    sequential = run_experiment(spec, workers=1, store=store)
    assert sequential.to_rows(include_timing=False) == cold.to_rows(include_timing=False)


def test_keep_graphs_restores_graphs_from_store(store, hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(2,),
        seed=5,
        metrics=(),
        keep_graphs=True,
        include_original=True,
    )
    cold = run_experiment(spec, store=store)
    warm = run_experiment(spec, store=store)
    assert warm.cached_cells == 2
    for fresh, restored in zip(cold.records, warm.records):
        assert isinstance(restored.graph, SimpleGraph)
        assert restored.graph == fresh.graph
    assert warm.records_for(method="rewiring")[0].stats["accepted_moves"] > 0


def test_missing_graph_artifact_forces_recompute(store, hot_small):
    spec = ExperimentSpec(
        topologies=(hot_small,),
        methods=("rewiring",),
        d_levels=(2,),
        seed=5,
        metrics=(),
        keep_graphs=True,
    )
    cold = run_experiment(spec, store=store)
    # wipe the graph artifacts but keep the cell manifests
    import shutil

    shutil.rmtree(store.root / "biggraphs")
    warm = run_experiment(spec, store=store)
    assert warm.cached_cells == 0  # cells could not satisfy keep_graphs
    assert warm.records[0].graph == cold.records[0].graph


def _rewrite_cell_rows(spec, store, hot_small, rewrite):
    """Overwrite every cell manifest of ``spec`` with ``rewrite(row)``."""
    from repro.experiment import _cell_cache_key
    from repro.store import graph_content_hash
    from repro.store.keys import code_version

    topology_hash = graph_content_hash(hot_small)
    for cell in spec.cells():
        key = _cell_cache_key(spec, cell, topology_hash)
        manifest = store.get_cell(key)
        store.put_cell(
            key,
            {
                "code_version": code_version(),
                "graph_key": manifest["graph_key"],
                "row": rewrite(dict(manifest["row"])),
            },
        )


def test_old_battery_manifest_restores_only_the_spec_metrics(
    counting_generator, store, hot_small
):
    # a manifest written before Measurement was the only metric block: the
    # default battery as a flat dict that includes made-up zero eigenvalues
    spec = stub_spec(hot_small)
    fresh = run_experiment(spec, store=store)

    def battery_row(row):
        row["metrics"] = {**row["metrics"], "lambda_1": 0.0, "lambda_n_1": 0.0}
        return row

    _rewrite_cell_rows(spec, store, hot_small, battery_row)
    CALLS.clear()
    warm = run_experiment(spec, store=store)
    assert warm.cached_cells == len(warm.records) == 3
    assert CALLS == []
    for record in warm.records:
        assert record.metrics.metrics == spec.metrics  # no lambda_1 / lambda_n_1
    assert warm.to_rows(include_timing=False) == fresh.to_rows(include_timing=False)


def test_old_subset_manifest_is_stale(counting_generator, store, hot_small):
    # a manifest of a custom metric subset in the old two-block shape
    # ("metrics": null plus a "measured" block) is recomputed, not misread
    spec = stub_spec(hot_small, metrics=("mean_distance", "distance_distribution"))
    fresh = run_experiment(spec, store=store)

    def subset_row(row):
        values = row.pop("metrics")
        row["metrics"] = None
        row["measured"] = {"metrics": list(spec.metrics), "values": values}
        return row

    _rewrite_cell_rows(spec, store, hot_small, subset_row)
    recomputed = run_experiment(spec, store=store)
    assert recomputed.cached_cells == 0
    assert recomputed.to_rows(include_timing=False) == fresh.to_rows(include_timing=False)
    # the recomputed cells rewrote their manifests in the current shape
    assert run_experiment(spec, store=store).cached_cells == 3


def test_label_independence_of_cell_keys(store, tmp_path, hot_small):
    # the same graph reached via a file path and via an in-memory object
    # shares cells: content-addressing ignores the topology label
    from repro.graph.io import write_edge_list

    path = tmp_path / "hot.edges"
    write_edge_list(hot_small, path)
    by_path = ExperimentSpec(
        topologies=(str(path),), methods=("pseudograph",), d_levels=(2,), seed=9
    )
    run_experiment(by_path, store=store)
    by_graph = ExperimentSpec(
        topologies=(hot_small,), methods=("pseudograph",), d_levels=(2,), seed=9
    )
    warm = run_experiment(by_graph, store=store)
    assert warm.cached_cells == 1
    # the restored record carries the *current* label, not the stored one
    assert warm.records[0].topology == "graph-0"


def test_to_json_reports_cached_cells(store, hot_small):
    spec = ExperimentSpec(topologies=(hot_small,), methods=("pseudograph",), d_levels=(2,), seed=2)
    run_experiment(spec, store=store)
    document = json.loads(run_experiment(spec, store=store).to_json())
    assert document["cached_cells"] == 1


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
def test_cli_run_experiment_store_resume_end_to_end(tmp_path, capsys):
    store_dir = tmp_path / "store"
    argv = [
        "run-experiment",
        "--topology", "hot_small",
        "--method", "pseudograph",
        "-d", "2",
        "--replicates", "2",
        "--store", str(store_dir),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 0
    output = capsys.readouterr().out
    assert "3 cell(s) from store" in output


def test_cli_resume_requires_store():
    with pytest.raises(SystemExit):
        main(["run-experiment", "--topology", "hot_small", "--method", "pseudograph", "--resume"])


def test_cli_cache_clear_works_on_schema_mismatch(tmp_path, capsys):
    store_dir = tmp_path / "store"
    ArtifactStore(store_dir)
    (store_dir / "store.json").write_text('{"schema": 999}')
    # info refuses with a clean error ...
    with pytest.raises(SystemExit, match="schema"):
        cache_main(["info", "--store", str(store_dir)])
    # ... but clear (the recommended remediation) still works
    assert cache_main(["clear", "--store", str(store_dir)]) == 0
    assert ArtifactStore(store_dir).info_dict()["cells"] == 0


def test_cli_run_experiment_reports_store_error(tmp_path):
    store_dir = tmp_path / "store"
    ArtifactStore(store_dir)
    (store_dir / "store.json").write_text('{"schema": 999}')
    with pytest.raises(SystemExit, match="schema"):
        main(
            [
                "run-experiment",
                "--topology", "hot_small",
                "--method", "pseudograph",
                "--store", str(store_dir),
            ]
        )


def test_cli_cache_info_gc_clear(tmp_path, capsys):
    store_dir = tmp_path / "store"
    main(
        [
            "run-experiment",
            "--topology", "hot_small",
            "--method", "pseudograph",
            "--no-original",
            "--store", str(store_dir),
        ]
    )
    capsys.readouterr()
    assert cache_main(["info", "--store", str(store_dir)]) == 0
    output = capsys.readouterr().out
    assert "biggraphs" in output and "cells" in output
    assert cache_main(["gc", "--store", str(store_dir)]) == 0
    capsys.readouterr()
    assert cache_main(["clear", "--store", str(store_dir)]) == 0
    assert "cleared" in capsys.readouterr().out
    assert ArtifactStore(store_dir).info_dict()["cells"] == 0
