"""Tests for the ``repro`` command-line front-end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import dkcompare_main, dkdist_main, dkgen_main, main, methods_main
from repro.generators.registry import available_generators
from repro.graph.io import read_edge_list, write_edge_list, write_jdd
from repro.core.extraction import joint_degree_distribution


@pytest.fixture
def hot_small_file(tmp_path, hot_small):
    path = tmp_path / "hot_small.edges"
    write_edge_list(hot_small, path)
    return path


def test_dkdist_on_file(hot_small_file, capsys):
    assert dkdist_main([str(hot_small_file), "--no-spectrum"]) == 0
    output = capsys.readouterr().out
    assert "dK analysis" in output
    assert "kbar" in output


def test_dkdist_writes_jdd(hot_small_file, tmp_path, capsys, hot_small):
    jdd_path = tmp_path / "out.jdd"
    assert dkdist_main([str(hot_small_file), "--no-spectrum", "--jdd-out", str(jdd_path)]) == 0
    from repro.graph.io import read_jdd

    assert read_jdd(jdd_path) == joint_degree_distribution(hot_small).counts


def test_dkdist_on_registered_topology(capsys):
    assert dkdist_main(["hot_small", "--no-spectrum"]) == 0
    assert "Scalar metrics" in capsys.readouterr().out


def test_dkdist_unknown_source():
    with pytest.raises(SystemExit):
        dkdist_main(["no-such-file-or-topology"])


def test_dkgen_from_graph(hot_small_file, tmp_path, capsys, hot_small):
    out = tmp_path / "generated.edges"
    code = dkgen_main(
        ["--input", str(hot_small_file), "-d", "2", "--method", "rewiring",
         "--seed", "1", "-o", str(out)]
    )
    assert code == 0
    generated = read_edge_list(out)
    assert generated.number_of_edges == hot_small.number_of_edges


def test_dkgen_from_jdd(tmp_path, capsys, hot_small):
    jdd_path = tmp_path / "target.jdd"
    write_jdd(joint_degree_distribution(hot_small).counts, jdd_path)
    out = tmp_path / "generated.edges"
    assert dkgen_main(["--jdd", str(jdd_path), "--seed", "2", "-o", str(out)]) == 0
    assert read_edge_list(out).number_of_edges > 0


def test_dkgen_requires_exactly_one_input(tmp_path):
    with pytest.raises(SystemExit):
        dkgen_main(["-o", str(tmp_path / "x.edges")])


@pytest.fixture
def jdd_file(tmp_path, hot_small):
    path = tmp_path / "target.jdd"
    write_jdd(joint_degree_distribution(hot_small).counts, path)
    return path


def test_dkgen_from_jdd_honors_method(jdd_file, tmp_path, capsys, hot_small):
    """--jdd with an explicit distribution-input method dispatches to it."""
    out = tmp_path / "generated.edges"
    code = dkgen_main(
        ["--jdd", str(jdd_file), "--method", "matching", "--seed", "2", "-o", str(out)]
    )
    assert code == 0
    assert "matching" in capsys.readouterr().out
    generated = read_edge_list(out)
    # the matching construction reproduces the JDD's edge count
    assert generated.number_of_edges == pytest.approx(hot_small.number_of_edges, rel=0.1)


def test_dkgen_from_jdd_rejects_graph_input_method(jdd_file, tmp_path, capsys):
    """--jdd with a method that needs an original graph errors out clearly."""
    with pytest.raises(SystemExit):
        dkgen_main(
            ["--jdd", str(jdd_file), "--method", "rewiring", "-o", str(tmp_path / "x.edges")]
        )
    assert "requires an original graph" in capsys.readouterr().err


def test_methods_lists_the_registry(capsys):
    assert methods_main([]) == 0
    output = capsys.readouterr().out
    for name, spec in available_generators().items():
        assert name in output
        assert spec.levels_label() in output


def test_run_experiment_end_to_end(tmp_path, capsys):
    json_path = tmp_path / "result.json"
    code = main(
        [
            "run-experiment",
            "--topology", "hot_small",
            "--method", "pseudograph",
            "-d", "1",
            "--replicates", "1",
            "--seed", "1",
            "--workers", "1",
            "--json", str(json_path),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "Experiment" in output and "pseudograph" in output
    document = json.loads(json_path.read_text())
    assert document["spec"]["topologies"] == ["hot_small"]
    methods = {record["method"] for record in document["records"]}
    assert methods == {"original", "pseudograph"}


def test_rescale_gen_json_report_metrics_are_flat(hot_small_file, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code = main(
        [
            "rescale-gen",
            "--input", str(hot_small_file),
            "--target-n", "2000",
            "-d", "2",
            "--method", "pseudograph",
            "--seed", "1",
            "--distance-sources", "16",
            "--metrics", "mean_distance,distance_distribution",
            "--store", str(tmp_path / "store"),
            "--json", str(json_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    metrics = json.loads(json_path.read_text())["metrics"]
    # the one JSON form of a measurement: {name: encoded value}
    assert set(metrics) == {"mean_distance", "distance_distribution"}
    assert metrics["mean_distance"] > 0
    assert sum(value for _, value in metrics["distance_distribution"]) == pytest.approx(1.0)


def test_run_experiment_rejects_unknown_topology(tmp_path):
    with pytest.raises(SystemExit):
        main(["run-experiment", "--topology", "nope", "--method", "pseudograph"])


def test_dist_rejects_unknown_backend(hot_small_file):
    # every metric runs on the csr kernels: there is no --backend option
    for name in ("gpu", "csr"):
        with pytest.raises(SystemExit):
            dkdist_main([str(hot_small_file), "--backend", name])


def test_dkcompare(hot_small_file, capsys):
    assert dkcompare_main([str(hot_small_file), str(hot_small_file), "--no-spectrum"]) == 0
    output = capsys.readouterr().out
    assert "D_0" in output and "D_3" in output


def test_main_dispatch(capsys):
    assert main([]) == 2
    assert main(["unknown-tool"]) == 2
    assert main(["dkdist", "hot_small", "--no-spectrum"]) == 0
    # the short command names work too
    assert main(["dist", "hot_small", "--no-spectrum"]) == 0
    assert main(["methods"]) == 0


def _records_without_timing(path):
    records = json.loads(path.read_text())["records"]
    for record in records:
        record.pop("wall_time")
    return records


def test_workload_is_run_experiment_with_workload_defaults(tmp_path, capsys):
    """One grid sits behind both names: ``workload`` is ``run-experiment``
    with rewiring, the workload metric set and a metric-named table."""
    from repro.workloads import WORKLOAD_METRICS

    scenarios = ["--scenario", "none", "--scenario", "hub_degree:0.1"]
    workload_json = tmp_path / "workload.json"
    grid_json = tmp_path / "grid.json"
    common = ["--topology", "hot_small", "-d", "1", *scenarios]
    assert main(["workload", *common, "--json", str(workload_json)]) == 0
    workload_out = capsys.readouterr().out
    assert (
        main(
            [
                "run-experiment",
                *common,
                "--method", "rewiring",
                "--metrics", ",".join(WORKLOAD_METRICS),
                "--json", str(grid_json),
            ]
        )
        == 0
    )
    grid_out = capsys.readouterr().out
    assert _records_without_timing(workload_json) == _records_without_timing(grid_json)
    assert workload_out.startswith("Workload: 4 runs")
    assert grid_out.startswith("Experiment: 4 runs")
    header = workload_out.splitlines()[1]
    assert "scenario" in header and "max_edge_load" in header and "time_s" in header
    # the workload metrics hold no paper scalar: no per-method comparison
    assert "Scalar metrics on" not in workload_out + grid_out


def test_scenario_grid_prints_no_comparison_table(capsys):
    """A comparison of one column per method against the intact original
    needs a grid of at most one scenario; a larger grid prints its grid
    table only, instead of failing on the comparison."""
    argv = ["run-experiment", "--topology", "hot_small", "--method", "rewiring", "-d", "1"]
    assert main([*argv, "--scenario", "none", "--scenario", "hub_degree:0.1"]) == 0
    output = capsys.readouterr().out
    assert "hub_degree:0.1" in output and "kbar" in output
    assert "Scalar metrics on" not in output
    assert main([*argv, "--scenario", "hub_degree:0.1"]) == 0
    assert "Scalar metrics on hot_small" in capsys.readouterr().out


def test_matching_shortfall_is_reported_on_stderr(tmp_path, capsys):
    from repro.core.extraction import dk_distribution
    from repro.topologies.hot import synthetic_hot_topology

    jdd_path = tmp_path / "hot939.jdd"
    write_jdd(dk_distribution(synthetic_hot_topology(939, rng=20060911), 2).counts, jdd_path)
    out = tmp_path / "out.edges"
    argv = ["--jdd", str(jdd_path), "--method", "matching", "-o", str(out)]
    # the JDD file lists its degree pairs sorted, so the seeded placements
    # differ from the in-memory JDD's: seed 3 leaves 1 of 1,026 edges out
    assert dkgen_main([*argv, "--seed", "3"]) == 0
    assert read_edge_list(out).number_of_edges == 1025
    err = capsys.readouterr().err
    assert "WARNING: the matching construction placed 1 edge(s) fewer" in err
    assert dkgen_main([*argv, "--seed", "0"]) == 0
    assert read_edge_list(out).number_of_edges == 1026
    assert "WARNING" not in capsys.readouterr().err


def test_closed_stdout_ends_the_output_quietly(tmp_path):
    """With unbuffered output, a reader that has already closed the pipe
    (``repro cache info --json | grep -q ...`` once grep has matched) makes
    the CLI's ``print`` raise ``BrokenPipeError``; the command must still
    exit 0 without a traceback."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")))
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cache", "info"]
            + ["--store", str(tmp_path), "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    stderr = proc.stderr.decode()
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
