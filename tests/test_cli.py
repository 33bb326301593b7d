"""Tests for the ``repro`` command-line front-end."""

import json

import pytest

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
