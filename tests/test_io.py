"""Tests for graph and JDD file formats."""

import pytest

from repro.exceptions import GraphError
from repro.graph.io import read_edge_list, read_jdd, write_edge_list, write_jdd
from repro.graph.simple_graph import SimpleGraph


def test_edge_list_roundtrip(tmp_path, square_with_diagonal):
    path = tmp_path / "graph.txt"
    write_edge_list(square_with_diagonal, path)
    loaded = read_edge_list(path)
    assert loaded == square_with_diagonal


def test_edge_list_with_comments_and_gaps(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# comment line\n10 20\n20 30  # trailing comment\n\n10 30\n")
    graph = read_edge_list(path)
    assert graph.number_of_nodes == 3
    assert graph.number_of_edges == 3


def test_edge_list_skips_self_loops(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("1 1\n1 2\n")
    graph = read_edge_list(path)
    assert graph.number_of_edges == 1


def test_edge_list_malformed_line_raises(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("42\n")
    with pytest.raises(GraphError):
        read_edge_list(path)


def test_jdd_roundtrip(tmp_path):
    counts = {(1, 3): 4, (2, 2): 1, (2, 3): 2}
    path = tmp_path / "graph.jdd"
    write_jdd(counts, path)
    assert read_jdd(path) == counts


def test_jdd_reader_canonicalizes_and_merges(tmp_path):
    path = tmp_path / "graph.jdd"
    path.write_text("3 1 2\n1 3 1\n")
    assert read_jdd(path) == {(1, 3): 3}


def test_jdd_malformed_raises(tmp_path):
    path = tmp_path / "graph.jdd"
    path.write_text("1 2\n")
    with pytest.raises(GraphError):
        read_jdd(path)


def test_empty_graph_files(tmp_path):
    empty = SimpleGraph(0)
    edge_path = tmp_path / "empty.txt"
    write_edge_list(empty, edge_path)
    assert read_edge_list(edge_path).number_of_nodes == 0
