"""The benchmark ledger merges rows by bench name instead of overwriting."""

from __future__ import annotations

import json

import pytest

from benchmarks import _common


@pytest.fixture
def session_rows(monkeypatch):
    rows: list[dict] = []
    monkeypatch.setattr(_common, "_RESULTS", rows)
    monkeypatch.setattr(_common, "FULL_SCALE", True)
    return rows


def read(path):
    return json.loads(path.read_text())


def test_partial_run_keeps_the_other_rows(tmp_path, session_rows):
    ledger = tmp_path / "BENCH_results.json"
    ledger.write_text(json.dumps({
        "schema": 1,
        "full_scale": True,
        "results": [
            {"bench": "a", "wall_time": 1.0, "n": 10, "m": 20},
            {"bench": "b", "wall_time": 2.0, "n": 10, "m": 20},
        ],
    }))
    _common.record_result("b", 0.5, n=10, m=20)
    _common.record_result("c", 3.0, n=30, m=40)
    assert _common.write_results(ledger) == ledger
    document = read(ledger)
    assert document["full_scale"] is True
    assert [(row["bench"], row["wall_time"]) for row in document["results"]] == [
        ("a", 1.0), ("b", 0.5), ("c", 3.0),
    ]


def test_small_scale_rows_clear_the_full_scale_flag(tmp_path, session_rows, monkeypatch):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"schema": 1, "full_scale": True, "results": []}))
    monkeypatch.setattr(_common, "FULL_SCALE", False)
    _common.record_result("small", 0.1)
    _common.write_results(ledger)
    assert read(ledger)["full_scale"] is False


def test_missing_or_corrupt_ledger_starts_fresh(tmp_path, session_rows):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    _common.record_result("only", 1.0)
    for target in (corrupt, tmp_path / "absent.json"):
        _common.write_results(target)
        assert [row["bench"] for row in read(target)["results"]] == ["only"]


def test_empty_session_writes_nothing(tmp_path, session_rows):
    assert _common.write_results(tmp_path / "ledger.json") is None
    assert not (tmp_path / "ledger.json").exists()


class _Benchmark:
    """The slice of pytest-benchmark's fixture that ``run_once`` uses."""

    name = "test_fig"

    def pedantic(self, func, args, kwargs, rounds, iterations):
        return func(*args, **kwargs)


def test_run_once_records_the_input_size_behind_a_tuple(session_rows, triangle_graph):
    """A bench returning plain tables, like Fig 3's ``(rows, distances)``,
    records the size of the graph it was given."""
    _common.run_once(_Benchmark(), lambda graph: ([["0K", 1.0]], {0: 2.0}), triangle_graph)
    assert [(row["bench"], row["n"], row["m"]) for row in session_rows] == [("test_fig", 3, 3)]
