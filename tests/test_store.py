"""Tests for the content-addressed ArtifactStore, cache keys and memo facades."""

import json

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.generators.registry import get_generator
from repro.measure.plan import MeasurementPlan
from repro.metrics.summary import summarize
from repro.store import (
    ArtifactStore,
    generation_key,
    graph_content_hash,
    memoized_build,
    memoized_measure,
    metric_key,
    stable_hash,
)
from repro.store.keys import code_version


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# --------------------------------------------------------------------------- #
# Keys
# --------------------------------------------------------------------------- #
def test_stable_hash_ignores_dict_order_and_numpy_types():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
    assert stable_hash({"a": np.int64(1)}) == stable_hash({"a": 1})
    assert stable_hash({"a": (1, 2)}) == stable_hash({"a": [1, 2]})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_stable_hash_accepts_exotic_option_values():
    # anything a spec can carry eagerly must be hashable for the store
    assert stable_hash({"a": np.array([1, 2])}) == stable_hash({"a": [1, 2]})
    assert stable_hash({"a": {3, 1, 2}}) == stable_hash({"a": {2, 1, 3}})
    assert stable_hash({"a": object()}) is not None  # repr fallback


def test_generation_key_covers_every_coordinate():
    base = generation_key("rewiring", {"multiplier": 10.0}, 7, "abc", d=2)
    assert generation_key("rewiring", {"multiplier": 10.0}, 7, "abc", d=2) == base
    assert generation_key("matching", {"multiplier": 10.0}, 7, "abc", d=2) != base
    assert generation_key("rewiring", {"multiplier": 5.0}, 7, "abc", d=2) != base
    assert generation_key("rewiring", {"multiplier": 10.0}, 8, "abc", d=2) != base
    assert generation_key("rewiring", {"multiplier": 10.0}, 7, "xyz", d=2) != base
    assert generation_key("rewiring", {"multiplier": 10.0}, 7, "abc", d=3) != base
    assert generation_key("rewiring", {"multiplier": 10.0}, 7, "abc", d=2, version="v0") != base


def test_metric_key_depends_on_graph_and_params():
    base = metric_key("abc", "scalar_summary", {"compute_spectrum": False})
    assert metric_key("abc", "scalar_summary", {"compute_spectrum": False}) == base
    assert metric_key("xyz", "scalar_summary", {"compute_spectrum": False}) != base
    assert metric_key("abc", "scalar_summary", {"compute_spectrum": True}) != base
    assert metric_key("abc", "other", {"compute_spectrum": False}) != base


# --------------------------------------------------------------------------- #
# Graph / metric / cell entries
# --------------------------------------------------------------------------- #
def test_graph_put_get_roundtrip(store, small_mixed_graph):
    key = "ab" + "0" * 62
    assert not store.has_biggraph(key)
    assert store.get_graph(key) is None
    store.put_graph(key, small_mixed_graph, metadata={"method": "test"})
    assert store.has_biggraph(key)
    graph, manifest = store.get_graph(key)
    assert graph == small_mixed_graph
    assert manifest["metadata"]["method"] == "test"
    # idempotent: re-putting an existing key is a no-op
    store.put_graph(key, small_mixed_graph)


def test_metric_and_cell_roundtrip(store):
    assert store.get_metric("aa11") is None
    store.put_metric("aa11", {"value": {"nodes": 3}})
    assert store.get_metric("aa11") == {"value": {"nodes": 3}}
    assert store.get_cell("bb22") is None
    store.put_cell("bb22", {"row": {"nodes": 3}})
    assert store.get_cell("bb22") == {"row": {"nodes": 3}}


def test_info_counts_entries(store, triangle_graph):
    info = store.info_dict()
    assert (info["biggraphs"], info["metrics"], info["cells"]) == (0, 0, 0)
    store.put_graph("cc" + "0" * 62, triangle_graph)
    store.put_metric("dd33", {"value": 1})
    store.put_cell("ee44", {"row": {}})
    info = store.info_dict()
    assert (info["biggraphs"], info["metrics"], info["cells"]) == (1, 1, 1)
    assert info["total_bytes"] > 0


def test_clear_removes_everything(store, triangle_graph):
    store.put_graph("cc" + "0" * 62, triangle_graph)
    store.put_metric("dd33", {"value": 1})
    store.clear()
    info = store.info_dict()
    assert (info["biggraphs"], info["metrics"], info["cells"]) == (0, 0, 0)
    # the store stays usable after a clear
    store.put_metric("dd33", {"value": 1})
    assert store.get_metric("dd33") == {"value": 1}


def test_schema_mismatch_detected(tmp_path):
    root = tmp_path / "store"
    ArtifactStore(root)
    marker = root / "store.json"
    marker.write_text(json.dumps({"schema": 999}))
    with pytest.raises(StoreError, match="schema"):
        ArtifactStore(root)


def test_coerce(tmp_path, store):
    with pytest.raises(TypeError):
        ArtifactStore.coerce(None)
    assert ArtifactStore.coerce(store) is store
    coerced = ArtifactStore.coerce(tmp_path / "other")
    assert isinstance(coerced, ArtifactStore)


def test_torn_json_entry_is_a_miss(store):
    store.put_metric("aa11", {"value": 1})
    store._json_path("metrics", "aa11").write_text("{truncated")
    assert store.get_metric("aa11") is None


def test_corrupt_graph_payload_is_a_miss(store, triangle_graph):
    key = "aa" + "0" * 62
    store.put_graph(key, triangle_graph)
    payload = store.biggraph_path(key) / "indices.bin"
    # valid gzip magic, corrupt body: decompression raises deep inside
    payload.write_bytes(b"\x1f\x8b" + b"garbage")
    assert store.get_graph(key) is None
    # a well-formed gzip stream of the wrong length is a miss too
    import gzip

    payload.write_bytes(gzip.compress(b"\x00" * 4))
    assert store.get_graph(key) is None


def test_wipe_resets_a_schema_mismatched_store(tmp_path, triangle_graph):
    root = tmp_path / "store"
    ArtifactStore(root).put_graph("aa" + "0" * 62, triangle_graph)
    (root / "store.json").write_text(json.dumps({"schema": 999}))
    with pytest.raises(StoreError):
        ArtifactStore(root)
    ArtifactStore.wipe(root)
    reopened = ArtifactStore(root)  # fresh marker, empty store
    assert reopened.info_dict()["biggraphs"] == 0


# --------------------------------------------------------------------------- #
# Garbage collection
# --------------------------------------------------------------------------- #
def test_gc_drops_stale_versions_orphans_and_temporaries(store, triangle_graph):
    graph_key = "aa" + "0" * 62
    store.put_graph(graph_key, triangle_graph, metadata={"code_version": code_version()})
    store.put_metric("bb11", {"code_version": code_version(), "value": 1})
    store.put_cell("cc22", {"code_version": code_version(), "graph_key": graph_key, "row": {}})
    # stale entries from a different code version
    store.put_metric("dd33", {"code_version": "old", "value": 1})
    # a cell pointing at a graph that no longer exists
    store.put_cell("ee44", {"code_version": code_version(), "graph_key": "ff" + "0" * 62, "row": {}})
    # an old temporary left behind by a killed writer ...
    import os

    tmp = store._json_path("metrics", "aa11").parent / ".leftover.json.1.2.tmp"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text("{}")
    stale_mtime = 10  # far older than GC_TMP_AGE_SECONDS
    os.utime(tmp, (stale_mtime, stale_mtime))
    # ... and a fresh one that may belong to a live writer: left alone
    fresh = tmp.with_name(".live.json.3.4.tmp")
    fresh.write_text("{}")

    removed = store.gc()
    assert removed == {"biggraphs": 0, "metrics": 1, "cells": 1, "tmp": 1}
    assert fresh.exists() and not tmp.exists()
    # the live entries survived
    assert store.get_graph(graph_key) is not None
    assert store.get_metric("bb11") is not None
    assert store.get_cell("cc22") is not None
    assert store.get_metric("dd33") is None
    assert store.get_cell("ee44") is None


def test_gc_leaves_a_live_graph_temporary_alone(store, triangle_graph):
    key = "aa" + "0" * 62
    store.put_graph(key, triangle_graph, metadata={"code_version": code_version()})
    # a writer mid-way through an artifact: its directory has no meta.json yet
    live = store.biggraph_path(key).parent / f".{key}.123.abc.tmp"
    live.mkdir()
    (live / "indptr.bin").write_bytes(b"")
    assert store.gc()["biggraphs"] == 0
    assert live.is_dir()


def test_gc_drops_graphs_from_other_code_versions(store, triangle_graph):
    store.put_graph("aa" + "0" * 62, triangle_graph, metadata={"code_version": "ancient"})
    removed = store.gc()
    assert removed["biggraphs"] == 1
    assert not store.has_biggraph("aa" + "0" * 62)


# --------------------------------------------------------------------------- #
# Memo facades
# --------------------------------------------------------------------------- #
def test_memoized_build_runs_generator_once(store, hot_small):
    spec = get_generator("rewiring")
    first = memoized_build(spec, hot_small, 2, seed=11, store=store, options={"multiplier": 2.0})
    assert first.stats["accepted_moves"] > 0
    second = memoized_build(spec, hot_small, 2, seed=11, store=store, options={"multiplier": 2.0})
    assert second.graph == first.graph
    assert second.stats == first.stats
    assert second.wall_time == first.wall_time  # the recorded original time
    # a different seed is a different artifact
    other = memoized_build(spec, hot_small, 2, seed=12, store=store, options={"multiplier": 2.0})
    assert other.graph != first.graph


#: The Table-2 battery without and with the Laplacian extremes.
TABLE2 = MeasurementPlan.table2(compute_spectrum=False).metrics
TABLE2_SPECTRUM = MeasurementPlan.table2().metrics


def test_memoized_table2_hits_cache(store, hot_small, monkeypatch):
    first = memoized_measure(hot_small, store, metrics=TABLE2)
    assert first == summarize(hot_small, compute_spectrum=False)

    import repro.store.memo as memo

    def boom(self, *args, **kwargs):
        raise AssertionError("no metric should be recomputed on a warm cache")

    monkeypatch.setattr(memo.MeasurementPlan, "run", boom)
    second = memoized_measure(hot_small, store, metrics=TABLE2)
    assert second == first
    # a widened metric set misses the cache for the new metrics only
    # (and here: the residual planner run blows up)
    with pytest.raises(AssertionError):
        memoized_measure(hot_small, store, metrics=TABLE2_SPECTRUM)


def test_memoized_table2_widening_computes_only_new_metrics(store, hot_small, monkeypatch):
    memoized_measure(hot_small, store, metrics=TABLE2)
    written = store.info_dict()["metrics"]
    assert written == 9

    import repro.store.memo as memo

    residual_runs = []
    real_run = memo.MeasurementPlan.run

    def spying_run(self, *args, **kwargs):
        residual_runs.append(self.metrics)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(memo.MeasurementPlan, "run", spying_run)
    widened = memoized_measure(hot_small, store, metrics=TABLE2_SPECTRUM)
    # only the two Laplacian extremes were computed; the other nine reused
    assert residual_runs == [("lambda_1", "lambda_n_1")]
    assert store.info_dict()["metrics"] == written + 2
    assert widened.lambda_n_1 > 0.0


def test_memoized_table2_read_false_recomputes(store, triangle_graph, monkeypatch):
    first = memoized_measure(triangle_graph, store, metrics=TABLE2)

    import repro.store.memo as memo

    residual_runs = []
    real_run = memo.MeasurementPlan.run

    def spying_run(self, *args, **kwargs):
        residual_runs.append(self.metrics)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(memo.MeasurementPlan, "run", spying_run)
    again = memoized_measure(triangle_graph, store, metrics=TABLE2, read=False)
    assert residual_runs == [TABLE2]  # every metric recomputed, none read
    assert again == first


def test_content_hash_matches_store_key_usage(hot_small):
    # the hash used by the memo layer is the one CSR content hash
    assert len(graph_content_hash(hot_small)) == 64
