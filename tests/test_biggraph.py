"""Million-node tier tests: BigGraph artifacts, streaming builders, in-process measurement."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from oracle import oracle_kernels

import repro.graph.mmap_io as mmap_io
from repro.kernels.biggraph import BigGraph, index_dtype
from repro.metrics.summary import summarize


# --------------------------------------------------------------------------- #
# artifact round-trips
# --------------------------------------------------------------------------- #
def test_mmap_round_trip_bit_identity(hot_small, tmp_path):
    graph = BigGraph.from_simple_graph(hot_small)
    graph.content_hash = mmap_io.biggraph_content_hash(graph.indptr, graph.indices)
    meta = graph.save(tmp_path / "art")
    loaded = BigGraph.load(tmp_path / "art")

    assert loaded.n == graph.n and loaded.m == graph.m
    assert np.array_equal(np.asarray(loaded.indptr), np.asarray(graph.indptr))
    assert np.array_equal(np.asarray(loaded.indices), np.asarray(graph.indices))
    assert loaded.content_hash == graph.content_hash == meta["content_hash"]
    assert meta["index_dtype"] == "uint32"
    assert str(loaded.path) == str(tmp_path / "art")  # mmap-backed form


def test_gap_encoding_round_trip(hot_small, tmp_path):
    graph = BigGraph.from_simple_graph(hot_small)
    raw_hash = mmap_io.biggraph_content_hash(graph.indptr, graph.indices)
    meta = graph.save(tmp_path / "gap", encoding="gap")
    loaded = BigGraph.load(tmp_path / "gap")

    assert meta["encoding"] == "gap"
    assert np.array_equal(np.asarray(loaded.indptr), np.asarray(graph.indptr))
    assert np.array_equal(np.asarray(loaded.indices), np.asarray(graph.indices))
    assert loaded.content_hash == raw_hash  # encoding-independent identity


def test_index_dtype_boundary():
    assert index_dtype(2**32 - 1) == np.uint32
    assert index_dtype(2**32) == np.uint64


def test_content_hash_is_dtype_independent(hot_small):
    graph = BigGraph.from_simple_graph(hot_small)
    narrow = np.asarray(graph.indices, dtype=np.uint32)
    wide = narrow.astype(np.uint64)
    assert mmap_io.biggraph_content_hash(
        graph.indptr, narrow
    ) == mmap_io.biggraph_content_hash(graph.indptr, wide)


# --------------------------------------------------------------------------- #
# streaming builder
# --------------------------------------------------------------------------- #
def test_csrbuilder_spill_path_matches_in_memory(tmp_path):
    from repro.core.extraction import dk_distribution
    from repro.generators.streaming import streaming_pseudograph_2k
    from repro.rescaling.rescale import rescale_jdd
    from repro.topologies.hot import synthetic_hot_topology

    small = synthetic_hot_topology(200, rng=11)
    jdd = rescale_jdd(dk_distribution(small, 2), 3000, rng=np.random.default_rng(3))
    in_memory = streaming_pseudograph_2k(jdd, rng=np.random.default_rng(9))
    spilled = streaming_pseudograph_2k(
        jdd, rng=np.random.default_rng(9), spill_threshold=500, spill_dir=tmp_path
    )
    assert spilled.content_hash == in_memory.content_hash
    assert spilled.m == in_memory.m


def test_csrbuilder_drops_loops_and_collapses_duplicates():
    builder = mmap_io.CSRBuilder(4)
    builder.add_edges([0, 1, 2, 2, 3], [1, 0, 2, 3, 2])
    graph = builder.finalize()
    assert sorted(graph.edges()) == [(0, 1), (2, 3)]
    assert builder.self_loops == 1


def test_csrbuilder_collapses_duplicates_across_spilled_runs(tmp_path):
    rng = np.random.default_rng(5)
    u = rng.integers(0, 50, 400)
    v = rng.integers(0, 50, 400)
    whole = mmap_io.CSRBuilder(50)
    whole.add_edges(u, v)
    expected = whole.finalize()
    spilled = mmap_io.CSRBuilder(50, spill_threshold=100, spill_dir=tmp_path)
    for begin in range(0, 400, 100):  # every chunk spills as its own run ...
        spilled.add_edges(u[begin : begin + 100], v[begin : begin + 100])
    spilled.add_edges(v, u)  # ... and every edge recurs, mirrored, in later runs
    graph = spilled.finalize()
    assert len(spilled._runs) == 0  # runs were merged and cleaned up
    assert graph.m == expected.m
    assert graph.content_hash == expected.content_hash
    assert np.array_equal(graph.indices, expected.indices)


def test_sorted_unique_matches_np_unique():
    keys = np.random.default_rng(1).integers(0, 1000, 5000)
    assert np.array_equal(mmap_io.sorted_unique(keys.copy()), np.unique(keys))
    assert len(mmap_io.sorted_unique(np.empty(0, dtype=np.int64))) == 0


def test_edgeless_raw_artifact_loads(tmp_path):
    from repro.core.distributions import DegreeDistribution
    from repro.generators.streaming import streaming_pseudograph_1k
    from repro.graph.simple_graph import SimpleGraph
    from repro.store import ArtifactStore

    graph = BigGraph.from_simple_graph(SimpleGraph(5))
    graph.save(tmp_path / "art")
    loaded = BigGraph.load(tmp_path / "art")
    assert (loaded.n, loaded.m) == (5, 0)
    assert loaded.to_simple_graph() == SimpleGraph(5)

    store = ArtifactStore(tmp_path / "store")
    store.put_biggraph("ab" + "0" * 62, graph)
    assert store.get_biggraph("ab" + "0" * 62).n == 5

    streamed = streaming_pseudograph_1k(DegreeDistribution({0: 3}), path=tmp_path / "gen")
    assert (streamed.n, streamed.m) == (3, 0)


@pytest.mark.parametrize("method", ["pseudograph", "stochastic"])
@pytest.mark.parametrize("d", [1, 2])
def test_empty_distribution_gives_the_empty_graph(method, d, tmp_path):
    from repro.core.distributions import DegreeDistribution, JointDegreeDistribution
    from repro.generators import pseudograph, stochastic
    from repro.generators.streaming import STREAMING_GENERATORS

    empty = DegreeDistribution({}) if d == 1 else JointDegreeDistribution({})
    stream = STREAMING_GENERATORS[(method, d)]
    assert stream(empty, rng=0).n == 0
    assert stream(empty, rng=0, path=tmp_path / "art").n == 0
    assert BigGraph.load(tmp_path / "art").n == 0
    in_memory = getattr(pseudograph if method == "pseudograph" else stochastic, f"{method}_{d}k")
    assert in_memory(empty, rng=0).number_of_nodes == 0


# --------------------------------------------------------------------------- #
# measurement equivalence
# --------------------------------------------------------------------------- #
def test_table2_biggraph_matches_csr_backend(hot_small):
    from repro.measure.plan import TABLE2_CORE_METRICS, MeasurementPlan

    plan = MeasurementPlan(TABLE2_CORE_METRICS)
    with oracle_kernels():
        via_python = plan.run(hot_small.copy(), rng=np.random.default_rng(0))
    via_csr = plan.run(hot_small, rng=np.random.default_rng(0))
    via_big = plan.run(BigGraph.from_simple_graph(hot_small), rng=np.random.default_rng(0))
    for name in TABLE2_CORE_METRICS:
        assert via_big[name] == via_csr[name] == via_python[name], name


def test_summarize_biggraph_twin_with_spectrum(hot_small):
    # the spectrum reads the same CSR adjacency, so λ is bit-equal as well
    expected = summarize(hot_small)
    assert "lambda_1" in expected.as_dict()
    twin = summarize(BigGraph.from_simple_graph(hot_small))
    assert twin.as_dict() == expected.as_dict()


def test_rescale_generate_measure_end_to_end(tmp_path):
    from repro.core.extraction import dk_distribution
    from repro.generators.streaming import streaming_pseudograph_2k
    from repro.measure.plan import MeasurementPlan
    from repro.rescaling.rescale import rescale_jdd
    from repro.topologies.hot import synthetic_hot_topology

    small = synthetic_hot_topology(300, rng=5)
    target_n = 20_000
    rng = np.random.default_rng(13)
    jdd = rescale_jdd(dk_distribution(small, 2), target_n, rng=rng)
    graph = streaming_pseudograph_2k(jdd, rng=rng, path=tmp_path / "big")

    # stochastic rounding over the degree classes lands within ~1% of target
    assert graph.n == pytest.approx(target_n, rel=0.02)
    assert graph.path is not None  # measurement runs off the mmap-backed form
    plan = MeasurementPlan(
        ("nodes", "edges", "average_degree", "mean_distance"), distance_sources=16
    )
    measurement = plan.run(graph, rng=np.random.default_rng(1))
    source_degree = 2 * small.number_of_edges / small.number_of_nodes
    assert measurement["average_degree"] == pytest.approx(source_degree, rel=0.25)
    assert measurement["mean_distance"] > 0


# --------------------------------------------------------------------------- #
# store + service surface
# --------------------------------------------------------------------------- #
def test_store_info_reports_biggraph_bytes_and_service_parity(hot_small, tmp_path):
    from repro.service import ServiceConfig, ServiceThread
    from repro.service.client import ServiceClient
    from repro.store.artifact_store import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    graph = BigGraph.from_simple_graph(hot_small)
    graph.content_hash = mmap_io.biggraph_content_hash(graph.indptr, graph.indices)
    store.put_biggraph("abc123", graph)

    info = store.info_dict()
    assert info["biggraphs"] == 1
    assert info["category_bytes"]["biggraphs"] > 0

    config = ServiceConfig(port=0, store=tmp_path / "store", workers=1)
    with ServiceThread(config) as handle:

        async def fetch():
            async with ServiceClient(port=handle.port, timeout=30.0) as client:
                return await client.store_info()

        remote = asyncio.run(fetch())
    assert remote == info  # one source of truth for CLI and service
