"""Million-node tier tests: BigGraph artifacts, streaming builders, sharding."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from oracle import oracle_kernels

import repro.graph.mmap_io as mmap_io
from repro.kernels.biggraph import BigGraph, index_dtype


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


def test_sharded_and_unsharded_cells_identical(hot_small, tmp_path):
    from repro.experiment import ExperimentSpec, run_experiment

    def spec(**overrides):
        base = dict(
            topologies=(hot_small,),
            methods=("pseudograph",),
            d_levels=(2,),
            replicates=1,
            seed=7,
            distance_sources=30,
            include_original=True,
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    plain = run_experiment(spec(), workers=1)
    sharded = run_experiment(
        spec(shard_sources=10), workers=2, store=tmp_path / "store"
    )
    rows_plain = [record.to_row(include_timing=False) for record in plain.records]
    rows_sharded = [record.to_row(include_timing=False) for record in sharded.records]
    assert rows_plain == rows_sharded


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
