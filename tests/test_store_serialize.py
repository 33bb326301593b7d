"""Tests for the one on-disk graph format and the one content hash.

Every graph in the store is a CSR artifact of :mod:`repro.graph.mmap_io`
(a SimpleGraph gap-encoded, a BigGraph as given), and
:func:`graph_content_hash` is the identity of a SimpleGraph and of its
BigGraph twin alike.
"""

import json

import numpy as np
import pytest

from repro.exceptions import StoreError
from repro.graph.mmap_io import graph_content_hash, load_biggraph, write_biggraph_artifact
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.store import ArtifactStore
from repro.telemetry import counter_value
from repro.topologies.as_level import synthetic_as_topology
from repro.topologies.registry import build_topology

KEY = "ab" + "0" * 62


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _stored(store, graph, key=KEY):
    """``graph`` through ``put_graph``/``get_graph``."""
    store.put_graph(key, graph)
    restored, _entry = store.get_graph(key)
    return restored


def _reads(outcome):
    return counter_value("repro_store_reads_total", category="biggraphs", outcome=outcome)


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_roundtrip_plain_and_gzip(tmp_path, square_with_diagonal):
    big = BigGraph.from_simple_graph(square_with_diagonal)
    for encoding in ("raw", "gap"):
        write_biggraph_artifact(tmp_path / encoding, big, encoding=encoding)
        assert load_biggraph(tmp_path / encoding).to_simple_graph() == square_with_diagonal
    assert (tmp_path / "gap" / "indices.bin").read_bytes()[:2] == b"\x1f\x8b"
    assert (tmp_path / "raw" / "indices.bin").stat().st_size == 2 * 5 * 4  # uint32 arcs
    # deterministic bytes: equal graphs write equal artifacts
    twin = BigGraph.from_simple_graph(square_with_diagonal.copy())
    write_biggraph_artifact(tmp_path / "again", twin, encoding="gap")
    assert _files(tmp_path / "again") == _files(tmp_path / "gap")


def test_roundtrip_empty_graph(store):
    for n in (0, 5):
        restored = _stored(store, SimpleGraph(n), key=f"{n:02d}" + "0" * 62)
        assert restored.number_of_nodes == n
        assert restored.number_of_edges == 0


def test_isolated_nodes_survive(store):
    graph = SimpleGraph(10, edges=[(0, 1)])
    restored = _stored(store, graph)
    assert restored.number_of_nodes == 10
    assert restored.number_of_edges == 1
    assert restored == graph


def test_roundtrip_gives_ascending_edge_order(store, hot_small):
    # seeded JDD-order generators read edges() of a stored graph
    edges = list(hot_small.edges())
    np.random.default_rng(3).shuffle(edges)
    shuffled = SimpleGraph(hot_small.number_of_nodes, edges=edges)
    restored = _stored(store, shuffled)
    assert list(restored.edges()) == sorted(hot_small.edges())


def test_hash_stable_across_insertion_orderings():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    forward = SimpleGraph(4, edges=edges)
    backward = SimpleGraph(4, edges=[(v, u) for u, v in reversed(edges)])
    assert graph_content_hash(forward) == graph_content_hash(backward)
    # removing and re-adding an edge does not change the identity either
    forward.remove_edge(1, 2)
    forward.add_edge(1, 2)
    assert graph_content_hash(forward) == graph_content_hash(backward)


def test_hash_distinguishes_different_graphs(triangle_graph, path_graph):
    assert graph_content_hash(triangle_graph) != graph_content_hash(path_graph)
    # an extra isolated node changes the graph, hence the hash
    bigger = triangle_graph.copy()
    bigger.add_node()
    assert graph_content_hash(bigger) != graph_content_hash(triangle_graph)


def test_hash_follows_mutation_of_a_hashed_graph(triangle_graph):
    graph = triangle_graph.copy()
    graph.add_node()
    before = graph_content_hash(graph)
    graph.add_edge(2, 3)
    after = graph_content_hash(graph)
    assert after != before
    assert after == graph_content_hash(SimpleGraph(4, edges=[(0, 1), (1, 2), (0, 2), (2, 3)]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_topology("hot"),
        lambda: synthetic_as_topology(2600, rng=2006),
        lambda: SimpleGraph(5),
    ],
    ids=["hot939", "as2600", "edgeless5"],
)
def test_simple_and_big_graph_share_one_hash(build, store):
    graph = build()
    big = BigGraph.from_simple_graph(graph)
    assert big.content_hash is None
    assert graph_content_hash(graph) == graph_content_hash(big) == big.content_hash
    meta = store.put_graph(KEY, graph)
    assert meta["content_hash"] == graph_content_hash(graph)
    assert store.get_graph(KEY)[1]["content_hash"] == graph_content_hash(graph)


def test_self_loops_rejected(store):
    # row 2 carries a (2, 2) loop: the hash matches, but it is no simple graph
    loopy = BigGraph.from_arrays([0, 1, 2, 4], [1, 0, 2, 2])
    store.put_biggraph(KEY, loopy, encoding="gap")
    assert store.get_biggraph(KEY) is not None
    assert store.get_graph(KEY) is None


def test_malformed_payloads_rejected(store, triangle_graph):
    store.put_graph(KEY, triangle_graph)
    meta_path = store.biggraph_path(KEY) / "meta.json"
    good = json.loads(meta_path.read_text())
    for field, value in (("format", "something-else"), ("version", 99), ("edges", 2)):
        meta_path.write_text(json.dumps({**good, field: value}))
        assert store.get_graph(KEY) is None, field
    meta_path.write_text(json.dumps(good))
    assert store.get_graph(KEY)[0] == triangle_graph


def test_artifact_directory_roundtrip(tmp_path, small_mixed_graph):
    meta = write_biggraph_artifact(
        tmp_path / "artifact",
        BigGraph.from_simple_graph(small_mixed_graph),
        encoding="gap",
        metadata={"method": "test"},
    )
    assert meta["nodes"] == small_mixed_graph.number_of_nodes
    assert meta["content_hash"] == graph_content_hash(small_mixed_graph)
    loaded = load_biggraph(tmp_path / "artifact")
    assert loaded.to_simple_graph() == small_mixed_graph
    assert loaded.meta == {"method": "test"}


def test_artifact_uncompressed_flavour(tmp_path, triangle_graph):
    write_biggraph_artifact(tmp_path / "a", BigGraph.from_simple_graph(triangle_graph))
    loaded = load_biggraph(tmp_path / "a")
    assert isinstance(loaded.indices, np.memmap)  # raw arrays are mapped, not read
    assert loaded.to_simple_graph() == triangle_graph


def test_artifact_verify_detects_corruption(store, square_with_diagonal):
    # another valid graph's arrays with the same n and m: only the hash can tell
    other = SimpleGraph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    store.put_graph(KEY, square_with_diagonal)
    store.put_graph("cd" + "0" * 62, other)
    target = store.biggraph_path(KEY)
    for name in ("indptr.bin", "indices.bin"):
        (target / name).write_bytes((store.biggraph_path("cd" + "0" * 62) / name).read_bytes())
    assert store.get_biggraph(KEY) is not None  # the lazy open does not hash
    misses = _reads("miss")
    hits = _reads("hit")
    assert store.get_graph(KEY) is None
    assert (_reads("miss"), _reads("hit")) == (misses + 1, hits)  # counted a miss


def test_artifact_missing_pieces(tmp_path, store, triangle_graph):
    with pytest.raises(StoreError, match="not a BigGraph artifact"):
        load_biggraph(tmp_path / "nowhere")
    store.put_graph(KEY, triangle_graph)
    (store.biggraph_path(KEY) / "indices.bin").unlink()
    assert store.get_graph(KEY) is None
    assert store.get_biggraph(KEY) is None


def test_manifest_is_json(store, triangle_graph):
    store.put_graph(KEY, triangle_graph, metadata={"method": "test"})
    meta = json.loads((store.biggraph_path(KEY) / "meta.json").read_text())
    assert meta["format"] == "repro-biggraph"
    assert meta["encoding"] == "gap"
    assert meta["edges"] == 3
    assert meta["content_hash"] == graph_content_hash(triangle_graph)
    assert meta["metadata"] == {"method": "test"}


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncate(path, drop):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - drop])


def _half(path):
    return path.stat().st_size // 2


CORRUPTIONS = {
    "flipped_indptr_byte": lambda d: _flip(d / "indptr.bin", 8 * 75),
    "flipped_gzip_byte": lambda d: _flip(d / "indices.bin", _half(d / "indices.bin")),
    "truncated_indices": lambda d: _truncate(d / "indices.bin", _half(d / "indices.bin")),
    "truncated_indptr": lambda d: _truncate(d / "indptr.bin", 8),
    "torn_meta": lambda d: _truncate(d / "meta.json", _half(d / "meta.json")),
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS))
def test_corrupt_artifact_is_a_miss(store, hot_small, corrupt):
    store.put_graph(KEY, hot_small)
    CORRUPTIONS[corrupt](store.biggraph_path(KEY))
    assert store.get_graph(KEY) is None
