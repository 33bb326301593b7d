"""On-disk BigGraph artifacts + the streaming external-sort CSR builder.

Artifact layout (a directory)::

    meta.json     # format marker, sizes, index dtype, encoding, content hash
    indptr.bin    # little-endian int64, n + 1 values
    indices.bin   # raw:  little-endian uint32/uint64, 2m values (mmap-able)
                  # gap:  gzip of per-row delta-encoded indices (archival)

``encoding="raw"`` is the working form: :func:`load_biggraph` memory-maps
both arrays, so opening a 10^7-node graph is O(1) and kernels fault in only
the pages they touch.  ``encoding="gap"`` delta-encodes every sorted
adjacency row (first neighbor absolute, then gaps — the WebGraph trick) and
gzips the result, typically 2-4× smaller; loading decodes into plain arrays.

The **content hash** is a streamed SHA-256 over a canonical binary form
(header + int64 indptr + uint64 indices), independent of the stored dtype
and encoding.  Note this is a *different identity space* from the text-based
:func:`repro.store.serialize.graph_content_hash` — at 10^7 edges the text
canonicalization is the bottleneck the binary form exists to avoid.  The two
spaces never mix: metric store entries for a BigGraph are keyed by its
binary hash, which is just as content-stable.

:class:`CSRBuilder` turns an unordered stream of ``(u, v)`` chunks into a
canonical BigGraph without ever holding Python per-node adjacency: edges are
packed into ``u·n + v`` keys, buffered runs are sorted/deduplicated and
spilled to disk, and the runs are merged into one globally sorted unique key
stream.  Finalization doubles that stream with the ``v·n + u`` mirror arcs
and sorts once in place — arc keys sort row-major with neighbors ascending,
so the sorted array *is* the CSR ``indices`` column and ``indptr`` is a
``searchsorted`` over the row boundaries.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import StoreError
from repro.kernels.biggraph import BigGraph, index_dtype

FORMAT_NAME = "repro-biggraph"
FORMAT_VERSION = 1

_META_NAME = "meta.json"
_INDPTR_NAME = "indptr.bin"
_INDICES_NAME = "indices.bin"

#: Values hashed / copied / merged per chunk.
IO_CHUNK = 4_000_000

#: Hash chunking is finer than IO_CHUNK: the widening ``astype`` copy is the
#: only scratch the hash needs, so keep it small.
_HASH_CHUNK = 262_144


def biggraph_content_hash(indptr, indices) -> str:
    """Streamed SHA-256 of the canonical binary form (dtype-independent)."""
    n = len(indptr) - 1
    digest = hashlib.sha256()
    digest.update(f"{FORMAT_NAME} {FORMAT_VERSION} {n} {len(indices) // 2}\n".encode())
    for begin in range(0, len(indptr), _HASH_CHUNK):
        chunk = np.ascontiguousarray(indptr[begin : begin + _HASH_CHUNK], dtype="<i8")
        digest.update(chunk.data)
    for begin in range(0, len(indices), _HASH_CHUNK):
        chunk = np.ascontiguousarray(indices[begin : begin + _HASH_CHUNK]).astype("<u8")
        digest.update(chunk.data)
    return digest.hexdigest()


def write_biggraph_artifact(
    path,
    graph: BigGraph,
    *,
    encoding: str = "raw",
    metadata: dict | None = None,
) -> dict:
    """Write ``graph`` into directory ``path``; returns the meta dict.

    The directory is created; callers wanting atomic publication write to a
    temporary name and ``os.replace`` it (the artifact-store convention).
    """
    if encoding not in ("raw", "gap"):
        raise StoreError(f"unknown BigGraph encoding {encoding!r} (raw or gap)")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    indptr = np.asarray(graph.indptr, dtype="<i8")
    indptr.tofile(path / _INDPTR_NAME)
    dtype = np.dtype(index_dtype(graph.n)).newbyteorder("<")
    if encoding == "raw":
        with open(path / _INDICES_NAME, "wb") as handle:
            for begin in range(0, len(graph.indices), IO_CHUNK):
                np.asarray(graph.indices[begin : begin + IO_CHUNK]).astype(
                    dtype
                ).tofile(handle)
    else:
        deltas = _delta_encode(graph).astype(dtype)
        with gzip.GzipFile(path / _INDICES_NAME, "wb", mtime=0) as handle:
            for begin in range(0, len(deltas), IO_CHUNK):
                handle.write(deltas[begin : begin + IO_CHUNK].tobytes())
    content_hash = graph.content_hash or biggraph_content_hash(
        graph.indptr, graph.indices
    )
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "nodes": int(graph.n),
        "edges": int(graph.m),
        "index_dtype": np.dtype(index_dtype(graph.n)).name,
        "encoding": encoding,
        "content_hash": content_hash,
        "metadata": metadata or {},
    }
    tmp = path / f".{_META_NAME}.tmp"
    tmp.write_text(json.dumps(meta, sort_keys=True))
    os.replace(tmp, path / _META_NAME)
    graph.content_hash = content_hash
    return meta


def _delta_encode(graph: BigGraph):
    """Per-row deltas of the sorted adjacency (row-first values absolute)."""
    indices = np.asarray(graph.indices).astype(np.int64)
    deltas = np.empty_like(indices)
    if len(indices):
        deltas[0] = indices[0]
        np.subtract(indices[1:], indices[:-1], out=deltas[1:])
        row_starts = np.asarray(graph.indptr[:-1])[np.asarray(graph.degrees) > 0]
        deltas[row_starts] = indices[row_starts]
    return deltas


def _delta_decode(deltas, indptr, degrees):
    """Inverse of :func:`_delta_encode` (vectorized cumulative sums)."""
    values = np.cumsum(deltas.astype(np.int64))
    if len(values) == 0:
        return values
    starts = indptr[:-1]
    carry = np.where(starts > 0, values[starts - 1], 0)
    return values - np.repeat(carry, degrees)


def load_biggraph(path) -> BigGraph:
    """Open a BigGraph artifact: mmap for ``raw``, decode for ``gap``."""
    path = Path(path)
    meta_path = path / _META_NAME
    if not meta_path.is_file():
        raise StoreError(f"{path} is not a BigGraph artifact (no {_META_NAME})")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise StoreError(f"corrupt BigGraph meta at {path}: {error}") from error
    if meta.get("format") != FORMAT_NAME or meta.get("version") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported BigGraph artifact {path}: "
            f"format={meta.get('format')!r} version={meta.get('version')!r}"
        )
    n = int(meta["nodes"])
    m = int(meta["edges"])
    dtype = np.dtype(meta["index_dtype"]).newbyteorder("<")
    indptr = np.memmap(path / _INDPTR_NAME, dtype="<i8", mode="r", shape=(n + 1,))
    if meta.get("encoding") == "gap":
        with gzip.GzipFile(path / _INDICES_NAME, "rb") as handle:
            deltas = np.frombuffer(handle.read(), dtype=dtype)
        if len(deltas) != 2 * m:
            raise StoreError(f"corrupt BigGraph payload at {path}")
        degrees = np.diff(np.asarray(indptr, dtype=np.int64))
        indices = _delta_decode(deltas, np.asarray(indptr, dtype=np.int64), degrees)
        indices = indices.astype(index_dtype(n))
    else:
        indices = np.memmap(path / _INDICES_NAME, dtype=dtype, mode="r", shape=(2 * m,))
    return BigGraph(
        indptr,
        indices,
        content_hash=meta.get("content_hash"),
        path=str(path),
        meta=meta.get("metadata", {}),
    )


class CSRBuilder:
    """Streaming builder: unordered ``(u, v)`` chunks → canonical BigGraph.

    Self-loops are dropped and duplicate edges collapse, mirroring the
    semantics of ``SimpleGraph.add_edge`` based generators.  When the
    buffered key count exceeds ``spill_threshold`` a sorted, deduplicated
    run is spilled to disk, so peak memory is bounded regardless of the
    stream length; :meth:`finalize` merges the runs and fills the CSR
    arrays in two vectorized passes.
    """

    def __init__(
        self,
        n: int,
        *,
        spill_threshold: int = 16_000_000,
        spill_dir=None,
    ):
        if n < 1:
            raise ValueError("CSRBuilder needs at least one node")
        self.n = int(n)
        self.spill_threshold = int(spill_threshold)
        self._spill_dir = spill_dir
        self._buffers: list = []
        self._buffered = 0
        self._runs: list[Path] = []
        self._tmpdir = None
        #: raw (u, v) pairs offered, before loop-drop / dedup
        self.offered = 0
        self.self_loops = 0

    def add_edges(self, u, v) -> None:
        """Add one chunk of endpoints (array-likes of equal length)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if len(u) != len(v):
            raise ValueError("endpoint arrays must have equal length")
        if len(u) == 0:
            return
        if int(u.max()) >= self.n or int(v.max()) >= self.n or int(min(u.min(), v.min())) < 0:
            raise ValueError(f"edge endpoint out of range for n={self.n}")
        self.offered += len(u)
        keep = u != v
        self.self_loops += int(len(u) - keep.sum())
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        keys = lo * self.n + hi
        self._buffers.append(keys)
        self._buffered += len(keys)
        if self._buffered >= self.spill_threshold:
            self._spill()

    def _sorted_buffer(self):
        keys = np.concatenate(self._buffers)
        self._buffers = []
        self._buffered = 0
        keys.sort()
        if len(keys):  # in-place sort + mask dedup: no np.unique flatten/copy
            keep = np.empty(len(keys), dtype=bool)
            keep[0] = True
            np.not_equal(keys[1:], keys[:-1], out=keep[1:])
            keys = keys[keep]
        return keys

    def _spill(self) -> None:
        if not self._buffers:
            return
        if self._tmpdir is None:
            self._tmpdir = tempfile.mkdtemp(
                prefix="csrbuild-", dir=None if self._spill_dir is None else str(self._spill_dir)
            )
        keys = self._sorted_buffer()
        run = Path(self._tmpdir) / f"run-{len(self._runs):04d}.bin"
        keys.astype("<i8").tofile(run)
        self._runs.append(run)

    def _merged_keys(self):
        """All canonical edge keys, globally sorted and unique."""
        if not self._runs:
            if not self._buffers:
                return np.empty(0, dtype=np.int64)
            return self._sorted_buffer()
        self._spill()  # flush the tail buffer as a final run
        runs = [np.memmap(run, dtype="<i8", mode="r") for run in self._runs]
        pieces = []
        cursors = [0] * len(runs)
        last = -1
        while True:
            active = [i for i, run in enumerate(runs) if cursors[i] < len(run)]
            if not active:
                break
            # bound: smallest per-run block maximum — everything <= bound can
            # be emitted now, because every run is sorted
            bound = min(
                int(runs[i][min(cursors[i] + IO_CHUNK, len(runs[i])) - 1]) for i in active
            )
            gathered = []
            for i in active:
                run = runs[i]
                stop = int(np.searchsorted(run[cursors[i] :], bound, side="right")) + cursors[i]
                if stop > cursors[i]:
                    gathered.append(np.asarray(run[cursors[i] : stop], dtype=np.int64))
                    cursors[i] = stop
            block = np.unique(np.concatenate(gathered))
            if last >= 0:
                block = block[block > last]  # dedup against the previous block
            if len(block):
                last = int(block[-1])
                pieces.append(block)
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)

    def _cleanup(self) -> None:
        import shutil

        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None
        self._runs = []

    def finalize(self, path=None, *, encoding: str = "raw", metadata: dict | None = None) -> BigGraph:
        """Build the BigGraph; optionally persist it at ``path`` immediately.

        The merged keys are the ``u→v`` arcs already in final CSR order
        (row-major, neighbors ascending within a row), so one in-place sort
        of the doubled arc array — the keys plus their ``v·n + u`` mirrors —
        yields the whole adjacency at once, and the row offsets fall out of
        a ``searchsorted`` against the row boundaries.  Peak scratch is the
        arc array itself (~4 int64 words per edge); no per-row cursors, no
        argsort, no bincount passes.
        """
        try:
            keys = self._merged_keys()
            m = len(keys)
            arcs = np.empty(2 * m, dtype=np.int64)
            arcs[:m] = keys
            mirror = arcs[m:]
            np.mod(keys, self.n, out=mirror)  # v
            mirror *= self.n
            np.floor_divide(keys, self.n, out=keys)  # keys -> u, in place
            mirror += keys  # v·n + u
            del mirror, keys
            arcs.sort()
            indptr = np.empty(self.n + 1, dtype=np.int64)
            indptr[0] = 0
            bounds = np.arange(1, self.n + 1, dtype=np.int64)
            bounds *= self.n
            indptr[1:] = arcs.searchsorted(bounds)  # arcs < (r+1)·n ⟺ row ≤ r
            del bounds
            np.mod(arcs, self.n, out=arcs)  # arc -> neighbor column
            indices = arcs.astype(index_dtype(self.n))
            del arcs
            graph = BigGraph(indptr, indices)
            graph.content_hash = biggraph_content_hash(indptr, indices)
            if path is not None:
                write_biggraph_artifact(path, graph, encoding=encoding, metadata=metadata)
                if encoding == "raw":
                    graph = load_biggraph(path)  # swap to the mmap-backed form
            return graph
        finally:
            self._cleanup()


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "IO_CHUNK",
    "CSRBuilder",
    "biggraph_content_hash",
    "load_biggraph",
    "write_biggraph_artifact",
]
