"""The million-node tier: compact immutable CSR graphs + out-of-core kernels.

A :class:`BigGraph` is an immutable graph stored as two flat CSR arrays —
``indptr`` (int64, ``n + 1`` entries) and ``indices`` (uint32 when
``n < 2^32``, uint64 otherwise, ``2m`` entries, every row sorted ascending).
The arrays may be plain ndarrays or ``numpy.memmap`` views of an on-disk
artifact (see :mod:`repro.graph.mmap_io`), so a 10^7-node topology costs a
couple of hundred MB of *address space* and only the pages a kernel touches.

The class deliberately duck-types two existing surfaces at once:

* the **CSR kernel surface** (``n``/``m``/``indptr``/``indices``/``degrees``)
  shared with the :class:`~repro.kernels.csr.CSRGraph` snapshot of a
  SimpleGraph, and
* the **read-only SimpleGraph surface** (``number_of_nodes``, ``degree``,
  ``nodes``, ``average_degree``, ``_measure_cache`` …) consumed by the
  measurement planner and the shared metric formulas.

The chunked kernels below are the library's metric kernels.  They accept a
BigGraph *or* a SimpleGraph (via its cached CSR snapshot) — one compressed
representation behind every query — and produce exact integer aggregates:
histogram counts, triangle counts and moment sums are order-independent
integers, so every Table-2 scalar derived from them by the shared formula
layer is bit-identical across the two graph types (and to the pure-Python
reference kernels the test suite keeps as its oracle).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.bfs import histogram_from_csr

#: Arc positions processed per vectorized batch by the chunked kernels.
ARC_CHUNK = 4_000_000

#: Candidate (edge, third-vertex) pairs evaluated per triangle batch.
TRIANGLE_CANDIDATE_BUDGET = 8_000_000


def index_dtype(n: int):
    """Minimal unsigned dtype able to hold node ids below ``n``."""
    return np.uint32 if n < 2**32 else np.uint64


class BigGraph:
    """Immutable CSR graph for the 10^6–10^7 node regime.

    Construct via :meth:`from_arrays` (trusted, canonical CSR input),
    :meth:`from_simple_graph`, the streaming :class:`~repro.graph.mmap_io.
    CSRBuilder`, or :meth:`load` (memory-mapped from an on-disk artifact).
    """

    is_biggraph = True

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "degrees",
        "content_hash",
        "path",
        "source_path",
        "derived",
        "meta",
        "_measure_cache",
    )

    def __init__(
        self,
        indptr,
        indices,
        *,
        content_hash: str | None = None,
        path: str | None = None,
        source_path: str | None = None,
        derived: str | None = None,
        meta: dict | None = None,
    ):
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1
        self.m = len(indices) // 2
        self.degrees = np.asarray(np.diff(indptr), dtype=np.int64)
        self.content_hash = content_hash
        #: directory this graph was mapped from (None for in-memory graphs)
        self.path = path
        #: for derived graphs (e.g. a giant component): the artifact of the
        #: graph it was derived from, letting worker processes re-derive it
        self.source_path = source_path
        self.derived = derived
        self.meta = dict(meta or {})
        self._measure_cache = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(cls, indptr, indices, **kwargs) -> "BigGraph":
        """Trusted constructor: canonical CSR arrays (rows sorted, no loops)."""
        indptr = np.asarray(indptr, dtype=np.int64)
        n = len(indptr) - 1
        indices = np.asarray(indices, dtype=index_dtype(n))
        return cls(indptr, indices, **kwargs)

    @classmethod
    def from_simple_graph(cls, graph) -> "BigGraph":
        """Snapshot a :class:`SimpleGraph` (test/interop path, not streaming)."""
        from repro.kernels.csr import csr_graph

        csr = csr_graph(graph)
        return cls.from_arrays(csr.indptr, csr.indices)

    @classmethod
    def load(cls, path) -> "BigGraph":
        """Memory-map a BigGraph artifact directory (see ``mmap_io``)."""
        from repro.graph.mmap_io import load_biggraph

        return load_biggraph(path)

    def save(self, path, *, encoding: str = "raw", metadata: dict | None = None) -> dict:
        """Write this graph as an artifact directory; returns the meta dict."""
        from repro.graph.mmap_io import write_biggraph_artifact

        return write_biggraph_artifact(path, self, encoding=encoding, metadata=metadata)

    # ------------------------------------------------------------------ #
    # SimpleGraph-compatible read surface
    # ------------------------------------------------------------------ #
    @property
    def number_of_nodes(self) -> int:
        return self.n

    @property
    def number_of_edges(self) -> int:
        return self.m

    def average_degree(self) -> float:
        """Average node degree ``2m / n`` (0 for the empty graph)."""
        if self.n == 0:
            return 0.0
        return 2.0 * self.m / self.n

    def degree(self, node: int) -> int:
        return int(self.degrees[node])

    def nodes(self) -> range:
        return range(self.n)

    def neighbors(self, node: int):
        """The (sorted) neighbor ids of ``node`` as an array view."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and int(row[pos]) == v

    def iter_edge_chunks(self, chunk: int = ARC_CHUNK):
        """Yield canonical ``(u, v)`` edge chunks (``u < v``), ascending."""
        for begin in range(0, len(self.indices), chunk):
            end = min(begin + chunk, len(self.indices))
            rows = _arc_rows(self, begin, end)
            neigh = self.indices[begin:end].astype(np.int64)
            mask = neigh > rows
            yield rows[mask], neigh[mask]

    def edges(self):
        """Iterator of canonical ``(u, v)`` tuples — small graphs only."""
        for us, vs in self.iter_edge_chunks():
            for u, v in zip(us.tolist(), vs.tolist()):
                yield (u, v)

    def to_simple_graph(self):
        """Materialize as a :class:`SimpleGraph` (small graphs only)."""
        from repro.graph.simple_graph import SimpleGraph

        edge_u: list[int] = []
        edge_v: list[int] = []
        for us, vs in self.iter_edge_chunks():
            edge_u.extend(us.tolist())
            edge_v.extend(vs.tolist())
        return SimpleGraph.from_flat_edges(self.n, edge_u, edge_v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        origin = f", path={self.path!r}" if self.path else ""
        return f"BigGraph(n={self.n}, m={self.m}{origin})"


# ---------------------------------------------------------------------- #
# shared view helpers
# ---------------------------------------------------------------------- #
def _view(graph):
    """A CSR-attribute view of ``graph`` (itself for BigGraph)."""
    if getattr(graph, "is_biggraph", False):
        return graph
    from repro.kernels.csr import csr_graph

    return csr_graph(graph)


def _arc_rows(view, begin: int, end: int):
    """Row (origin node) of every arc position in ``[begin, end)``."""
    positions = np.arange(begin, end, dtype=np.int64)
    return np.searchsorted(view.indptr, positions, side="right").astype(np.int64) - 1


# ---------------------------------------------------------------------- #
# metric kernels
# ---------------------------------------------------------------------- #
def bfs_histogram(graph, source_nodes: Sequence[int]) -> dict[int, int]:
    """Distance-pair histogram over ``source_nodes`` (bit-parallel BFS)."""
    return histogram_from_csr(_view(graph), source_nodes)


def bfs_sweep(
    graph,
    source_nodes: Sequence[int],
    want_betweenness: bool,
    want_edge_load: bool = False,
) -> tuple[dict[int, int], list[float] | None, list[float] | None]:
    """One sweep over ``source_nodes``: ``(histogram, centrality, edge load)``.

    Without betweenness or edge load this is the bit-parallel histogram BFS;
    otherwise the batched Brandes kernel, whose forward pass yields the same
    histogram, so a combined distance+betweenness request is one traversal.
    ``edge_load`` is the raw per-edge accumulation in sorted canonical edge
    order (``None`` unless ``want_edge_load``).
    """
    view = _view(graph)
    if not want_betweenness and not want_edge_load:
        return histogram_from_csr(view, source_nodes), None, None
    from repro.kernels.betweenness import brandes_sweep

    return brandes_sweep(view, source_nodes, want_edge_load)


def edge_degree_moments(graph) -> tuple[int, int, int]:
    """``(Σ k_u·k_v, Σ (k_u+k_v), Σ (k_u²+k_v²))``, chunked over the arcs."""
    view = _view(graph)
    sum_prod = sum_ends = sum_ends_sq = 0
    total = len(view.indices)
    for begin in range(0, total, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, total)
        rows = _arc_rows(view, begin, end)
        neigh = view.indices[begin:end].astype(np.int64)
        mask = neigh > rows  # canonical arcs only: each edge counted once
        ku = view.degrees[rows[mask]]
        kv = view.degrees[neigh[mask]]
        sum_prod += int(np.sum(ku * kv))
        sum_ends += int(np.sum(ku) + np.sum(kv))
        sum_ends_sq += int(np.sum(ku * ku) + np.sum(kv * kv))
    return sum_prod, sum_ends, sum_ends_sq


def _edge_chunks(graph):
    """Canonical ``(u, v)`` edge chunks in the order of ``graph.edges()``."""
    if getattr(graph, "is_biggraph", False):
        yield from graph.iter_edge_chunks()
        return
    edges = np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
    for begin in range(0, len(edges), ARC_CHUNK):
        chunk = edges[begin : begin + ARC_CHUNK]
        yield chunk[:, 0], chunk[:, 1]


def jdd_counts(graph) -> tuple[dict[tuple[int, int], int], int]:
    """JDD edge counts keyed by sorted degree pair, plus zero-degree nodes.

    Degree pairs are listed in the order they first occur along
    ``graph.edges()`` (a SimpleGraph's edge list, a BigGraph's ascending
    canonical edges).  The JDD-input generators (pseudograph, matching,
    rescaling) consume the pairs in this order, so it is part of their
    seeded output.
    """
    view = _view(graph)
    zero_degree = int(np.count_nonzero(view.degrees == 0)) if view.n else 0
    if view.m == 0:
        return {}, zero_degree
    base = int(view.degrees.max()) + 1
    merged: dict[int, int] = {}
    for us, vs in _edge_chunks(graph):
        ku = view.degrees[us]
        kv = view.degrees[vs]
        packed, first, counts = np.unique(
            np.minimum(ku, kv) * base + np.maximum(ku, kv),
            return_index=True,
            return_counts=True,
        )
        order = np.argsort(first)
        for key, count in zip(packed[order].tolist(), counts[order].tolist()):
            merged[key] = merged.get(key, 0) + count
    return {(key // base, key % base): count for key, count in merged.items()}, zero_degree


def second_order_total(graph) -> int:
    """``Σ_v [(Σ_{u∈N(v)} k_u)² − Σ_{u∈N(v)} k_u²]``, chunked by node block."""
    view = _view(graph)
    if view.m == 0:
        return 0
    total = 0
    n = view.n
    # pick node blocks whose arc span stays near ARC_CHUNK
    block = max(1, int(n * ARC_CHUNK / max(len(view.indices), 1)))
    for begin in range(0, n, block):
        end = min(begin + block, n)
        lo, hi = int(view.indptr[begin]), int(view.indptr[end])
        if lo == hi:
            continue
        neighbor_degrees = view.degrees[view.indices[lo:hi].astype(np.int64)]
        local_indptr = view.indptr[begin : end + 1] - lo
        cumulative = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(neighbor_degrees, out=cumulative[1:])
        row_sums = cumulative[local_indptr[1:]] - cumulative[local_indptr[:-1]]
        np.cumsum(neighbor_degrees * neighbor_degrees, out=cumulative[1:])
        row_sq_sums = cumulative[local_indptr[1:]] - cumulative[local_indptr[:-1]]
        total += int(np.sum(row_sums * row_sums - row_sq_sums))
    return total


def triangles_per_node(graph):
    """Exact per-node triangle counts via chunked sorted-key intersection.

    Nodes are ranked by ``(degree, id)`` and every edge is oriented towards
    its higher-ranked end, which keeps out-rows short even at hubs (the
    edge-iterator bound of O(m^1.5) candidates).  For every oriented edge
    ``u → v`` the third-vertex candidates are the out-neighbors of ``u``
    ranked beyond ``v``; membership ``v → w`` is one vectorized
    ``searchsorted`` against the sorted packed keys ``rank_u·n + rank_v``.
    Each triangle is found exactly once, from its lowest-ranked corner.
    """
    view = _view(graph)
    n = view.n
    if view.m == 0:
        return [0] * n
    order = np.argsort(view.degrees, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    # sorted keys of the oriented edges; rank r's out-row is [r·n, (r+1)·n)
    keys = np.empty(view.m, dtype=np.int64)
    filled = 0
    for begin in range(0, len(view.indices), ARC_CHUNK):
        end = min(begin + ARC_CHUNK, len(view.indices))
        low = _arc_rows(view, begin, end)
        np.take(rank, low, out=low)
        high = view.indices[begin:end].astype(np.int64)
        np.take(rank, high, out=high)
        up = low < high
        low = low[up]
        low *= n
        low += high[up]
        keys[filled : filled + len(low)] = low
        filled += len(low)
    keys.sort()
    row_end = np.searchsorted(keys, np.arange(1, n + 1, dtype=np.int64) * n)

    counts = np.zeros(n, dtype=np.int64)  # indexed by rank
    for begin in range(0, view.m, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, view.m)
        positions = np.arange(begin, end, dtype=np.int64)
        u, v = np.divmod(keys[begin:end], n)
        cand_counts = row_end[u] - (positions + 1)
        cum = np.zeros(len(cand_counts) + 1, dtype=np.int64)
        np.cumsum(cand_counts, out=cum[1:])
        start = 0
        while start < len(u):
            # split so one batch's candidate buffer stays bounded
            stop = int(
                np.searchsorted(cum, cum[start] + TRIANGLE_CANDIDATE_BUDGET, side="left")
            )
            stop = max(start + 1, min(stop, len(u)))
            width = int(cum[stop] - cum[start])
            if width:
                # in-place steps: a batch holds at most four width-sized arrays
                cc = cand_counts[start:stop]
                w = np.repeat(positions[start:stop] + 1 - (cum[start:stop] - cum[start]), cc)
                w += np.arange(width, dtype=np.int64)  # candidate positions
                w = keys[w]
                np.remainder(w, n, out=w)
                edge_of = np.repeat(np.arange(start, stop, dtype=np.int64), cc)
                wanted = v[edge_of]
                wanted *= n
                wanted += w
                found = np.searchsorted(keys, wanted)
                np.minimum(found, len(keys) - 1, out=found)
                np.take(keys, found, out=found)
                hit = found == wanted
                del found, wanted
                edge_of = edge_of[hit]
                counts += np.bincount(
                    np.concatenate((u[edge_of], v[edge_of], w[hit])), minlength=n
                )
            start = stop
    return counts[rank].tolist()


# ---------------------------------------------------------------------- #
# giant component
# ---------------------------------------------------------------------- #
def _component_labels(view):
    """Component label per node (labels are arbitrary but consistent)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    matrix = csr_matrix(
        (
            np.ones(len(view.indices), dtype=np.int8),
            np.asarray(view.indices),
            np.asarray(view.indptr),
        ),
        shape=(view.n, view.n),
    )
    _, labels = connected_components(matrix, directed=False)
    return np.asarray(labels, dtype=np.int64)


def biggraph_giant_component(graph: BigGraph) -> BigGraph:
    """The giant connected component of ``graph``, relabelled ascending.

    Ties are broken exactly like :func:`repro.graph.components.
    giant_component`: among maximum-size components the one discovered first
    by ascending-start BFS wins — i.e. the one containing the smallest node
    id — and member ids are relabelled in ascending order.
    """
    if graph.n == 0:
        return graph
    labels = _component_labels(graph)
    sizes = np.bincount(labels)
    best_size = int(sizes.max())
    if best_size == graph.n:
        return graph
    # first-seen largest: the max-size label whose first occurrence is earliest
    candidates = np.flatnonzero(sizes == best_size)
    first_seen = np.full(len(sizes), graph.n, dtype=np.int64)
    order = np.arange(graph.n - 1, -1, -1, dtype=np.int64)
    first_seen[labels[order]] = order  # later assignments (smaller ids) win
    winner = int(candidates[np.argmin(first_seen[candidates])])

    member = labels == winner
    new_ids = np.cumsum(member, dtype=np.int64) - 1
    member_nodes = np.flatnonzero(member)
    sub_degrees = graph.degrees[member_nodes]
    sub_indptr = np.zeros(len(member_nodes) + 1, dtype=np.int64)
    np.cumsum(sub_degrees, out=sub_indptr[1:])
    dtype = index_dtype(len(member_nodes))
    sub_indices = np.empty(int(sub_indptr[-1]), dtype=dtype)
    # gather member rows chunk by chunk (neighbors of members are members,
    # and the monotone relabelling keeps every row sorted)
    out = 0
    starts = graph.indptr[member_nodes]
    for block in range(0, len(member_nodes), 262_144):
        stop = min(block + 262_144, len(member_nodes))
        counts = sub_degrees[block:stop]
        width = int(counts.sum())
        if width == 0:
            continue
        offsets = np.zeros(stop - block + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        positions = np.arange(width, dtype=np.int64)
        positions += np.repeat(starts[block:stop] - offsets[:-1], counts)
        gathered = np.asarray(graph.indices)[positions].astype(np.int64)
        sub_indices[out : out + width] = new_ids[gathered].astype(dtype)
        out += width
    return BigGraph(
        sub_indptr,
        sub_indices,
        source_path=graph.path or graph.source_path,
        derived="gcc",
    )


__all__ = [
    "ARC_CHUNK",
    "BigGraph",
    "biggraph_giant_component",
    "index_dtype",
]
