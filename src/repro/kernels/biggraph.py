"""The million-node tier: compact immutable CSR graphs + out-of-core kernels.

A :class:`BigGraph` is an immutable graph stored as two flat CSR arrays —
``indptr`` (int64, ``n + 1`` entries) and ``indices`` (uint32 when
``n < 2^32``, uint64 otherwise, ``2m`` entries, every row sorted ascending).
The arrays may be plain ndarrays or ``numpy.memmap`` views of an on-disk
artifact (see :mod:`repro.graph.mmap_io`), so a 10^7-node topology costs a
couple of hundred MB of *address space* and only the pages a kernel touches.

It is the library's one CSR class.  Besides the kernel surface
(``n``/``m``/``indptr``/``indices``/``degrees``) it offers the read-only
SimpleGraph surface (``number_of_nodes``, ``degree``, ``nodes``,
``average_degree``, ``_measure_cache`` …) the measurement planner and the
shared metric formulas consume.  A SimpleGraph's CSR view (:func:`_view`)
is a BigGraph too, over int64 arrays cached on the SimpleGraph.

The chunked kernels below are the library's metric kernels.  They accept a
BigGraph *or* a SimpleGraph (via its cached view) — one compressed
representation behind every query — and produce exact integer aggregates:
histogram counts, triangle counts, moment sums and the JDD and 3K degree
counts are order-independent integers, so every Table-2 scalar and every
P_2 / P_3 extracted from them is bit-identical across the two graph types
(and to the pure-Python reference kernels the test suite keeps as its
oracle).
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
    A graph derived in memory, such as a giant component or a SimpleGraph's
    CSR view, has ``path=None``; every kernel measures either kind
    in-process.
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
        view = _view(graph)
        return cls.from_arrays(view.indptr, view.indices)

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
def _view(graph) -> BigGraph:
    """The CSR view of ``graph``: itself for a BigGraph.

    A SimpleGraph's view is a BigGraph over int64 arrays, built once in
    ``O(m log m)`` and cached on the graph (``_csr_cache`` slot); every
    mutation of the graph drops it.
    """
    if getattr(graph, "is_biggraph", False):
        return graph
    view = graph._csr_cache
    if view is None:
        n = graph.number_of_nodes
        edges = np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        order = np.lexsort((dst, src))  # by row, then by neighbor id
        view = graph._csr_cache = BigGraph(indptr, dst[order])
    return view


def _canonical_edges(view) -> tuple[np.ndarray, np.ndarray]:
    """Sorted canonical edges ``(u, v)``, ``u < v``, of a CSR-shaped view.

    With every row sorted, the arcs with ``neighbor > row`` in CSR order are
    exactly the canonical edges in ascending ``(u, v)`` order — the order
    the workload layer emits per-edge load vectors in.
    """
    rows = np.repeat(np.arange(view.n, dtype=np.int64), view.degrees)
    cols = np.asarray(view.indices, dtype=np.int64)
    keep = cols > rows
    return rows[keep], cols[keep]


def _arc_rows(view, begin: int, end: int):
    """Row (origin node) of every arc position in ``[begin, end)``."""
    positions = np.arange(begin, end, dtype=np.int64)
    return np.searchsorted(view.indptr, positions, side="right").astype(np.int64) - 1


# ---------------------------------------------------------------------- #
# metric kernels
# ---------------------------------------------------------------------- #
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


def _neighbor_degree_sums(view):
    """``(k, s)`` per node block: degrees and neighbor-degree row sums.

    ``s_v = Σ_{u∈N(v)} k_u`` is one sparse product of the block's adjacency
    rows with ``k``, exact in int64.  Node blocks are picked so their arc
    span stays near ``ARC_CHUNK``.  Every edge-degree moment is a node sum of
    ``k`` and ``s``, since each arc ``v → u`` adds ``k_u`` to ``s_v``.
    """
    from scipy.sparse import csr_matrix

    block = max(1, int(view.n * ARC_CHUNK / max(len(view.indices), 1)))
    for begin in range(0, view.n, block):
        end = min(begin + block, view.n)
        lo, hi = int(view.indptr[begin]), int(view.indptr[end])
        rows = csr_matrix(
            (
                np.ones(hi - lo, dtype=np.int64),
                view.indices[lo:hi],
                view.indptr[begin : end + 1] - lo,
            ),
            shape=(end - begin, view.n),
        )
        yield view.degrees[begin:end], rows @ view.degrees


def edge_degree_moments(graph) -> tuple[int, int, int]:
    """``(Σ k_u·k_v, Σ (k_u+k_v), Σ (k_u²+k_v²))`` over the edges.

    From node sums: ``½ Σ k_v·s_v``, ``Σ k²`` and ``Σ k³``.
    """
    twice_prod = sum_ends = sum_ends_sq = 0
    for k, s in _neighbor_degree_sums(_view(graph)):
        squares = k * k
        twice_prod += int(np.dot(k, s))
        sum_ends += int(np.sum(squares))
        sum_ends_sq += int(np.dot(squares, k))
    return twice_prod // 2, sum_ends, sum_ends_sq


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
    """``Σ_v [(Σ_{u∈N(v)} k_u)² − Σ_{u∈N(v)} k_u²] = Σ s_v² − Σ k³``."""
    total = 0
    for k, s in _neighbor_degree_sums(_view(graph)):
        total += int(np.dot(s, s)) - int(np.dot(k * k, k))
    return total


def _budget_spans(cum):
    """Item ranges ``[start, stop)`` whose widths sum to about
    :data:`TRIANGLE_CANDIDATE_BUDGET` (one item at least); ``cum`` holds
    the running width sums, from 0."""
    start = 0
    while start < len(cum) - 1:
        stop = int(np.searchsorted(cum, cum[start] + TRIANGLE_CANDIDATE_BUDGET, side="left"))
        stop = max(start + 1, min(stop, len(cum) - 1))
        yield start, stop
        start = stop


def _triangle_batches(view, order):
    """Every triangle of ``view`` once, as rank arrays ``(u, v, w)`` per batch.

    ``order`` lists the nodes by rank, ascending ``(degree, id)``, and every
    edge is oriented towards its higher-ranked end, which keeps out-rows
    short even at hubs (the edge-iterator bound of O(m^1.5) candidates).
    For every oriented edge ``u → v`` the third-vertex candidates are the
    out-neighbors of ``u`` ranked beyond ``v``; membership ``v → w`` is one
    vectorized ``searchsorted`` against the sorted packed keys
    ``rank_u·n + rank_v``.  Each triangle is found exactly once, from its
    lowest-ranked corner, so ``u < v < w`` and ``k_u <= k_v <= k_w``.
    """
    n = view.n
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

    for begin in range(0, view.m, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, view.m)
        positions = np.arange(begin, end, dtype=np.int64)
        u, v = np.divmod(keys[begin:end], n)
        cand_counts = row_end[u] - (positions + 1)
        cum = np.zeros(len(cand_counts) + 1, dtype=np.int64)
        np.cumsum(cand_counts, out=cum[1:])
        for start, stop in _budget_spans(cum):
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
                yield u[edge_of], v[edge_of], w[hit]


def triangles_per_node(graph):
    """Exact per-node triangle counts, from the chunked triangle enumeration."""
    view = _view(graph)
    n = view.n
    if view.m == 0:
        return [0] * n
    order = np.argsort(view.degrees, kind="stable")
    counts = np.zeros(n, dtype=np.int64)  # indexed by rank
    for u, v, w in _triangle_batches(view, order):
        counts += np.bincount(np.concatenate((u, v, w)), minlength=n)
    per_node = np.empty(n, dtype=np.int64)
    per_node[order] = counts
    return per_node.tolist()


def _sum_by_key(keys, values):
    """``(distinct keys ascending, summed values)`` in exact int64."""
    order = np.argsort(keys)
    keys = keys[order]
    if not keys.size:
        return keys, values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values[order], starts)


def threek_counts(graph):
    """``(wedges, triangles)``: the 3K counts keyed by degree triples.

    Open wedges are keyed ``(min end, centre, max end)`` and triangles by
    their sorted degree triple, both in ascending key order and without
    zero entries.  Wedges are the neighbor pairs of each centre, counted per
    pair of neighbor degrees from the centre's neighbor-degree histogram,
    minus the pair each triangle closes at each of its three corners.
    Inside, a key packs a degree triple by its ranks among the ``D``
    distinct degrees, ``(r1·D + r2)·D + r3``, far below 2^63 at any n.
    """
    view = _view(graph)
    degrees = np.asarray(view.degrees, dtype=np.int64)
    kd = np.unique(degrees)
    base = max(int(kd.size), 1)
    drank = np.searchsorted(kd, degrees)
    wedges = tris = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def merge(total, keys, values):
        return _sum_by_key(np.concatenate((total[0], keys)), np.concatenate((total[1], values)))

    # open + closed neighbor pairs: a node block's (centre, neighbor degree)
    # histogram, expanded to its degree pairs TRIANGLE_CANDIDATE_BUDGET at a time
    block = max(1, int(view.n * ARC_CHUNK / max(len(view.indices), 1)))
    for begin in range(0, view.n, block):
        end = min(begin + block, view.n)
        lo, hi = int(view.indptr[begin]), int(view.indptr[end])
        if hi == lo:
            continue
        centre = np.repeat(np.arange(end - begin, dtype=np.int64), degrees[begin:end])
        cells, hist = np.unique(
            centre * base + drank[np.asarray(view.indices[lo:hi], dtype=np.int64)],
            return_counts=True,
        )
        owner, nbr = np.divmod(cells, base)
        t_len = np.bincount(owner, minlength=end - begin)
        square = t_len * t_len
        cum = np.zeros(len(square) + 1, dtype=np.int64)
        np.cumsum(square, out=cum[1:])
        first = np.cumsum(t_len) - t_len  # each centre's first histogram cell
        for start, stop in _budget_spans(cum):
            total = int(cum[stop] - cum[start])
            if total:
                sq = square[start:stop]
                t_rep = np.repeat(t_len[start:stop], sq)
                local = np.arange(total, dtype=np.int64) - np.repeat(
                    cum[start:stop] - cum[start], sq
                )
                p = np.repeat(first[start:stop], sq)
                q = p + local % t_rep
                p += local // t_rep
                keep = p <= q
                p, q = p[keep], q[keep]
                h = hist[p]
                # distinct-degree pairs h_p·h_q, same-degree pairs C(h, 2)
                pairs = np.where(p == q, h * (h - 1) // 2, h * hist[q])
                centre_rank = drank[begin + owner[p]]
                wedges = merge(wedges, (nbr[p] * base + centre_rank) * base + nbr[q], pairs)

    # triangles, and the pair each one closes at its three corners
    if view.m:
        order = np.argsort(degrees, kind="stable")
        by_rank = drank[order]
        for u, v, w in _triangle_batches(view, order):
            a, b, c = by_rank[u], by_rank[v], by_rank[w]  # a <= b <= c
            tris = merge(tris, (a * base + b) * base + c, np.ones(len(a), dtype=np.int64))
            corners = np.concatenate(
                ((b * base + a) * base + c, (a * base + b) * base + c, (a * base + c) * base + b)
            )
            wedges = merge(wedges, corners, -np.ones(len(corners), dtype=np.int64))

    def unpack(keys, counts) -> dict[tuple[int, int, int], int]:
        r12, r3 = np.divmod(keys, base)
        r1, r2 = np.divmod(r12, base)
        return dict(zip(zip(kd[r1].tolist(), kd[r2].tolist(), kd[r3].tolist()), counts.tolist()))

    open_pairs = wedges[1] > 0
    return unpack(wedges[0][open_pairs], wedges[1][open_pairs]), unpack(*tris)


# ---------------------------------------------------------------------- #
# adjacency matrix and component labels
# ---------------------------------------------------------------------- #
def adjacency_matrix(graph, dtype=np.float64):
    """Sparse symmetric adjacency matrix of ``graph``: its CSR view, ones as data.

    The spectrum takes float entries and the component labelling int8 ones.
    """
    from scipy.sparse import csr_matrix

    view = _view(graph)
    return csr_matrix(
        (np.ones(len(view.indices), dtype=dtype), view.indices, view.indptr),
        shape=(view.n, view.n),
    )


def component_labels(adjacency) -> tuple[int, np.ndarray]:
    """``(count, component label per node)`` of a scipy sparse adjacency.

    The graph is undirected: ``adjacency`` may hold each edge once or in
    both orientations.  Labels are arbitrary but consistent.
    """
    # deferred: csgraph adds ~0.1 s to the import of every caller of this module
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(adjacency, directed=False)
    return int(count), np.asarray(labels, dtype=np.int64)


def giant_component_mask(labels: np.ndarray) -> np.ndarray:
    """Member mask of the giant component of a node labelling.

    The largest component wins; among equally large ones, the component
    holding the smallest node id.
    """
    sizes = np.bincount(labels)
    candidates = np.flatnonzero(sizes == sizes.max())
    winner = candidates[0]
    if len(candidates) > 1:
        smallest = np.full(len(sizes), len(labels), dtype=np.int64)
        np.minimum.at(smallest, labels, np.arange(len(labels), dtype=np.int64))
        winner = candidates[np.argmin(smallest[candidates])]
    return labels == winner


__all__ = [
    "ARC_CHUNK",
    "BigGraph",
    "adjacency_matrix",
    "index_dtype",
]
