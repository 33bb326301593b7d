"""The million-node tier: compact immutable CSR graphs + out-of-core kernels.

A :class:`BigGraph` is an immutable graph stored as two flat CSR arrays —
``indptr`` (int64, ``n + 1`` entries) and ``indices`` (uint32 when
``n < 2^32``, uint64 otherwise, ``2m`` entries, every row sorted ascending).
The arrays may be plain ndarrays or ``numpy.memmap`` views of an on-disk
artifact (see :mod:`repro.graph.mmap_io`), so a 10^7-node topology costs a
couple of hundred MB of *address space* and only the pages a kernel touches.

The class deliberately duck-types two existing surfaces at once:

* the **CSR kernel surface** (``n``/``m``/``indptr``/``indices``/``degrees``)
  consumed by the bit-parallel BFS and the Brandes accumulator, so those
  vectorized bodies run on a BigGraph unchanged, and
* the **read-only SimpleGraph surface** (``number_of_nodes``, ``degree``,
  ``nodes``, ``average_degree``, ``_measure_cache`` …) consumed by the
  measurement planner and the shared metric formulas.

The kernels registered here under the ``"biggraph"`` backend accept a
BigGraph *or* a SimpleGraph (via its cached CSR snapshot), and produce the
same exact integer aggregates as the python/csr backends — histogram counts,
triangle counts and moment sums are order-independent integers, so every
Table-2 scalar derived from them by the shared formula layer is
bit-identical across all three backends.

The module imports without NumPy; every entry point then raises
:class:`BigGraphUnavailableError` with an actionable message instead of an
``ImportError`` at import time.
"""

from __future__ import annotations

from typing import Sequence

try:
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None
    HAS_NUMPY = False

from repro.kernels.backend import register_kernel

#: Arc positions processed per vectorized batch by the chunked kernels.
ARC_CHUNK = 4_000_000

#: Candidate (edge, third-vertex) pairs evaluated per triangle batch.
TRIANGLE_CANDIDATE_BUDGET = 8_000_000


class BigGraphUnavailableError(RuntimeError):
    """The million-node BigGraph tier needs NumPy, which is not installed."""


def _require_numpy() -> None:
    if not HAS_NUMPY:
        raise BigGraphUnavailableError(
            "the million-node BigGraph tier requires numpy for its memory-mapped "
            "CSR arrays; install numpy (pip install numpy) or stay on the "
            "SimpleGraph path"
        )


def index_dtype(n: int):
    """Minimal unsigned dtype able to hold node ids below ``n``."""
    _require_numpy()
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
        _require_numpy()
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
        _require_numpy()
        indptr = np.asarray(indptr, dtype=np.int64)
        n = len(indptr) - 1
        indices = np.asarray(indices, dtype=index_dtype(n))
        return cls(indptr, indices, **kwargs)

    @classmethod
    def from_simple_graph(cls, graph) -> "BigGraph":
        """Snapshot a :class:`SimpleGraph` (test/interop path, not streaming)."""
        _require_numpy()
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
# kernels (backend "biggraph")
# ---------------------------------------------------------------------- #
@register_kernel("bfs_histogram", "biggraph")
def bfs_histogram(graph, source_nodes: Sequence[int]) -> dict[int, int]:
    """Distance-pair histogram over ``source_nodes`` (bit-parallel BFS)."""
    _require_numpy()
    from repro.kernels.bfs import histogram_from_csr

    return histogram_from_csr(_view(graph), source_nodes)


@register_kernel("bfs_sweep", "biggraph")
def bfs_sweep(
    graph,
    source_nodes: Sequence[int],
    want_betweenness: bool,
    want_edge_load: bool = False,
):
    """Unified sweep: ``(histogram, centrality, edge load)`` — see csr twin."""
    _require_numpy()
    from repro.kernels.bfs import histogram_from_csr

    view = _view(graph)
    if not want_betweenness and not want_edge_load:
        return histogram_from_csr(view, source_nodes), None, None
    from repro.kernels.betweenness import brandes_sweep

    return brandes_sweep(view, source_nodes, want_edge_load)


@register_kernel("edge_degree_moments", "biggraph")
def edge_degree_moments(graph) -> tuple[int, int, int]:
    """``(Σ k_u·k_v, Σ (k_u+k_v), Σ (k_u²+k_v²))``, chunked over the arcs."""
    _require_numpy()
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


@register_kernel("jdd_counts", "biggraph")
def jdd_counts(graph) -> tuple[dict[tuple[int, int], int], int]:
    """JDD edge counts keyed by sorted degree pair, plus zero-degree nodes."""
    _require_numpy()
    view = _view(graph)
    zero_degree = int(np.count_nonzero(view.degrees == 0)) if view.n else 0
    if view.m == 0:
        return {}, zero_degree
    base = int(view.degrees.max()) + 1
    merged: dict[int, int] = {}
    total = len(view.indices)
    for begin in range(0, total, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, total)
        rows = _arc_rows(view, begin, end)
        neigh = view.indices[begin:end].astype(np.int64)
        mask = neigh > rows  # canonical arcs only
        ku = view.degrees[rows[mask]]
        kv = view.degrees[neigh[mask]]
        packed, counts = np.unique(
            np.minimum(ku, kv) * base + np.maximum(ku, kv), return_counts=True
        )
        for key, count in zip(packed.tolist(), counts.tolist()):
            merged[key] = merged.get(key, 0) + count
    return {
        (key // base, key % base): count for key, count in merged.items()
    }, zero_degree


@register_kernel("second_order_total", "biggraph")
def second_order_total(graph) -> int:
    """``Σ_v [(Σ_{u∈N(v)} k_u)² − Σ_{u∈N(v)} k_u²]``, chunked by node block."""
    _require_numpy()
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


@register_kernel("triangles_per_node", "biggraph")
def triangles_per_node(graph):
    """Exact per-node triangle counts via chunked sorted-key intersection.

    For every canonical edge ``(u, v)`` the third-vertex candidates are the
    neighbors of ``u`` beyond ``v`` in its sorted row; membership in ``N(v)``
    is one vectorized ``searchsorted`` against the globally ascending packed
    arc keys ``row·n + neighbor``.  Each triangle ``u < v < w`` is found
    exactly once, so the counts match the python/csr kernels bit for bit.
    """
    _require_numpy()
    view = _view(graph)
    n = view.n
    counts = np.zeros(n, dtype=np.int64)
    total = len(view.indices)
    if total == 0:
        return [0] * n
    # globally sorted packed arc keys (row-major CSR order is key order)
    keys = np.empty(total, dtype=np.int64)
    for begin in range(0, total, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, total)
        rows = _arc_rows(view, begin, end)
        keys[begin:end] = rows * n + view.indices[begin:end].astype(np.int64)

    def _batch(u, v, pos):
        cand_counts = view.indptr[u + 1] - (pos + 1)
        # split so one batch's candidate buffer stays bounded
        cum = np.zeros(len(cand_counts) + 1, dtype=np.int64)
        np.cumsum(cand_counts, out=cum[1:])
        start = 0
        while start < len(u):
            stop = int(
                np.searchsorted(cum, cum[start] + TRIANGLE_CANDIDATE_BUDGET, side="left")
            )
            stop = max(start + 1, min(stop, len(u)))
            cc = cand_counts[start:stop]
            width = int(cum[stop] - cum[start])
            if width:
                offsets = np.arange(width, dtype=np.int64)
                offsets += np.repeat((pos[start:stop] + 1) - (cum[start:stop] - cum[start]), cc)
                w = view.indices[offsets].astype(np.int64)
                vkeys = np.repeat(v[start:stop], cc) * n + w
                loc = np.searchsorted(keys, vkeys)
                np.minimum(loc, total - 1, out=loc)
                hit = keys[loc] == vkeys
                edge_of = np.repeat(np.arange(stop - start, dtype=np.int64), cc)
                per_edge = np.bincount(edge_of[hit], minlength=stop - start)
                np.add.at(counts, u[start:stop], per_edge)
                np.add.at(counts, v[start:stop], per_edge)
                np.add.at(counts, w[hit], 1)
            start = stop

    for begin in range(0, total, ARC_CHUNK):
        end = min(begin + ARC_CHUNK, total)
        rows = _arc_rows(view, begin, end)
        neigh = view.indices[begin:end].astype(np.int64)
        mask = neigh > rows  # canonical arcs
        if mask.any():
            _batch(rows[mask], neigh[mask], np.flatnonzero(mask) + begin)
    return counts.tolist()


# ---------------------------------------------------------------------- #
# giant component
# ---------------------------------------------------------------------- #
def _component_labels(view):
    """Component label per node (labels are arbitrary but consistent)."""
    try:  # scipy's C implementation when available
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
    except ImportError:
        pass
    labels = np.full(view.n, -1, dtype=np.int64)
    label = 0
    cursor = 0
    while cursor < view.n:
        if labels[cursor] >= 0:
            cursor += 1
            continue
        labels[cursor] = label
        frontier = np.array([cursor], dtype=np.int64)
        while frontier.size:
            spans = [
                np.asarray(view.indices[view.indptr[f] : view.indptr[f + 1]])
                for f in frontier.tolist()
            ]
            neighbors = (
                np.concatenate(spans).astype(np.int64)
                if spans
                else np.empty(0, dtype=np.int64)
            )
            fresh = np.unique(neighbors[labels[neighbors] < 0]) if neighbors.size else neighbors
            labels[fresh] = label
            frontier = fresh
        label += 1
    return labels


def biggraph_giant_component(graph: BigGraph) -> BigGraph:
    """The giant connected component of ``graph``, relabelled ascending.

    Ties are broken exactly like :func:`repro.graph.components.
    giant_component`: among maximum-size components the one discovered first
    by ascending-start BFS wins — i.e. the one containing the smallest node
    id — and member ids are relabelled in ascending order.
    """
    _require_numpy()
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
    "HAS_NUMPY",
    "BigGraph",
    "BigGraphUnavailableError",
    "biggraph_giant_component",
    "index_dtype",
]
