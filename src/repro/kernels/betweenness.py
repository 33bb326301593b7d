"""Batched Brandes betweenness: K sources per sparse × dense product.

A block of K sources becomes the columns of dense ``n × K`` arrays — hop
distances ``dist`` (int32; int16 would overflow on long paths) and
shortest-path counts ``σ`` (float64) — so one BFS level for the whole block
is a single ``scipy.sparse`` CSR × dense product over the adjacency ``A``:

* **forward** — ``nxt = A @ front`` sums ``σ`` over the frontier neighbours
  of every node; masked to the entries not yet seen it is both the next
  frontier and that level's ``σ``;
* **backward** — deepest level first, ``w = (1 + δ) / σ`` on the entries at
  ``depth`` and ``p = A @ w``; the entries at ``depth − 1`` gain ``σ · p``,
  which is Brandes' ``δ_v = Σ_w σ_v / σ_w · (1 + δ_w)`` over the successors
  ``w`` of ``v``.  The ``dist == depth`` masks are recomputed per depth
  rather than stored per level (a path graph has depth ≈ n);
* **edge load** — once per block, from the sorted canonical edges
  ``(u, v)``: ``σ_u · (1 + δ_v) / σ_v`` where ``dist_v = dist_u + 1``, plus
  the same term with ``u`` and ``v`` swapped, summed over the columns;
* **histogram** — the per-level counts of newly reached entries.

The block width is capped so the dense scratch stays under
:data:`~repro.kernels.bfs.MAX_GATHER_BYTES`.  The kernel returns the *raw*
accumulation (like the Python reference); sampling scale, pair normalization
and the undirected ``1/2`` factor are applied by the shared code in
:mod:`repro.metrics.betweenness`.  The ``σ`` counts and the histogram are
exact; the dependencies are summed in a different order than the per-source
Python loops, so they agree to numerical accuracy rather than bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.kernels.bfs import MAX_GATHER_BYTES
from repro.kernels.biggraph import _canonical_edges

#: Sources (dense columns) per block at most.
BLOCK_SOURCES = 64

#: Scratch bytes per (node, source) entry: ``dist`` plus the float64 arrays
#: live at once in the backward pass (σ, safe σ, δ, w, the product, a temporary
#: and the last frontier).
_ENTRY_BYTES = 4 + 7 * 8


def _block_sources(n: int) -> int:
    """Sources per block keeping the dense scratch under MAX_GATHER_BYTES."""
    return max(1, min(BLOCK_SOURCES, MAX_GATHER_BYTES // (max(n, 1) * _ENTRY_BYTES)))


def _accumulate_block(
    adjacency: csr_matrix,
    batch: np.ndarray,
    centrality: np.ndarray,
    counts: list[int],
    edges: tuple[np.ndarray, np.ndarray] | None,
    edge_load: np.ndarray | None,
) -> None:
    """Brandes over the sources of ``batch``, added into the accumulators."""
    n, k = adjacency.shape[0], len(batch)
    columns = np.arange(k)
    dist = np.full((n, k), -1, dtype=np.int32)
    dist[batch, columns] = 0
    sigma = np.zeros((n, k))
    sigma[batch, columns] = 1.0
    front = sigma.copy()
    depth = 0
    counts[0] += k
    # masks enter as multiplications: masked ``where=`` writes are far slower
    while True:
        front = adjacency @ front
        fresh = (dist < 0) & (front > 0)
        reached = int(np.count_nonzero(fresh))
        if not reached:
            break
        depth += 1
        if depth == len(counts):
            counts.append(0)
        counts[depth] += reached
        dist += fresh * np.int32(depth + 1)  # -1 -> depth
        front *= fresh
        sigma += front

    # σ ≥ 1 on every reached entry; the 1 elsewhere is always masked out
    safe_sigma = np.maximum(sigma, 1.0)
    delta = np.zeros((n, k))
    at = dist == depth
    for level in range(depth, 0, -1):
        w = (1.0 + delta) / safe_sigma
        w *= at
        at = dist == level - 1
        product = adjacency @ w
        product *= sigma
        product *= at
        delta += product
    delta[batch, columns] = 0.0
    centrality += delta.sum(axis=1)

    if edge_load is not None:
        w = (1.0 + delta) / safe_sigma
        chunk = max(1, MAX_GATHER_BYTES // (k * _ENTRY_BYTES))
        for begin in range(0, len(edge_load), chunk):
            u = edges[0][begin : begin + chunk]
            v = edges[1][begin : begin + chunk]
            du, dv = dist[u], dist[v]
            load = (sigma[u] * w[v]) * (dv == du + 1)
            load += (sigma[v] * w[u]) * (du == dv + 1)
            edge_load[begin : begin + chunk] += load.sum(axis=1)


def brandes_sweep(
    view, source_nodes: Sequence[int], want_edge_load: bool
) -> tuple[dict[int, int], list[float], list[float] | None]:
    """Batched Brandes over a BigGraph (a SimpleGraph's CSR view or not).

    Returns ``(histogram, centrality, edge load)``: the exact distance-pair
    histogram, the raw per-node dependency sums, and (when
    ``want_edge_load``) the raw per-edge sums in sorted canonical edge order.
    """
    n = view.n
    indices = np.asarray(view.indices)
    adjacency = csr_matrix(
        (np.ones(len(indices)), indices, np.asarray(view.indptr)), shape=(n, n)
    )
    centrality = np.zeros(n)
    edges = edge_load = None
    if want_edge_load:
        edges = _canonical_edges(view)
        edge_load = np.zeros(len(edges[0]))
    counts = [0]
    sources = np.asarray(source_nodes, dtype=np.int64)
    block = _block_sources(n)
    for begin in range(0, len(sources), block):
        _accumulate_block(
            adjacency, sources[begin : begin + block], centrality, counts, edges, edge_load
        )
    histogram = {d: c for d, c in enumerate(counts) if c}
    return (
        histogram,
        centrality.tolist(),
        None if edge_load is None else edge_load.tolist(),
    )


__all__ = ["BLOCK_SOURCES", "brandes_sweep"]
