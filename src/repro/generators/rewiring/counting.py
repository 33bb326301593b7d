"""Counting possible initial dK-preserving rewirings (Table 5 of the paper).

The number of dK-preserving rewirings applicable to a given graph is a
useful preliminary indicator of the size of the dK-graph space: it collapses
by orders of magnitude as ``d`` grows.  The paper also discards rewirings
that obviously lead to isomorphic graphs (exchanging two degree-1 leaves).

Conventions (documented because the paper does not spell out its own):

* ``d = 0``: one move = (an existing edge, a currently non-adjacent node
  pair to re-attach it to); the count is ``m * (C(n,2) - m)``.
* ``d >= 1``: one move = an unordered pair of distinct edges together with
  one of the two possible endpoint pairings, valid when it creates neither
  self-loops nor parallel edges; for ``d = 2`` the pairing must additionally
  preserve the joint degree distribution, for ``d = 3`` also the wedge and
  triangle distributions.

The moves are enumerated on the rewiring engine's own structures
(:mod:`repro.kernels.rewiring`).  A pairing ``(a,b),(c,d) -> (a,d),(c,b)``
is an unordered pair of packed oriented edge ends ``2*slot+side`` (tail
``a``, head ``b`` and tail ``c``, head ``d``) whose heads are exchanged.
Each pairing has two such representations, ``(a→b, c→d)`` and the
reversed ``(b→a, d→c)``:

* ``d = 1``: every end pair of all ``2m`` ends is a candidate, so each
  pairing is visited exactly twice;
* ``d >= 2``: a pairing keeps the JDD iff ``deg b == deg d`` or
  ``deg a == deg c``, i.e. iff at least one representation pairs two ends
  of the same head-degree bucket.  Only end pairs inside one bucket of
  :meth:`RewiringState.build_buckets` are enumerated; a pairing is visited
  twice when ``deg a == deg c`` as well, once otherwise.

Counting in half-units (weight 1 per visit of a doubly visited pairing,
2 otherwise) and halving at the end gives each pairing once.  The end pairs
of each group are resolved, validity-tested and (for ``d = 3``) given the
engine's zero-3K-delta verdict (:func:`~repro.kernels.rewiring._batch_zero_delta`,
the 3K-randomizing chain's own kernel, at every graph size) in fixed-size
vectorized chunks, so working memory is O(chunk + m) whatever the bucket
sizes, plus the kernel's membership table for ``d = 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels import rewiring as engine
from repro.telemetry import span

#: End pairs resolved per vectorized chunk.
PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class RewiringCounts:
    """Number of possible initial dK-preserving rewirings."""

    total: int
    non_isomorphic: int


def count_0k_rewirings(graph: SimpleGraph) -> int:
    """``m * (C(n,2) - m)``: each edge can move to any non-adjacent pair."""
    n = graph.number_of_nodes
    m = graph.number_of_edges
    return m * (n * (n - 1) // 2 - m)


def _end_pairs(group: np.ndarray, chunk: int):
    """All unordered pairs of ``group``'s entries, in chunks of at most
    ``chunk`` pairs (or one row of ``len(group) - 1`` pairs if larger)."""
    size = group.size
    per_row = np.arange(size - 1, -1, -1, dtype=np.int64)  # row r pairs with r+1..
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(per_row, out=bounds[1:])
    row = 0
    while row < size - 1:
        stop = int(np.searchsorted(bounds, bounds[row] + chunk, side="right")) - 1
        stop = max(stop, row + 1)
        lens = per_row[row:stop]
        first = np.repeat(np.arange(row, stop, dtype=np.int64), lens)
        starts = np.cumsum(lens) - lens
        second = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)
        yield group[first], group[first + 1 + second]
        row = stop


def count_dk_rewirings(graph: SimpleGraph, d: int) -> RewiringCounts:
    """Count the possible initial dK-preserving rewirings for ``d`` in 0..3.

    For ``d = 0`` a closed-form formula is used and the isomorphism filter is
    not applicable (the paper reports "-"); the ``non_isomorphic`` field then
    equals the total.  For ``d >= 1`` the candidate end pairs are enumerated
    as described in the module docstring, under a ``kernel.count_rewirings``
    telemetry span.
    """
    if d == 0:
        total = count_0k_rewirings(graph)
        return RewiringCounts(total=total, non_isomorphic=total)
    if d not in (1, 2, 3):
        raise ValueError(f"d must be in 0..3, got {d}")
    n = graph.number_of_nodes
    with span("kernel.count_rewirings", d=d, n=n, m=graph.number_of_edges) as sp:
        state = engine.RewiringState(graph)
        if d == 1:
            groups = [np.arange(2 * state.m, dtype=np.int64)]
        else:
            groups = [np.asarray(b, dtype=np.int64) for b in state.build_buckets() if b]
        # the d = 3 verdict is the randomizing chain's batched kernel, on
        # whichever membership table the graph's size selects
        tk = engine._ThreeKState(state) if d == 3 else None
        edge_u = np.asarray(state.edge_u, dtype=np.int64)
        edge_v = np.asarray(state.edge_v, dtype=np.int64)
        edge_keys = np.sort(np.asarray(state.edge_key, dtype=np.int64))
        deg = np.asarray(state.degrees, dtype=np.int64)

        def is_edge(x, y):
            key = np.minimum(x, y) * n + np.maximum(x, y)
            pos = np.minimum(np.searchsorted(edge_keys, key), edge_keys.size - 1)
            return edge_keys[pos] == key

        end_pairs = 0
        total_half_units = 0
        non_isomorphic_half_units = 0
        for group in groups:
            for first, second in _end_pairs(group, PAIR_CHUNK):
                end_pairs += first.size
                i, _, a, b = engine._resolve_ends(edge_u, edge_v, first)
                j, _, c, dd = engine._resolve_ends(edge_u, edge_v, second)
                valid = (i != j) & (a != dd) & (c != b)
                valid &= ~(is_edge(a, dd) | is_edge(c, b))
                if d == 3:
                    valid &= engine._batch_zero_delta(tk, a, b, c, dd, valid)
                if d == 1:
                    weight = valid.astype(np.int64)
                else:
                    weight = np.where(deg[a] == deg[c], 1, 2) * valid
                # the paper's obvious isomorphism: exchanging two leaves
                isomorphic = ((deg[b] == 1) & (deg[dd] == 1)) | (
                    (deg[a] == 1) & (deg[c] == 1)
                )
                total_half_units += int(weight.sum())
                non_isomorphic_half_units += int(weight[~isomorphic].sum())
        counts = RewiringCounts(
            total=total_half_units // 2,
            non_isomorphic=non_isomorphic_half_units // 2,
        )
        sp.set(end_pairs=end_pairs, valid=counts.total)
    return counts


def rewiring_count_table(graph: SimpleGraph, ds: tuple[int, ...] = (0, 1, 2, 3)) -> dict[int, RewiringCounts]:
    """Compute the full Table-5-style count table for the requested levels."""
    return {d: count_dk_rewirings(graph, d) for d in ds}


__all__ = ["RewiringCounts", "count_0k_rewirings", "count_dk_rewirings", "rewiring_count_table"]
