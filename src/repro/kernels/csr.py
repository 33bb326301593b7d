"""Compressed-sparse-row view of a :class:`SimpleGraph` for NumPy kernels.

A :class:`CSRGraph` is an immutable array snapshot of a graph:

* ``indptr``/``indices`` — the standard CSR adjacency layout, with every
  neighbor row **sorted ascending** (so the arcs with ``neighbor > row``
  list the canonical edges in sorted order, as the edge-load kernel needs);
* ``degrees`` — node degrees (``indptr`` deltas, precomputed).

It carries the same attributes as a :class:`~repro.kernels.biggraph.
BigGraph`, so the CSR kernels run on either unchanged.

Building the arrays is ``O(m log m)`` and is paid once per graph:
:func:`csr_graph` caches the snapshot on the :class:`SimpleGraph` instance
(``_csr_cache`` slot), and every mutating operation on the graph invalidates
the cache, so kernels on an unchanged graph reuse the same arrays.
"""

from __future__ import annotations

import numpy as np

from repro.graph.simple_graph import SimpleGraph


class CSRGraph:
    """Immutable CSR snapshot of a simple undirected graph."""

    __slots__ = ("n", "m", "indptr", "indices", "degrees")

    def __init__(
        self, n: int, indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray
    ):
        self.n = n
        self.m = len(indices) // 2
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (a view into ``indices``)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.m})"

    @classmethod
    def from_simple_graph(cls, graph: SimpleGraph) -> "CSRGraph":
        """Build the CSR arrays from a :class:`SimpleGraph` (one pass)."""
        n = graph.number_of_nodes
        m = graph.number_of_edges
        if m == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.zeros(n, dtype=np.int64))
        edges = np.asarray(graph.edge_list(), dtype=np.int64)
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        degrees = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        order = np.lexsort((dst, src))  # by row, then by neighbor id
        indices = dst[order]
        return cls(n, indptr, indices, degrees)


def csr_graph(graph: SimpleGraph) -> CSRGraph:
    """The cached CSR snapshot of ``graph`` (rebuilt after any mutation)."""
    cached = graph._csr_cache
    if cached is None:
        cached = CSRGraph.from_simple_graph(graph)
        graph._csr_cache = cached
    return cached


__all__ = ["CSRGraph", "csr_graph"]
