"""CSR unified BFS sweep: distance histogram + optional betweenness.

Without betweenness the sweep is the bit-parallel batched histogram BFS of
:mod:`repro.kernels.bfs` (64 sources per word).  With betweenness it runs
the batched Brandes kernel of :mod:`repro.kernels.betweenness`, whose
forward pass yields the same distance histogram, so a combined
distance+betweenness request performs a single traversal.  The integer pair
counts are identical in both modes and identical to the pure-Python kernel.
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.backend import register_kernel
from repro.kernels.betweenness import brandes_sweep
from repro.kernels.bfs import bfs_histogram
from repro.kernels.csr import csr_graph


@register_kernel("bfs_sweep", "csr")
def bfs_sweep(
    graph: SimpleGraph,
    source_nodes: Sequence[int],
    want_betweenness: bool,
    want_edge_load: bool = False,
) -> tuple[dict[int, int], list[float] | None, list[float] | None]:
    """One sweep over ``source_nodes``: ``(histogram, centrality, edge load)``.

    ``edge_load`` is the raw per-edge dependency accumulation in sorted
    canonical edge order (``None`` unless ``want_edge_load``), computed from
    the same batched Brandes pass — betweenness + edge load together still
    cost one traversal.
    """
    if not want_betweenness and not want_edge_load:
        return bfs_histogram(graph, source_nodes), None, None
    return brandes_sweep(csr_graph(graph), source_nodes, want_edge_load)


__all__ = ["bfs_sweep"]
