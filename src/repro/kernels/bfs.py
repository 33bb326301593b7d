"""Batched BFS kernels: distance histograms for the full or sampled sweep.

The distance *histogram* (the paper's d(x) numerator) does not need per-pair
distances, only how many (source, node) pairs sit at each hop count.  The
CSR kernel therefore runs a **bit-parallel level-synchronous BFS**: sources
are packed 64 per machine word, row ``v`` of the bitset matrix ``R`` holds
one bit per source meaning "within ``level`` hops of it", and one BFS level
for *all* sources at once is

    R'[v] = R[v] | OR of R[u] over u in N(v)

— a single gather of the CSR neighbor rows plus one ``np.bitwise_or.reduceat``
over the row boundaries.  The number of pairs at distance exactly ``level``
is the growth of the total popcount.  Per level the whole sweep touches
``2m · ⌈sources/64⌉`` words, so the full all-pairs histogram costs
``O(diameter · n · m / 64)`` word operations — typically 40-100x faster than
the per-source Python BFS, with bit-identical integer counts.

Source blocks are capped so the transient gather buffer stays within
:data:`MAX_GATHER_BYTES`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.backend import register_kernel
from repro.kernels.csr import csr_graph

#: Upper bound for one block's neighbor-gather buffer (2m × words × 8 bytes).
MAX_GATHER_BYTES = 256 * 1024 * 1024

#: Bits (sources) packed into one block at most.
MAX_BLOCK_BITS = 4096

_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)


def _popcount(words: np.ndarray) -> int:
    """Total set bits; byte histogram keeps the intermediate at 256 entries."""
    per_byte = np.bincount(words.view(np.uint8).ravel(), minlength=256)
    return int(per_byte @ _POPCOUNT)


def _block_bits(edge_slots: int) -> int:
    """Sources per block keeping the gather buffer under MAX_GATHER_BYTES."""
    if edge_slots == 0:
        return MAX_BLOCK_BITS
    max_words = max(1, MAX_GATHER_BYTES // (edge_slots * 8))
    return max(64, min(MAX_BLOCK_BITS, max_words * 64))


def histogram_from_csr(csr, source_nodes: Sequence[int]) -> dict[int, int]:
    """Bit-parallel distance histogram over any CSR-shaped view.

    ``csr`` only needs ``n`` / ``degrees`` / ``indptr`` / ``indices``
    attributes, so both :class:`CSRGraph` and the memory-mapped BigGraph
    share this body.  Exact integer counts, identical to the pure-Python
    BFS sweep (self-pairs included at distance 0, unreachable excluded).
    """
    if csr.n == 0 or len(source_nodes) == 0:
        return {}
    sources = np.asarray(source_nodes, dtype=np.int64)
    histogram: dict[int, int] = {0: len(sources)}  # every source sees itself
    reachable_rows = np.flatnonzero(csr.degrees > 0)
    row_starts = csr.indptr[reachable_rows]
    block = _block_bits(len(csr.indices))
    for begin in range(0, len(sources), block):
        batch = sources[begin : begin + block]
        words = (len(batch) + 63) // 64
        balls = np.zeros((csr.n, words), dtype=np.uint64)
        bit = np.arange(len(batch))
        np.bitwise_or.at(
            balls,
            (batch, bit // 64),
            np.uint64(1) << (bit % 64).astype(np.uint64),
        )
        covered = len(batch)  # running popcount: pairs within `level` hops
        level = 0
        while reachable_rows.size:
            gathered = balls[csr.indices]  # a copy, so the in-place OR is safe
            merged = np.bitwise_or.reduceat(gathered, row_starts, axis=0)
            balls[reachable_rows] |= merged
            now_covered = _popcount(balls)
            if now_covered == covered:
                break  # no ball grew: every remaining pair is disconnected
            level += 1
            histogram[level] = histogram.get(level, 0) + (now_covered - covered)
            covered = now_covered
    return {d: c for d, c in histogram.items() if c}


@register_kernel("bfs_histogram", "csr")
def bfs_histogram(graph: SimpleGraph, source_nodes: Sequence[int]) -> dict[int, int]:
    """Counts of (source, node) pairs at each hop distance, sources as given."""
    return histogram_from_csr(csr_graph(graph), source_nodes)


__all__ = [
    "MAX_GATHER_BYTES",
    "MAX_BLOCK_BITS",
    "bfs_histogram",
    "histogram_from_csr",
]
