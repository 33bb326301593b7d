"""Streaming dK generators: flat edge chunks straight into the CSR builder.

The eager 1K/2K generators in :mod:`repro.generators.pseudograph` and
:mod:`repro.generators.stochastic` materialize a Python :class:`SimpleGraph`
— per-node adjacency *sets*, hundreds of bytes per edge — which caps them
around n≈10^5.  The variants here emit flat ``(u, v)`` endpoint chunks
directly into a :class:`~repro.graph.mmap_io.CSRBuilder` (external
sort-by-key merge), so peak memory is bounded by the builder's spill
threshold and a 10^6–10^7-node topology streams onto disk as a
memory-mapped :class:`~repro.kernels.biggraph.BigGraph`.

Semantics match the eager constructions **distributionally**, not RNG
stream for stream:

* the pseudograph matchings assign node ids exactly like the eager code
  (sequential over ascending degree classes) and pair stubs/edge-ends by the
  same uniform shuffles, with self-loops dropped and parallel edges
  collapsed by the builder;
* the stochastic constructions use the fact that the Chung–Lu / block-model
  connection probability depends only on the endpoint degree classes: per
  class pair the edge count is one binomial draw (the sum of the per-pair
  Bernoullis) placed on distinct uniform pairs — the same model, drawn
  block-wise instead of pair-wise, which is what makes it O(m) instead of
  O(n²).

The sequential loop-avoiding 2K matching (``matching_2k``) is excluded:
its accept/reject step depends on the partially built adjacency, which is
inherently per-edge sequential and incompatible with streaming chunks.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import DegreeDistribution, JointDegreeDistribution
from repro.exceptions import GenerationError
from repro.graph.mmap_io import CSRBuilder
from repro.kernels.biggraph import BigGraph
from repro.utils.rng import RngLike, ensure_rng

#: Endpoints emitted into the builder per chunk.
EDGE_CHUNK = 2_000_000


def _class_layout(node_counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """(degrees, first node id per class, next free id): ascending classes.

    Mirrors the eager generators' id convention — node ids are assigned
    sequentially over ascending degree classes starting at 0 — so streamed
    and eager graphs agree on which ids carry which target degree.
    """
    degrees = np.array(sorted(node_counts), dtype=np.int64)
    counts = np.array([node_counts[int(k)] for k in degrees], dtype=np.int64)
    starts = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return degrees, starts, int(starts[-1])


def streaming_pseudograph_1k(
    one_k: DegreeDistribution,
    *,
    rng: RngLike = None,
    path=None,
    encoding: str = "raw",
    spill_threshold: int = 16_000_000,
    spill_dir=None,
) -> BigGraph:
    """Configuration-model (1K) graph, streamed into a BigGraph.

    Same construction as :func:`~repro.generators.pseudograph.
    pseudograph_1k`: ``k`` stubs per degree-``k`` node, one uniform shuffle,
    consecutive stubs paired; self-loops dropped, parallels collapsed.
    ``path`` persists the result as a BigGraph artifact directory (the
    returned graph is then memory-mapped from it).
    """
    rng = ensure_rng(rng)
    if one_k.stub_count % 2:
        raise GenerationError("the degree distribution has an odd number of stubs")
    degrees, starts, n = _class_layout(dict(one_k.counts))
    builder = CSRBuilder(max(n, 1), spill_threshold=spill_threshold, spill_dir=spill_dir)
    node_degrees = np.repeat(degrees, np.diff(starts))
    stubs = np.repeat(np.arange(n, dtype=np.int64), node_degrees)
    if len(stubs):
        rng.shuffle(stubs)
        for begin in range(0, len(stubs) - 1, 2 * EDGE_CHUNK):
            end = min(begin + 2 * EDGE_CHUNK, len(stubs))
            builder.add_edges(stubs[begin:end:2], stubs[begin + 1 : end : 2])
    del stubs
    return builder.finalize(path, encoding=encoding, metadata={"method": "pseudograph", "d": 1})


def streaming_pseudograph_2k(
    jdd: JointDegreeDistribution,
    *,
    rng: RngLike = None,
    path=None,
    encoding: str = "raw",
    spill_threshold: int = 16_000_000,
    spill_dir=None,
) -> BigGraph:
    """The paper's 2K pseudograph construction, streamed into a BigGraph.

    Edge ends labelled ``k`` are shuffled and grouped ``k`` at a time into
    the degree-``k`` nodes, exactly like :func:`~repro.generators.
    pseudograph.pseudograph_2k` — the per-degree slot arrays are the same
    shuffled structures, consumed class pair by class pair (sorted order)
    instead of edge by edge.
    """
    rng = ensure_rng(rng)
    node_counts = jdd.node_counts()
    degrees, starts, next_id = _class_layout(node_counts)
    n = next_id + jdd.zero_degree_nodes
    builder = CSRBuilder(max(n, 1), spill_threshold=spill_threshold, spill_dir=spill_dir)
    # per-degree shuffled slot arrays: node id repeated `degree` times
    slots: dict[int, np.ndarray] = {}
    cursors: dict[int, int] = {}
    for position, degree in enumerate(degrees.tolist()):
        ids = np.arange(starts[position], starts[position + 1], dtype=np.int64)
        array = np.repeat(ids, degree)
        rng.shuffle(array)
        slots[degree] = array
        cursors[degree] = 0
    for k1, k2 in sorted(jdd.counts):
        count = jdd.counts[(k1, k2)]
        if count <= 0:
            continue
        if k1 == k2:
            begin = cursors[k1]
            segment = slots[k1][begin : begin + 2 * count]
            cursors[k1] = begin + 2 * count
            u, v = segment[0::2], segment[1::2]
        else:
            b1, b2 = cursors[k1], cursors[k2]
            u = slots[k1][b1 : b1 + count]
            v = slots[k2][b2 : b2 + count]
            cursors[k1], cursors[k2] = b1 + count, b2 + count
        for begin in range(0, len(u), EDGE_CHUNK):
            builder.add_edges(u[begin : begin + EDGE_CHUNK], v[begin : begin + EDGE_CHUNK])
    slots.clear()  # drop the stub arrays before finalize's peak
    return builder.finalize(path, encoding=encoding, metadata={"method": "pseudograph", "d": 2})


def _distinct_pairs(
    n_left: int,
    n_right: int,
    count: int,
    rng: np.random.Generator,
    *,
    same_class: bool,
    rounds: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``count`` distinct uniform pairs between two classes, vectorized.

    Unordered (diagonal excluded) when ``same_class``.  Oversample-and-unique
    with a bounded number of rounds: the eager ``_random_distinct_pairs`` has
    the same bounded-budget semantics, so falling marginally short on
    pathologically dense blocks matches the eager behavior.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    collected = np.empty(0, dtype=np.int64)
    for _ in range(rounds):
        need = count - len(collected)
        if need <= 0:
            break
        batch = need + need // 8 + 16
        i = rng.integers(0, n_left, size=batch, dtype=np.int64)
        j = rng.integers(0, n_right, size=batch, dtype=np.int64)
        if same_class:
            keep = i != j
            lo = np.minimum(i[keep], j[keep])
            hi = np.maximum(i[keep], j[keep])
            keys = lo * n_right + hi
        else:
            keys = i * n_right + j
        collected = np.unique(np.concatenate((collected, keys)))
    if len(collected) > count:
        collected = rng.permutation(collected)[:count]
    return collected // n_right, collected % n_right


def streaming_stochastic_1k(
    one_k: DegreeDistribution,
    *,
    rng: RngLike = None,
    path=None,
    encoding: str = "raw",
    spill_threshold: int = 16_000_000,
    spill_dir=None,
) -> BigGraph:
    """Chung–Lu (stochastic 1K) graph, streamed block-wise into a BigGraph.

    The eager per-pair Bernoulli with ``p = q_i q_j / Σq`` is drawn degree
    class by degree class: within a class pair every node pair shares the
    same ``p``, so the block's edge count is ``Binomial(possible, p)`` placed
    on distinct uniform pairs — the identical model at O(m) cost.
    """
    rng = ensure_rng(rng)
    degrees, starts, n = _class_layout(dict(one_k.counts))
    builder = CSRBuilder(max(n, 1), spill_threshold=spill_threshold, spill_dir=spill_dir)
    total = float(sum(k * c for k, c in one_k.counts.items()))
    if n >= 2 and total > 0:
        live = [p for p, k in enumerate(degrees.tolist()) if k > 0]
        for a_pos in live:
            k1 = int(degrees[a_pos])
            s1 = int(starts[a_pos + 1] - starts[a_pos])
            for b_pos in live:
                if b_pos < a_pos:
                    continue
                k2 = int(degrees[b_pos])
                s2 = int(starts[b_pos + 1] - starts[b_pos])
                p = min(1.0, k1 * k2 / total)
                same = a_pos == b_pos
                possible = s1 * (s1 - 1) // 2 if same else s1 * s2
                if possible == 0 or p <= 0:
                    continue
                edge_target = int(rng.binomial(possible, p))
                i, j = _distinct_pairs(s1, s2, edge_target, rng, same_class=same)
                for begin in range(0, len(i), EDGE_CHUNK):
                    builder.add_edges(
                        int(starts[a_pos]) + i[begin : begin + EDGE_CHUNK],
                        int(starts[b_pos]) + j[begin : begin + EDGE_CHUNK],
                    )
    return builder.finalize(path, encoding=encoding, metadata={"method": "stochastic", "d": 1})


def streaming_stochastic_2k(
    jdd: JointDegreeDistribution,
    *,
    rng: RngLike = None,
    path=None,
    encoding: str = "raw",
    spill_threshold: int = 16_000_000,
    spill_dir=None,
) -> BigGraph:
    """Degree-class block model (stochastic 2K), streamed into a BigGraph.

    The same block model as :func:`~repro.generators.stochastic.
    stochastic_2k` — ``p(k1,k2) = (q̄/n) P(k1,k2) / (P(k1) P(k2))`` capped at
    one, binomial edge counts per class pair, distinct uniform placement —
    with vectorized pair sampling instead of the per-pair rejection loop.
    """
    rng = ensure_rng(rng)
    node_counts = jdd.node_counts()
    degrees, starts, next_id = _class_layout(node_counts)
    n_total = next_id + jdd.zero_degree_nodes
    builder = CSRBuilder(max(n_total, 1), spill_threshold=spill_threshold, spill_dir=spill_dir)
    one_k = jdd.to_lower()
    n = one_k.nodes
    if n:
        pmf_1k = one_k.pmf()
        pmf_2k = jdd.pmf()
        qbar = one_k.average_degree()
        position = {int(k): p for p, k in enumerate(degrees.tolist())}
        for (k1, k2), joint_probability in sorted(pmf_2k.items()):
            a_pos, b_pos = position.get(k1), position.get(k2)
            if a_pos is None or b_pos is None:
                continue
            s1 = int(starts[a_pos + 1] - starts[a_pos])
            s2 = int(starts[b_pos + 1] - starts[b_pos])
            p = min(1.0, (qbar / n) * joint_probability / (pmf_1k[k1] * pmf_1k[k2]))
            same = k1 == k2
            possible = s1 * (s1 - 1) // 2 if same else s1 * s2
            if possible == 0 or p <= 0:
                continue
            edge_target = int(rng.binomial(possible, p))
            i, j = _distinct_pairs(s1, s2, edge_target, rng, same_class=same)
            for begin in range(0, len(i), EDGE_CHUNK):
                builder.add_edges(
                    int(starts[a_pos]) + i[begin : begin + EDGE_CHUNK],
                    int(starts[b_pos]) + j[begin : begin + EDGE_CHUNK],
                )
    return builder.finalize(path, encoding=encoding, metadata={"method": "stochastic", "d": 2})


#: ``(method, d) -> streaming generator`` over the matching distribution type.
STREAMING_GENERATORS = {
    ("pseudograph", 1): streaming_pseudograph_1k,
    ("pseudograph", 2): streaming_pseudograph_2k,
    ("stochastic", 1): streaming_stochastic_1k,
    ("stochastic", 2): streaming_stochastic_2k,
}


__all__ = [
    "EDGE_CHUNK",
    "STREAMING_GENERATORS",
    "streaming_pseudograph_1k",
    "streaming_pseudograph_2k",
    "streaming_stochastic_1k",
    "streaming_stochastic_2k",
]
