"""dK generators: flat edge chunks straight into the CSR builder.

These are the one implementation of the stochastic (§4.1.1) and pseudograph
(§4.1.2) constructions.  Each emits flat ``(u, v)`` endpoint chunks into a
:class:`~repro.graph.mmap_io.CSRBuilder` (external sort-by-key merge), so
peak memory is bounded by the builder's spill threshold and a
10^6–10^7-node topology streams onto disk as a memory-mapped
:class:`~repro.kernels.biggraph.BigGraph`.  The in-memory
:class:`SimpleGraph` generators of :mod:`repro.generators.pseudograph` and
:mod:`repro.generators.stochastic` are these constructions followed by
:meth:`BigGraph.to_simple_graph`.

* The pseudograph matchings assign node ids sequentially over ascending
  degree classes and pair stubs/edge-ends by uniform shuffles; the builder
  drops self-loops and collapses parallel edges.
* The stochastic constructions use the fact that the Chung–Lu /
  block-model connection probability depends only on the endpoint degree
  classes: per class pair the edge count is one binomial draw (the sum of
  the per-pair Bernoullis) placed on a uniform set of that many distinct
  pairs (:func:`_distinct_pairs`, exact at every density).  That is the
  per-pair model drawn block-wise, at O(m) instead of O(n²) cost.

The sequential loop-avoiding 2K matching (``matching_2k``) is excluded:
its accept/reject step depends on the partially built adjacency, which is
inherently per-edge sequential and incompatible with streaming chunks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.distributions import DegreeDistribution, JointDegreeDistribution
from repro.exceptions import GenerationError
from repro.graph.mmap_io import CSRBuilder, sorted_unique
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import BigGraph
from repro.utils.rng import RngLike, ensure_rng

#: Endpoints emitted into the builder per chunk.
EDGE_CHUNK = 2_000_000


def _class_layout(node_counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """(degrees, first node id per class, next free id): ascending classes.

    Node ids are assigned sequentially over ascending degree classes
    starting at 0, so the ids of a class are one contiguous range.
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

    The classical configuration model / PLRG: ``k`` stubs per degree-``k``
    node, one uniform shuffle, consecutive stubs paired; self-loops dropped,
    parallels collapsed.
    ``path`` persists the result as a BigGraph artifact directory (the
    returned graph is then memory-mapped from it).
    """
    rng = ensure_rng(rng)
    if one_k.stub_count % 2:
        raise GenerationError("the degree distribution has an odd number of stubs")
    degrees, starts, n = _class_layout(dict(one_k.counts))
    builder = CSRBuilder(n, spill_threshold=spill_threshold, spill_dir=spill_dir)
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

    ``m(k1, k2)`` edges get ends labelled ``k1`` and ``k2``; the edge-ends
    labelled ``k`` are shuffled and grouped ``k`` at a time into the
    degree-``k`` nodes.  Each degree's shuffled slot array is consumed class
    pair by class pair, in sorted order.
    """
    rng = ensure_rng(rng)
    node_counts = jdd.node_counts()
    degrees, starts, next_id = _class_layout(node_counts)
    n = next_id + jdd.zero_degree_nodes
    builder = CSRBuilder(n, spill_threshold=spill_threshold, spill_dir=spill_dir)
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


def _distinct_indices(possible: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct uniform integers of ``[0, possible)``, ascending.

    Above half the population the complement is sampled instead, so the
    oversample-and-unique loop always runs where at least half the space is
    free: each round keeps most of its draws and memory stays O(count).
    Keeping a uniform subset of an exchangeable set of distinct draws keeps
    the law exact.
    """
    if count > possible // 2:
        keep = np.ones(possible, dtype=bool)
        keep[_distinct_indices(possible, possible - count, rng)] = False
        return np.flatnonzero(keep)
    collected = np.empty(0, dtype=np.int64)
    while len(collected) < count:
        need = count - len(collected)
        free = possible - len(collected)
        # coupon-collector count of draws expected to hit `need` new values
        batch = int(1.05 * possible * math.log1p(need / (free - need))) + 64
        collected = sorted_unique(
            np.concatenate((collected, rng.integers(0, possible, size=batch, dtype=np.int64)))
        )
    if len(collected) > count:
        collected = np.sort(rng.permutation(collected)[:count])
    return collected


def _distinct_pairs(
    n_left: int,
    n_right: int,
    count: int,
    rng: np.random.Generator,
    *,
    same_class: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``count`` distinct uniform pairs between two classes, vectorized.

    ``same_class`` means both classes are one node set: pairs are then
    unordered ``(i, j)`` with ``i < j``.  Every ``count`` from 0 to the
    number of possible pairs is valid; the pairs are a uniform
    ``count``-subset of them, indexed row-major.
    """
    possible = n_left * (n_left - 1) // 2 if same_class else n_left * n_right
    if not 0 <= count <= possible:
        raise ValueError(f"cannot draw {count} distinct pairs out of {possible}")
    index = _distinct_indices(possible, count, rng)
    if not same_class:
        return index // n_right, index % n_right
    # row i of the upper triangle starts at offset(i) = i (2 n - 1 - i) / 2;
    # invert in floating point, then correct the row by one either way
    b = 2 * n_left - 1
    row = ((b - np.sqrt(b * b - 8.0 * index)) // 2).astype(np.int64)
    row += (row + 1) * (b - row - 1) // 2 <= index
    row -= row * (b - row) // 2 > index
    return row, index - row * (b - row) // 2 + row + 1


def _add_block(builder, starts, a_pos: int, b_pos: int, p: float, rng) -> None:
    """Connect each pair of two degree classes with probability ``p``.

    The block's edge count is one ``Binomial(possible, p)`` draw, placed on
    that many distinct uniform pairs (unordered when ``a_pos == b_pos``).
    """
    s1 = int(starts[a_pos + 1] - starts[a_pos])
    s2 = int(starts[b_pos + 1] - starts[b_pos])
    same = a_pos == b_pos
    possible = s1 * (s1 - 1) // 2 if same else s1 * s2
    if possible == 0 or p <= 0:
        return
    i, j = _distinct_pairs(s1, s2, int(rng.binomial(possible, p)), rng, same_class=same)
    for begin in range(0, len(i), EDGE_CHUNK):
        builder.add_edges(
            int(starts[a_pos]) + i[begin : begin + EDGE_CHUNK],
            int(starts[b_pos]) + j[begin : begin + EDGE_CHUNK],
        )


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

    Node ``i`` carries the expected degree ``q_i`` of the target degree
    sequence and each pair connects with ``p = min(1, q_i q_j / Σq)``.  The
    per-pair Bernoullis are drawn degree class by degree class: within a
    class pair every node pair shares the same ``p``, so the block's edge
    count is ``Binomial(possible, p)`` placed on distinct uniform pairs —
    the identical model at O(m) cost.
    """
    rng = ensure_rng(rng)
    degrees, starts, n = _class_layout(dict(one_k.counts))
    builder = CSRBuilder(n, spill_threshold=spill_threshold, spill_dir=spill_dir)
    total = float(sum(k * c for k, c in one_k.counts.items()))
    if n >= 2 and total > 0:
        live = [p for p, k in enumerate(degrees.tolist()) if k > 0]
        for index, a_pos in enumerate(live):
            for b_pos in live[index:]:
                p = min(1.0, int(degrees[a_pos]) * int(degrees[b_pos]) / total)
                _add_block(builder, starts, a_pos, b_pos, p, rng)
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

    Nodes are grouped into the degree classes the JDD implies; class pair
    ``(k1, k2)`` connects with ``p = (q̄/n) P(k1,k2) / (P(k1) P(k2))`` capped
    at one, which reproduces the expected JDD.  Per class pair the edge
    count is binomial and placed on distinct uniform pairs.
    """
    rng = ensure_rng(rng)
    node_counts = jdd.node_counts()
    degrees, starts, next_id = _class_layout(node_counts)
    n_total = next_id + jdd.zero_degree_nodes
    builder = CSRBuilder(n_total, spill_threshold=spill_threshold, spill_dir=spill_dir)
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
            p = min(1.0, (qbar / n) * joint_probability / (pmf_1k[k1] * pmf_1k[k2]))
            _add_block(builder, starts, a_pos, b_pos, p, rng)
    return builder.finalize(path, encoding=encoding, metadata={"method": "stochastic", "d": 2})


def in_memory(build, distribution, rng: RngLike) -> SimpleGraph:
    """``build(distribution, rng=rng)`` materialized as a :class:`SimpleGraph`."""
    return build(distribution, rng=rng).to_simple_graph()


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
