"""Vectorized rewiring engine: batched Markov-chain moves on flat edge arrays.

This is the ``"csr"``-backend counterpart of the pure-Python rewiring loops
in :mod:`repro.generators.rewiring` (Sections 4.1.4 and 5 of the paper).
Where the Python engine performs one move at a time through
:class:`~repro.graph.simple_graph.SimpleGraph` mutations (adjacency sets, an
edge-position dict, per-move ``Swap`` objects), this engine keeps the whole
chain state in flat structures built once per chain:

* ``edge_u`` / ``edge_v`` — the edge list as two parallel endpoint arrays;
  every move rewrites at most two slots in place (the edge count is
  invariant under all dK-preserving and targeting moves);
* an O(1)-membership *edge hash-set* of packed canonical endpoint keys
  (``min * n + max``), replacing ``has_edge`` / ``add_edge`` /
  ``remove_edge`` round-trips;
* for 2K-style proposals, a *degree-bucketed oriented edge-end index*
  mapping each head degree to the packed ``2 * slot + side`` ends carrying
  it.  Because 2K moves exchange heads of equal degree in place, the bucket
  contents are invariant for the whole chain — the index is built once and
  never updated;
* for 3K acceptance tests and 3K-targeting objectives, a batched
  wedge/triangle delta kernel (:class:`_ThreeKState`): fixed-capacity
  adjacency rows plus a packed adjacency *bitset*, both updated in O(deg)
  per accepted move, with the exact per-proposal deltas of a whole batch
  evaluated at once through NumPy gather / bitset-membership /
  sort-and-segment reductions.  The 3K-*preserving* chain only needs a
  zero/nonzero verdict per proposal (a common-neighbor count filter
  followed by packed-key multiset equality); the 3K-*targeting* chain gets
  full per-proposal delta lists applied to running packed wedge/triangle
  histograms — the vectorized analogue of
  :class:`~repro.generators.threek.ThreeKTracker`.

Proposals are drawn in vectorized batches: each random quantity (edge slot,
partner, orientation, Metropolis uniform) comes from its own spawned child
stream, consumed exactly once per proposal — so the chain's output depends
only on the seed, *not* on the batch size, and is deterministic per seed.
The batch arrays are converted to Python ints in bulk (``.tolist()``) and
validated/applied by a tight scalar loop; the per-move cost is an order of
magnitude below the Python engine's (see ``benchmarks/bench_rewiring.py``).
Because the 3K batch is evaluated against a snapshot of the chain state, a
proposal whose endpoints were touched by an *earlier accepted move of the
same batch* is detected through per-node move stamps and transparently
re-evaluated against the live state — which is what keeps the 3K chains
batch-size invariant too.

The two engines draw from differently-structured streams, so for a given
seed they produce *different* (but individually deterministic) dK-random
graphs with *identical* preserved invariants; the engine choice is therefore
excluded from all artifact-store cache keys, exactly like the metric
backends.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.extraction import joint_degree_distribution
from repro.generators.rewiring.chain import (
    DEFAULT_BATCH_SIZE,
    THREEK_BATCH_SIZE,
    record_batch_efficiency,
    record_chain_stats,
    warn_not_converged,
)
from repro.generators.rewiring.targeting import (
    TargetingResult,
    _distance_change,
    _squared_distance,
    constant_temperature,
)
from repro.graph.simple_graph import SimpleGraph
from repro.graph.subgraphs import (
    triangle_degree_counts,
    triangle_key,
    wedge_degree_counts,
    wedge_key,
)
from repro.kernels.backend import register_kernel
from repro.utils.rng import RngLike, ensure_rng

#: Name recorded in the chain stats of graphs built by this engine.
ENGINE_NAME = "csr"

#: Node-count ceiling for the batched 3K kernel: its packed adjacency bitset
#: costs ``n * ceil(n / 64) * 8`` bytes (128 MiB at the default), so beyond
#: this the 3K chains fall back to the exact per-move scalar path.
BITSET_MAX_NODES = 32768

#: Snapshot-evaluation width of the 3K-targeting chain.  RNG draws still
#: happen at ``batch_size`` (draw width is semantics-neutral), but deltas are
#: evaluated against a refreshed snapshot every this-many proposals: smaller
#: chunks mean fewer proposals sit behind an accepted move of the same chunk
#: and fall back to the per-move scalar path.
THREEK_EVAL_CHUNK = 160

#: Slot cap for the 3K-targeting chain's dense rank-packed sufficient
#: statistic (``2 * n_ranks**3`` int64 slots, i.e. 128 MiB at the cap).
#: Graphs whose degree diversity exceeds it take the scalar chain instead.
THREEK_RANK_SLOTS_MAX = 16_777_216


def _spawn_streams(rng, count: int) -> list:
    """``count`` independent child generators, one per random quantity.

    Spawning (instead of slicing one stream across batch draws) is what makes
    the engine's output independent of the batch size: stream ``k``'s ``i``-th
    value is always proposal ``i``'s ``k``-th random quantity, however the
    draws are batched.
    """
    try:
        return list(rng.spawn(count))
    except (AttributeError, TypeError, ValueError):
        # generators without a seed sequence (or pre-1.25 NumPy): derive
        # children from the parent stream instead
        seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(count)]
        return [np.random.default_rng(seed) for seed in seeds]


class RewiringState:
    """Flat chain state of a rewiring Markov chain over a fixed edge count.

    Orientation convention for the packed edge-end index: entry
    ``2 * slot + side`` denotes the oriented edge whose *head* is
    ``edge_v[slot]`` for ``side == 0`` and ``edge_u[slot]`` for
    ``side == 1``.  Degree-matched head exchanges write the new head into the
    same column, which keeps every bucket entry's head degree invariant.
    """

    __slots__ = (
        "n",
        "m",
        "edge_u",
        "edge_v",
        "edge_key",
        "edge_set",
        "degrees",
        "bucket_table",
        "adj",
    )

    def __init__(self, graph: SimpleGraph):
        n = graph.number_of_nodes
        self.n = n
        self.m = graph.number_of_edges
        edge_u: list[int] = []
        edge_v: list[int] = []
        edge_key: list[int] = []
        for u, v in graph.edges():  # canonical (u <= v), so u * n + v is the packed key
            edge_u.append(u)
            edge_v.append(v)
            edge_key.append(u * n + v)
        self.edge_u = edge_u
        self.edge_v = edge_v
        # per-slot packed canonical key, cached so applying a move never
        # recomputes the keys of the edges it removes
        self.edge_key = edge_key
        self.edge_set = set(edge_key)
        self.degrees = graph.degrees()
        self.bucket_table: list[list[int]] | None = None
        self.adj: list[set[int]] | None = None

    def build_buckets(self) -> list[list[int]]:
        """Degree-bucketed oriented edge-end index (packed ``2*slot+side``).

        Stored degree-*indexed* (``bucket_table[k]`` is the list of ends
        whose head carries degree ``k``): the proposal loops hit it once per
        proposal, and list indexing beats dict hashing there.
        """
        buckets: dict[int, list[int]] = {}
        degrees = self.degrees
        edge_u = self.edge_u
        edge_v = self.edge_v
        for slot in range(self.m):
            buckets.setdefault(degrees[edge_v[slot]], []).append(2 * slot)
            buckets.setdefault(degrees[edge_u[slot]], []).append(2 * slot + 1)
        table: list[list[int]] = [[] for _ in range(max(buckets, default=0) + 1)]
        for degree, entries in buckets.items():
            table[degree] = entries
        self.bucket_table = table
        return table

    def build_adjacency(self) -> list[set[int]]:
        """Adjacency sets for the wedge/triangle delta computations."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in zip(self.edge_u, self.edge_v):
            adj[u].add(v)
            adj[v].add(u)
        self.adj = adj
        return adj

    def to_graph(self) -> SimpleGraph:
        """Materialize the current edge arrays as a :class:`SimpleGraph`."""
        return SimpleGraph.from_flat_edges(self.n, self.edge_u, self.edge_v)


# --------------------------------------------------------------------------- #
# wedge/triangle toggles over plain adjacency sets (3K acceptance / targeting)
# --------------------------------------------------------------------------- #
def _toggle_remove(adj, degrees, u, v, wedges, triangles) -> None:
    """Remove edge ``(u, v)`` from ``adj``, accumulating the exact 3K delta."""
    neighbors_u = adj[u]
    neighbors_v = adj[v]
    ku = degrees[u]
    kv = degrees[v]
    for x in neighbors_u:
        if x == v:
            continue
        kx = degrees[x]
        if x in neighbors_v:
            key = triangle_key(ku, kv, kx)
            triangles[key] = triangles.get(key, 0) - 1
            key = wedge_key(kx, ku, kv)
            wedges[key] = wedges.get(key, 0) + 1
        else:
            key = wedge_key(ku, kv, kx)
            wedges[key] = wedges.get(key, 0) - 1
    for y in neighbors_v:
        if y == u or y in neighbors_u:
            continue
        key = wedge_key(kv, ku, degrees[y])
        wedges[key] = wedges.get(key, 0) - 1
    neighbors_u.discard(v)
    neighbors_v.discard(u)


def _toggle_add(adj, degrees, u, v, wedges, triangles) -> None:
    """Add edge ``(u, v)`` to ``adj``, accumulating the exact 3K delta."""
    neighbors_u = adj[u]
    neighbors_v = adj[v]
    ku = degrees[u]
    kv = degrees[v]
    for x in neighbors_u:
        kx = degrees[x]
        if x in neighbors_v:
            key = triangle_key(ku, kv, kx)
            triangles[key] = triangles.get(key, 0) + 1
            key = wedge_key(kx, ku, kv)
            wedges[key] = wedges.get(key, 0) - 1
        else:
            key = wedge_key(ku, kv, kx)
            wedges[key] = wedges.get(key, 0) + 1
    for y in neighbors_v:
        if y == u or y in neighbors_u:
            continue
        key = wedge_key(kv, ku, degrees[y])
        wedges[key] = wedges.get(key, 0) + 1
    neighbors_u.add(v)
    neighbors_v.add(u)


def _swap_three_k_delta(adj, degrees, a, b, c, d):
    """Toggle ``(a,b),(c,d) -> (a,d),(c,b)`` on ``adj``; return its 3K delta."""
    wedges: dict = {}
    triangles: dict = {}
    _toggle_remove(adj, degrees, a, b, wedges, triangles)
    _toggle_remove(adj, degrees, c, d, wedges, triangles)
    _toggle_add(adj, degrees, a, d, wedges, triangles)
    _toggle_add(adj, degrees, c, b, wedges, triangles)
    return wedges, triangles


def _revert_swap_toggles(adj, a, b, c, d) -> None:
    """Undo the adjacency toggles of :func:`_swap_three_k_delta`."""
    adj[a].discard(d)
    adj[d].discard(a)
    adj[c].discard(b)
    adj[b].discard(c)
    adj[a].add(b)
    adj[b].add(a)
    adj[c].add(d)
    adj[d].add(c)


# --------------------------------------------------------------------------- #
# batched 3K delta kernel (flat rows + bitset + packed-key reductions)
# --------------------------------------------------------------------------- #
#
# A 2K-preserving swap ``(a,b),(c,d) -> (a,d),(c,b)`` (with ``deg b == deg d``
# and, by validity, ``a-d``/``c-b`` absent) changes the wedge/triangle
# distributions by an amount expressible entirely on the *pre-swap* adjacency:
#
# * triangles destroyed: ``(ka,kb,kx)`` for ``x in N(a)&N(b)`` and
#   ``(kc,kd,kx)`` for ``x in N(c)&N(d)``;
# * triangles created: ``(ka,kd,ky)`` for ``y in (N(a)&N(d)) - {b,c}`` and
#   ``(kc,kb,ky)`` for ``y in (N(c)&N(b)) - {d,a}``;
# * open two-paths change only at the exchanged heads ``b`` and ``d`` (the
#   path deltas at ``a`` and ``c`` cancel because ``kb == kd``): at center
#   ``b`` every other neighbor ``x`` trades a ``(ka,kx)`` pair for a
#   ``(kc,kx)`` pair, and symmetrically at ``d``;
# * each triangle delta also closes/opens the path at its three corners, so
#   it contributes the opposite sign to the three corner wedge keys.
#
# All keys are packed into int64 (base ``degree_pack``) so per-proposal
# deltas reduce to integer-array sort/segment operations; the scalar
# evaluators below produce byte-identical items and back both the
# within-batch staleness path and the property tests against the
# ``_toggle_remove``/``_toggle_add`` reference.


def _pack_sorted3(k1, k2, k3, base):
    """Packed key of the sorted degree triple (vectorized)."""
    lo = np.minimum(np.minimum(k1, k2), k3)
    hi = np.maximum(np.maximum(k1, k2), k3)
    mid = k1 + k2 + k3 - lo - hi
    return (lo * base + mid) * base + hi


def _pack_sorted2(p, q, base):
    """Packed key of the sorted degree pair (vectorized)."""
    return np.minimum(p, q) * base + np.maximum(p, q)


def _pack_wedge(e1, e2, center, base):
    """Packed key of the canonical wedge tuple (min end, center, max end)."""
    return (np.minimum(e1, e2) * base + center) * base + np.maximum(e1, e2)


def _bitset_member(bits, u, v):
    """Elementwise adjacency test ``v[k] in N(u[k])`` on the packed bitset."""
    return (bits[u, v >> 6] >> (v & 63).astype(np.uint64)) & np.uint64(1)


class _ThreeKState:
    """Neighborhood structures backing the batched 3K delta kernel.

    Built once per 3K chain on top of a :class:`RewiringState` and updated in
    O(deg) per accepted move:

    * ``rows``/``indptr``/``deg`` — fixed-capacity (degrees are invariant
      under every 2K-preserving move) unsorted adjacency rows, gathered
      raggedly by the batch evaluators;
    * ``bits`` — ``n x ceil(n/64)`` uint64 adjacency bitset for O(1)
      vectorized membership tests;
    * ``edge_u``/``edge_v`` — NumPy mirrors of the flat edge arrays for
      vectorized proposal resolution;
    * ``bucket_flat``/``bucket_start``/``bucket_len`` — the degree-bucketed
      edge-end index flattened for vectorized partner lookup (invariant for
      the whole chain, like the list-of-lists original);
    * ``offset_of`` — per-node ``neighbor -> row offset`` dicts, so an
      accepted move rewrites its four row cells in O(1) instead of searching;
    * ``nbrdeg`` — per-node neighbor-*degree* histograms.  A swap only
      changes the histograms of the two exchanged heads (the other two rows
      trade equal-degree neighbors), so maintenance is four dict bumps per
      accepted move, and the staleness-path evaluators get their open-path
      deltas in O(distinct neighbor degrees) instead of O(deg);
    * ``stamp``/``clock`` — per-node stamps of the last accepted move that
      rewrote the node's row, backing the within-batch staleness test.

    The NumPy-side structures (``rows``, ``bits``, ``edge_u``/``edge_v``)
    are only *read* by the vectorized batch evaluators, never mid-batch, so
    :meth:`apply_swap` merely queues their updates and :meth:`flush` applies
    them in bulk at the next batch boundary — per-element NumPy scalar
    writes are ~10x the cost of the equivalent list/dict operation and were
    the single hottest part of the accept path.
    """

    __slots__ = (
        "n",
        "degrees",
        "deg",
        "indptr",
        "indptr_list",
        "rows",
        "bits",
        "edge_u",
        "edge_v",
        "bucket_flat",
        "bucket_start",
        "bucket_len",
        "degree_pack",
        "tri_off",
        "rankv",
        "rankv_list",
        "rank_np",
        "rank_list",
        "n_ranks",
        "offset_of",
        "nbrdeg",
        "stamp",
        "clock",
        "pend_eu",
        "pend_ev",
        "pend_rows",
        "pend_bit_node",
        "pend_bit_nbr",
    )

    def __init__(self, state: RewiringState, min_degree_pack: int = 0):
        n = state.n
        self.n = n
        self.degrees = state.degrees
        deg = np.asarray(state.degrees, dtype=np.int64)
        self.deg = deg
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        self.indptr = indptr
        edge_u = np.asarray(state.edge_u, dtype=np.int64)
        edge_v = np.asarray(state.edge_v, dtype=np.int64)
        self.edge_u = edge_u.copy()
        self.edge_v = edge_v.copy()
        src = np.concatenate((edge_u, edge_v))
        dst = np.concatenate((edge_v, edge_u))
        order = np.argsort(src, kind="stable")
        self.rows = dst[order]
        words = (n + 63) >> 6
        bits = np.zeros((n, words), dtype=np.uint64)
        if src.size:
            np.bitwise_or.at(
                bits, (src, dst >> 6), np.uint64(1) << (dst & 63).astype(np.uint64)
            )
        self.bits = bits
        table = state.bucket_table if state.bucket_table is not None else []
        lens = np.array([len(bucket) for bucket in table], dtype=np.int64)
        starts = np.zeros(max(lens.size, 1), dtype=np.int64)
        if lens.size > 1:
            np.cumsum(lens[:-1], out=starts[1 : lens.size])
        self.bucket_len = lens
        self.bucket_start = starts[: max(lens.size, 1)]
        self.bucket_flat = np.array(
            [end for bucket in table for end in bucket], dtype=np.int64
        )
        top = int(deg.max()) if n else 0
        self.degree_pack = max(top, min_degree_pack) + 1
        self.tri_off = self.degree_pack**3
        # degree-rank packing (targeting evaluators): dense unified keys
        # below ``2 * n_ranks**3``.  Seeded from the node degrees here; the
        # targeting chain overrides the map when its target carries degrees
        # the graph lacks.
        kd = np.unique(deg)
        self.n_ranks = int(kd.size)
        rank_np = np.zeros(int(kd[-1]) + 1 if kd.size else 1, dtype=np.int64)
        rank_np[kd] = np.arange(kd.size, dtype=np.int64)
        self.rank_np = rank_np
        self.rank_list = rank_np.tolist()
        self.rankv = rank_np[deg]
        self.rankv_list = self.rankv.tolist()
        degrees = state.degrees
        offset_of: list[dict[int, int]] = [{} for _ in range(n)]
        nbrdeg: list[dict[int, int]] = [{} for _ in range(n)]
        rows_list = self.rows.tolist()
        indptr_list = indptr.tolist()
        for node in range(n):
            offsets = offset_of[node]
            hist = nbrdeg[node]
            for offset, neighbor in enumerate(
                rows_list[indptr_list[node] : indptr_list[node + 1]]
            ):
                offsets[neighbor] = offset
                k = degrees[neighbor]
                hist[k] = hist.get(k, 0) + 1
        self.offset_of = offset_of
        self.nbrdeg = nbrdeg
        self.indptr_list = indptr_list
        self.stamp = [0] * n
        self.clock = 0
        self.pend_eu: dict[int, int] = {}
        self.pend_ev: dict[int, int] = {}
        self.pend_rows: dict[int, int] = {}
        self.pend_bit_node: list[int] = []
        self.pend_bit_nbr: list[int] = []

    def row_set(self, u: int):
        """The current neighbor set of ``u`` (scalar staleness path).

        A dict keys view: set operations work on it directly and it stays
        live-updated, with no per-call copy.
        """
        return self.offset_of[u].keys()

    def apply_swap(self, a, b, c, d, i, j, side_i, side_j) -> None:
        """Commit ``(a,b),(c,d) -> (a,d),(c,b)``: update the live python-side
        structures, queue the NumPy-side writes for :meth:`flush`, and stamp
        the touched nodes with the move clock."""
        if side_i:
            self.pend_eu[i] = d
        else:
            self.pend_ev[i] = d
        if side_j:
            self.pend_eu[j] = b
        else:
            self.pend_ev[j] = b
        indptr = self.indptr_list
        offset_of = self.offset_of
        pend_rows = self.pend_rows
        bit_node = self.pend_bit_node
        bit_nbr = self.pend_bit_nbr
        self.clock += 1
        clock = self.clock
        stamp = self.stamp
        for node, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
            offsets = offset_of[node]
            offset = offsets.pop(old)
            offsets[new] = offset
            pend_rows[indptr[node] + offset] = new
            bit_node.append(node)
            bit_nbr.append(old)
            bit_node.append(node)
            bit_nbr.append(new)
            stamp[node] = clock
        # only the exchanged heads' neighbor-degree histograms change: a and
        # c swap equal-degree neighbors (deg b == deg d)
        degrees = self.degrees
        ka = degrees[a]
        kc = degrees[c]
        _bump(self.nbrdeg[b], ka, -1)
        _bump(self.nbrdeg[b], kc, 1)
        _bump(self.nbrdeg[d], kc, -1)
        _bump(self.nbrdeg[d], ka, 1)

    def flush(self) -> None:
        """Apply the queued NumPy-side updates (batch boundary only).

        Row rewrites and edge-mirror writes are last-value-wins dicts; the
        bitset toggles are an XOR sequence, which ``np.bitwise_xor.at``
        replays correctly even with repeated ``(node, word)`` targets.
        """
        if self.pend_rows:
            count = len(self.pend_rows)
            idx = np.fromiter(self.pend_rows.keys(), np.int64, count)
            self.rows[idx] = np.fromiter(self.pend_rows.values(), np.int64, count)
            self.pend_rows.clear()
        if self.pend_eu:
            count = len(self.pend_eu)
            idx = np.fromiter(self.pend_eu.keys(), np.int64, count)
            self.edge_u[idx] = np.fromiter(self.pend_eu.values(), np.int64, count)
            self.pend_eu.clear()
        if self.pend_ev:
            count = len(self.pend_ev)
            idx = np.fromiter(self.pend_ev.keys(), np.int64, count)
            self.edge_v[idx] = np.fromiter(self.pend_ev.values(), np.int64, count)
            self.pend_ev.clear()
        if self.pend_bit_node:
            node = np.array(self.pend_bit_node, dtype=np.int64)
            nbr = np.array(self.pend_bit_nbr, dtype=np.int64)
            mask = np.uint64(1) << (nbr & 63).astype(np.uint64)
            np.bitwise_xor.at(self.bits, (node, nbr >> 6), mask)
            del self.pend_bit_node[:]
            del self.pend_bit_nbr[:]


def _ragged_rows(tk: _ThreeKState, nodes):
    """Concatenated adjacency rows of ``nodes``: ``(pid, neighbor)`` pairs."""
    lens = tk.deg[nodes]
    if lens.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    csum = np.cumsum(lens)
    total = int(csum[-1])
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pid = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(csum - lens, lens)
    return pid, tk.rows[tk.indptr[nodes][pid] + offsets]


def _common_neighbors(tk: _ThreeKState, u, w, ex1=None, ex2=None):
    """Common neighbors of node pairs ``(u[p], w[p])`` as ``(pid, x)`` pairs.

    Iterates the smaller-degree row of each pair and membership-tests the
    other via the bitset; ``ex1``/``ex2`` drop the named nodes from the
    result (value-based, hence symmetric in ``u``/``w``).
    """
    pick_w = tk.deg[w] < tk.deg[u]
    iterate = np.where(pick_w, w, u)
    other = np.where(pick_w, u, w)
    pid, q = _ragged_rows(tk, iterate)
    mask = _bitset_member(tk.bits, other[pid], q).astype(bool)
    if ex1 is not None:
        mask &= (q != ex1[pid]) & (q != ex2[pid])
    return pid[mask], q[mask]


def _nonzero_net_pids(pid, key, sign, n_pids):
    """Boolean mask of pids whose signed (pid, key) entries do not cancel."""
    out = np.zeros(n_pids, dtype=bool)
    if pid.size == 0:
        return out
    order = np.lexsort((key, pid))
    p = pid[order]
    k = key[order]
    s = sign[order]
    boundary = np.empty(p.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (p[1:] != p[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(boundary)
    nets = np.add.reduceat(s, starts)
    out[p[starts][nets != 0]] = True
    return out


def _swap_neighborhoods(tk: _ThreeKState, aP, bP, cP, dP):
    """The four common-neighbor families every 3K delta is built from, fused.

    One ragged-row + bitset-membership pass over the concatenated pair
    families ``ab, cd, ad, cb`` instead of four: per kept common neighbor,
    returns ``(rel, x, fam)`` — the proposal index, the common neighbor, and
    the family index 0..3.  Family parity encodes the kept tail (even: ``a``,
    odd: ``c``); families 0..1 are destroyed paths, 2..3 created ones.  The
    created families drop the swap's own endpoints (``ad`` excludes ``b, c``;
    ``cb`` excludes ``d, a``), matching the scalar evaluators.
    """
    npids = aP.size
    u = np.concatenate((aP, cP, aP, cP))
    w = np.concatenate((bP, dP, dP, bP))
    none = np.full(npids, -1, dtype=np.int64)
    ex1 = np.concatenate((none, none, bP, dP))
    ex2 = np.concatenate((none, none, cP, aP))
    pick_w = tk.deg[w] < tk.deg[u]
    iterate = np.where(pick_w, w, u)
    other = np.where(pick_w, u, w)
    pid, q = _ragged_rows(tk, iterate)
    mask = _bitset_member(tk.bits, other[pid], q).astype(bool)
    mask &= (q != ex1[pid]) & (q != ex2[pid])
    pid = pid[mask]
    return pid % npids, q[mask], pid // npids


def _batch_resolve(tk: _ThreeKState, ends, positions):
    """Vectorized 2K-proposal resolution against the snapshot state.

    Mirrors the scalar loops exactly, including ``int(r * len(bucket))``
    truncation, and returns the resolved slots/sides/endpoints plus the
    snapshot validity mask (distinct slots, simple-graph result).
    """
    i = ends >> 1
    side = ends & 1
    edge_u = tk.edge_u
    edge_v = tk.edge_v
    b = np.where(side == 1, edge_u[i], edge_v[i])
    a = np.where(side == 1, edge_v[i], edge_u[i])
    kb = tk.deg[b]
    entry = tk.bucket_flat[
        tk.bucket_start[kb] + (positions * tk.bucket_len[kb]).astype(np.int64)
    ]
    j = entry >> 1
    eside = entry & 1
    d = np.where(eside == 1, edge_u[j], edge_v[j])
    c = np.where(eside == 1, edge_v[j], edge_u[j])
    valid = (i != j) & (a != d) & (c != b)
    memb = _bitset_member(tk.bits, np.concatenate((a, c)), np.concatenate((d, b)))
    half = a.shape[0]
    valid &= (memb[:half] | memb[half:]) == 0
    return i, side, a, b, j, eside, c, d, valid


def _batch_zero_delta(tk: _ThreeKState, a, b, c, d, valid):
    """Exact "swap leaves the 3K distribution unchanged" verdict per proposal.

    Three escalating filters, each vectorized across the batch: triangle
    count balance, triangle packed-key multiset equality (which also cancels
    the corner wedge contributions), then open-path pair multiset equality
    at the exchanged heads (skipped outright when ``ka == kc``).
    """
    zero = np.zeros(valid.shape[0], dtype=bool)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return zero
    aP, bP, cP, dP = a[idx], b[idx], c[idx], d[idx]
    deg = tk.deg
    base = tk.degree_pack
    ka, kb, kc = deg[aP], deg[bP], deg[cP]
    rel, x, fam = _swap_neighborhoods(tk, aP, bP, cP, dP)
    n_pids = idx.size
    made = fam >= 2
    destroyed = np.bincount(rel[~made], minlength=n_pids)
    created = np.bincount(rel[made], minlength=n_pids)
    ok = destroyed == created
    if ok.any():
        keep = ok[rel]
        relk = rel[keep]
        famk = fam[keep]
        # family parity encodes the kept tail: even -> a's degree, odd -> c's
        k1 = np.where((famk & 1) == 0, ka[relk], kc[relk])
        k2 = kb[relk]  # kb == kd: degree-matched heads
        k3 = deg[x[keep]]
        sign = np.where(made[keep], 1, -1).astype(np.int64)
        ok &= ~_nonzero_net_pids(relk, _pack_sorted3(k1, k2, k3, base), sign, n_pids)
    wsel = np.flatnonzero(ok & (ka != kc))
    if wsel.size:
        pid_b, xb = _ragged_rows(tk, bP[wsel])
        keep_b = xb != aP[wsel][pid_b]
        pid_b = pid_b[keep_b]
        kxb = deg[xb[keep_b]]
        pid_d, xd = _ragged_rows(tk, dP[wsel])
        keep_d = xd != cP[wsel][pid_d]
        pid_d = pid_d[keep_d]
        kxd = deg[xd[keep_d]]
        ka_s = ka[wsel]
        kc_s = kc[wsel]
        # the shared center degree (kb == kd) can be dropped from the keys
        wkey = np.concatenate(
            (
                _pack_sorted2(kc_s[pid_b], kxb, base),
                _pack_sorted2(ka_s[pid_d], kxd, base),
                _pack_sorted2(ka_s[pid_b], kxb, base),
                _pack_sorted2(kc_s[pid_d], kxd, base),
            )
        )
        half = pid_b.size + pid_d.size
        wpid = np.concatenate((pid_b, pid_d, pid_b, pid_d))
        wsign = np.concatenate(
            (np.full(half, 1, dtype=np.int64), np.full(half, -1, dtype=np.int64))
        )
        bad = _nonzero_net_pids(wpid, wkey, wsign, wsel.size)
        ok[wsel[bad]] = False
    zero[idx] = ok
    return zero


def _aggregate_per_pid(pid, key, sign, n_pids):
    """Net signed counts per (pid, key), as per-pid slices sorted by key.

    Returns ``(starts, keys, nets)`` — a python ``starts`` list plus numpy
    key/net arrays; pid ``p`` owns ``keys[starts[p]:starts[p+1]]`` with zero
    nets dropped — item-identical to the scalar evaluator's sorted dict items.
    """
    if pid.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return [0] * (n_pids + 1), empty, empty
    span = int(key.max()) + 1
    if n_pids <= (2**62) // span:
        # one fused-key argsort beats lexsort's two stable passes; ties are
        # exact (pid, key) duplicates, whose relative order is irrelevant
        order = np.argsort(pid * span + key)
    else:
        order = np.lexsort((key, pid))
    p = pid[order]
    k = key[order]
    s = sign[order]
    boundary = np.empty(p.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (p[1:] != p[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(boundary)
    nets = np.add.reduceat(s, starts)
    nonzero = nets != 0
    group_pid = p[starts][nonzero]
    slice_starts = np.searchsorted(group_pid, np.arange(n_pids + 1))
    return slice_starts.tolist(), k[starts][nonzero], nets[nonzero]


def _batch_full_delta(tk: _ThreeKState, a, b, c, d, valid):
    """Aggregated packed 3K deltas for every snapshot-valid proposal.

    Returns ``(starts, keys, nets, slot_of)``: proposal ``k`` (where
    ``valid[k]``) owns ``keys[starts[p]:starts[p+1]]`` at ``p = slot_of[k]``.
    Keys are rank-packed (base ``tk.n_ranks`` over degree *ranks*, so they
    are dense indices into the flat sufficient-statistic array) and unified —
    wedge keys live below ``n_ranks**3`` and triangle keys above it — so one
    slice walks the whole delta in ascending key order (wedges first, then
    triangles, matching :func:`_scalar_full_eval`).
    """
    idx = np.flatnonzero(valid)
    n_pids = idx.size
    slot_of = (np.cumsum(valid) - 1).tolist()
    if n_pids == 0:
        empty = np.empty(0, dtype=np.int64)
        return [0], empty, empty, slot_of
    aP, bP, cP, dP = a[idx], b[idx], c[idx], d[idx]
    deg = tk.rankv
    base = tk.n_ranks
    ka, kb, kc = deg[aP], deg[bP], deg[cP]
    tri_pid, x, fam = _swap_neighborhoods(tk, aP, bP, cP, dP)
    # family parity encodes the kept tail (even -> a, odd -> c); kb == kd
    k1 = np.where((fam & 1) == 0, ka[tri_pid], kc[tri_pid])
    k2 = kb[tri_pid]
    k3 = deg[x]
    tri_sign = np.where(fam >= 2, 1, -1).astype(np.int64)
    lo = np.minimum(np.minimum(k1, k2), k3)
    hi = np.maximum(np.maximum(k1, k2), k3)
    mid = k1 + k2 + k3 - lo - hi
    tri_key = (lo * base + mid) * base + hi
    # open-path deltas at the exchanged heads b and d; when ka == kc the
    # + and - contributions cancel key-by-key, so only the ka != kc rows
    # are gathered at all (same shortcut as _batch_zero_delta)
    wsel = np.flatnonzero(ka != kc)
    if wsel.size:
        pid_bl, xb = _ragged_rows(tk, bP[wsel])
        keep_b = xb != aP[wsel][pid_bl]
        pid_b = wsel[pid_bl[keep_b]]
        kxb = deg[xb[keep_b]]
        pid_dl, xd = _ragged_rows(tk, dP[wsel])
        keep_d = xd != cP[wsel][pid_dl]
        pid_d = wsel[pid_dl[keep_d]]
        kxd = deg[xd[keep_d]]
    else:
        pid_b = pid_d = np.empty(0, dtype=np.int64)
        kxb = kxd = np.empty(0, dtype=np.int64)
    ones_b = np.ones(pid_b.size, dtype=np.int64)
    ones_d = np.ones(pid_d.size, dtype=np.int64)
    all_pid = np.concatenate(
        (pid_b, pid_d, pid_b, pid_d, tri_pid, tri_pid, tri_pid, tri_pid)
    )
    all_key = np.concatenate(
        (
            _pack_wedge(kc[pid_b], kxb, kb[pid_b], base),
            _pack_wedge(ka[pid_d], kxd, kb[pid_d], base),
            _pack_wedge(ka[pid_b], kxb, kb[pid_b], base),
            _pack_wedge(kc[pid_d], kxd, kb[pid_d], base),
            # each triangle delta flips the closed path at its three corners
            (mid * base + lo) * base + hi,
            (lo * base + mid) * base + hi,
            (lo * base + hi) * base + mid,
            tri_key + base * base * base,
        )
    )
    all_sign = np.concatenate(
        (ones_b, ones_d, -ones_b, -ones_d, -tri_sign, -tri_sign, -tri_sign, tri_sign)
    )
    starts, keys, nets = _aggregate_per_pid(all_pid, all_key, all_sign, n_pids)
    return starts, keys, nets, slot_of


def _initial_threek_diff(tk: _ThreeKState, target):
    """Vectorized ``current - target`` sufficient statistics for 3K targeting.

    Returns ``(keys, vals, distance)``: aligned arrays of rank-packed unified
    keys (wedges below ``tk.n_ranks**3``, triangles above) and their
    ``current - target`` counts with zero entries dropped, plus the exact
    squared distance as a float.

    Triangles are enumerated once per incident edge through the batched
    common-neighbor kernel (each key's raw count is therefore divisible by
    3); wedge counts come from the per-center neighbor-degree histograms,
    whose pair expansion is tiny (sum over nodes of the squared number of
    distinct neighbor degrees) compared with walking all neighbor pairs.
    """
    base = tk.n_ranks
    tri_off = base * base * base
    rank_np = tk.rank_np
    deg = tk.rankv
    n = tk.n
    p_t, x_t = _common_neighbors(tk, tk.edge_u, tk.edge_v)
    ku_t = deg[tk.edge_u[p_t]]
    kv_t = deg[tk.edge_v[p_t]]
    kx_t = deg[x_t]
    tri_keys = _pack_sorted3(ku_t, kv_t, kx_t, base)
    t_uniq, t_counts = np.unique(tri_keys, return_counts=True)
    t_vals = t_counts // 3
    # each (edge, common neighbor) instance is one triangle corner: the pair
    # it closes at centre x must be removed from the open-wedge counts below
    corner_keys = _pack_wedge(ku_t, kv_t, kx_t, base)
    c_uniq, c_counts = np.unique(corner_keys, return_counts=True)
    nbrdeg = tk.nbrdeg
    t_len = np.fromiter((len(h) for h in nbrdeg), np.int64, n)
    flat = int(t_len.sum())
    # histogram keys are degree *values*; rank them for packing
    kx = rank_np[np.fromiter((k for h in nbrdeg for k in h), np.int64, flat)]
    hh = np.fromiter((v for h in nbrdeg for v in h.values()), np.int64, flat)
    tsq = t_len * t_len
    total = int(tsq.sum())
    if total:
        starts_flat = np.cumsum(t_len) - t_len
        rep_start = np.repeat(starts_flat, tsq)
        t_rep = np.repeat(t_len, tsq)
        r_local = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(tsq) - tsq, tsq
        )
        p_idx = rep_start + r_local // t_rep
        q_idx = rep_start + r_local % t_rep
        keep = p_idx <= q_idx
        p_idx = p_idx[keep]
        q_idx = q_idx[keep]
        kc_flat = np.repeat(deg, t_len)
        h1 = hh[p_idx]
        # distinct-degree pair (h1 * h2) wedges; same-degree pairs C(h, 2)
        w = np.where(p_idx == q_idx, h1 * (h1 - 1) // 2, h1 * hh[q_idx])
        wkeys = _pack_wedge(kx[p_idx], kx[q_idx], kc_flat[p_idx], base)
        w_uniq, w_inv = np.unique(wkeys, return_inverse=True)
        w_vals = np.bincount(w_inv, weights=w.astype(np.float64)).astype(np.int64)
    else:
        w_uniq = np.empty(0, np.int64)
        w_vals = np.empty(0, np.int64)
    parts_k = [w_uniq, c_uniq, t_uniq + tri_off]
    parts_v = [w_vals, -c_counts, t_vals]
    for counts, off in ((target.wedges, 0), (target.triangles, tri_off)):
        if counts:
            # target keys are degree-value triples; rank them component-wise
            # (the rank map is monotone, so ordered tuples stay ordered)
            arr = rank_np[np.array(list(counts.keys()), dtype=np.int64)]
            parts_k.append((arr[:, 0] * base + arr[:, 1]) * base + arr[:, 2] + off)
            parts_v.append(-np.fromiter(counts.values(), np.int64, len(counts)))
    all_keys = np.concatenate(parts_k)
    all_vals = np.concatenate(parts_v)
    if all_keys.size:
        uniq, inv = np.unique(all_keys, return_inverse=True)
        net = np.bincount(inv, weights=all_vals.astype(np.float64)).astype(np.int64)
        nonzero = net != 0
        keys_f = uniq[nonzero]
        vals_f = net[nonzero]
    else:
        keys_f = np.empty(0, dtype=np.int64)
        vals_f = np.empty(0, dtype=np.int64)
    # exact integer accumulation, converted to float once (like the python
    # engine's _squared_distance)
    distance = float(sum(v * v for v in vals_f.tolist()))
    return keys_f, vals_f, distance


def _bump(counts: dict, key: int, amount: int) -> None:
    value = counts.get(key, 0) + amount
    if value:
        counts[key] = value
    else:
        counts.pop(key, None)


def _wpack_scalar(e1: int, e2: int, center: int, base: int) -> int:
    if e1 > e2:
        e1, e2 = e2, e1
    return (e1 * base + center) * base + e2


def _scalar_zero_eval(tk: _ThreeKState, a, b, c, d) -> bool:
    """Per-move 3K zero-delta verdict against the *current* structures.

    The staleness-path twin of :func:`_batch_zero_delta`: used for proposals
    invalidated by an earlier accepted move of the same batch.
    """
    degrees = tk.degrees
    base = tk.degree_pack
    row_a = tk.row_set(a)
    row_b = tk.row_set(b)
    row_c = tk.row_set(c)
    row_d = tk.row_set(d)
    com_ab = row_a & row_b
    com_cd = row_c & row_d
    com_ad = row_a & row_d
    com_ad.discard(b)
    com_ad.discard(c)
    com_cb = row_c & row_b
    com_cb.discard(d)
    com_cb.discard(a)
    if len(com_ab) + len(com_cd) != len(com_ad) + len(com_cb):
        return False
    ka = degrees[a]
    kb = degrees[b]
    kc = degrees[c]
    kd = degrees[d]

    def pack3(k1: int, k2: int, k3: int) -> int:
        lo, mid, hi = sorted((k1, k2, k3))
        return (lo * base + mid) * base + hi

    destroyed = sorted(
        [pack3(ka, kb, degrees[x]) for x in com_ab]
        + [pack3(kc, kd, degrees[x]) for x in com_cd]
    )
    created = sorted(
        [pack3(ka, kd, degrees[y]) for y in com_ad]
        + [pack3(kc, kb, degrees[y]) for y in com_cb]
    )
    if destroyed != created:
        return False
    if ka == kc:
        return True

    def pack2(p: int, q: int) -> int:
        return p * base + q if p < q else q * base + p

    # open-path balance from the exchanged heads' neighbor-degree histograms
    # (the shared center degree kb == kd is dropped from the keys); the two
    # trailing corrections exclude x == a from b's row and x == c from d's
    net: dict = {}
    for kx, count in tk.nbrdeg[b].items():
        _bump(net, pack2(kc, kx), count)
        _bump(net, pack2(ka, kx), -count)
    _bump(net, pack2(kc, ka), -1)
    _bump(net, pack2(ka, ka), 1)
    for kx, count in tk.nbrdeg[d].items():
        _bump(net, pack2(ka, kx), count)
        _bump(net, pack2(kc, kx), -count)
    _bump(net, pack2(ka, kc), -1)
    _bump(net, pack2(kc, kc), 1)
    return not net


def _scalar_full_eval(tk: _ThreeKState, a, b, c, d):
    """Per-move packed 3K delta against the *current* structures.

    Item-identical (same rank-packed unified keys — wedges below
    ``tk.n_ranks**3``, triangles above — same ascending order, zero nets
    dropped; the degree->rank map is monotone, so the order matches the
    degree-packed one) to the slices of :func:`_batch_full_delta`, so the
    targeting chain's floating-point objective updates are independent of
    which path evaluated the proposal.  The dict bumps and wedge-key packing
    are inlined: this runs for every staleness-path proposal and is the
    hottest scalar code in the chain.
    """
    degrees = tk.rankv_list
    rank = tk.rank_list
    base = tk.n_ranks
    tri_off = base * base * base
    row_a = tk.row_set(a)
    row_b = tk.row_set(b)
    row_c = tk.row_set(c)
    row_d = tk.row_set(d)
    ka = degrees[a]
    kb = degrees[b]
    kc = degrees[c]
    kd = degrees[d]
    delta: dict = {}
    get = delta.get

    def tri_entry(k1: int, k2: int, k3: int, sign: int) -> None:
        lo, mid, hi = sorted((k1, k2, k3))
        key = (lo * base + mid) * base + hi
        delta[key + tri_off] = get(key + tri_off, 0) + sign
        delta[key] = get(key, 0) - sign
        key = (mid * base + lo) * base + hi
        delta[key] = get(key, 0) - sign
        key = (lo * base + hi) * base + mid
        delta[key] = get(key, 0) - sign

    for x in row_a & row_b:
        tri_entry(ka, kb, degrees[x], -1)
    for x in row_c & row_d:
        tri_entry(kc, kd, degrees[x], -1)
    for y in row_a & row_d:
        if y != b and y != c:
            tri_entry(ka, kd, degrees[y], 1)
    for y in row_c & row_b:
        if y != d and y != a:
            tri_entry(kc, kb, degrees[y], 1)
    # open-path deltas from the exchanged heads' neighbor-degree histograms;
    # the trailing corrections exclude x == a from b's row, x == c from d's.
    # When ka == kc every + term cancels its - twin, so the whole section is
    # skipped (same shortcut as the batched evaluators).
    if ka == kc:
        return sorted(item for item in delta.items() if item[1])
    kab = ka * base
    kcb = kc * base
    for kv, count in tk.nbrdeg[b].items():
        kx = rank[kv]
        key = (kcb + kb) * base + kx if kc < kx else (kx * base + kb) * base + kc
        delta[key] = get(key, 0) + count
        key = (kab + kb) * base + kx if ka < kx else (kx * base + kb) * base + ka
        delta[key] = get(key, 0) - count
    key = (kcb + kb) * base + ka if kc < ka else (kab + kb) * base + kc
    delta[key] = get(key, 0) - 1
    key = (kab + kb) * base + ka
    delta[key] = get(key, 0) + 1
    for kv, count in tk.nbrdeg[d].items():
        kx = rank[kv]
        key = (kab + kd) * base + kx if ka < kx else (kx * base + kd) * base + ka
        delta[key] = get(key, 0) + count
        key = (kcb + kd) * base + kx if kc < kx else (kx * base + kd) * base + kc
        delta[key] = get(key, 0) - count
    key = (kab + kd) * base + kc if ka < kc else (kcb + kd) * base + ka
    delta[key] = get(key, 0) - 1
    key = (kcb + kd) * base + kc
    delta[key] = get(key, 0) + 1
    return sorted(item for item in delta.items() if item[1])


# --------------------------------------------------------------------------- #
# randomizing chains (dK-preserving, d = 0..3)
# --------------------------------------------------------------------------- #
def _chain_0k(state, rng, target, budget, batch_size):
    stream_edge, stream_x, stream_y = _spawn_streams(rng, 3)
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    n = state.n
    m = state.m
    accepted = 0
    attempted = 0
    while accepted < target and attempted < budget:
        size = min(batch_size, budget - attempted)
        slots = stream_edge.integers(0, m, size=size).tolist()
        xs = stream_x.integers(0, n, size=size).tolist()
        ys = stream_y.integers(0, n, size=size).tolist()
        done = 0
        batch_start = accepted
        for slot, x, y in zip(slots, xs, ys):
            done += 1
            if x == y:
                continue
            key_xy = x * n + y if x < y else y * n + x
            if key_xy in edge_set:
                continue
            edge_set.remove(edge_key[slot])
            edge_set.add(key_xy)
            edge_key[slot] = key_xy
            if x < y:
                edge_u[slot] = x
                edge_v[slot] = y
            else:
                edge_u[slot] = y
                edge_v[slot] = x
            accepted += 1
            if accepted == target:
                break
        attempted += done
        record_batch_efficiency("0K-preserving randomizing", accepted - batch_start, done)
    return accepted, attempted


def _chain_1k(state, rng, target, budget, batch_size):
    stream_first, stream_second, stream_flip = _spawn_streams(rng, 3)
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    n = state.n
    m = state.m
    accepted = 0
    attempted = 0
    while accepted < target and attempted < budget:
        size = min(batch_size, budget - attempted)
        firsts = stream_first.integers(0, m, size=size).tolist()
        seconds = stream_second.integers(0, m, size=size).tolist()
        flips = stream_flip.integers(0, 2, size=size).tolist()
        done = 0
        batch_start = accepted
        for i, j, flip in zip(firsts, seconds, flips):
            done += 1
            if i == j:
                continue
            a = edge_u[i]
            b = edge_v[i]
            if flip:
                c = edge_v[j]
                d = edge_u[j]
            else:
                c = edge_u[j]
                d = edge_v[j]
            if a == d or c == b:
                continue
            key_ad = a * n + d if a < d else d * n + a
            if key_ad in edge_set:
                continue
            key_cb = c * n + b if c < b else b * n + c
            if key_cb in edge_set:
                continue
            edge_set.remove(edge_key[i])
            edge_set.remove(edge_key[j])
            edge_set.add(key_ad)
            edge_set.add(key_cb)
            edge_key[i] = key_ad
            edge_key[j] = key_cb
            edge_v[i] = d
            edge_u[j] = c
            edge_v[j] = b
            accepted += 1
            if accepted == target:
                break
        attempted += done
        record_batch_efficiency("1K-preserving randomizing", accepted - batch_start, done)
    return accepted, attempted


def _chain_2k(state, rng, target, budget, batch_size):
    stream_end, stream_pos = _spawn_streams(rng, 2)
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    buckets = state.bucket_table
    degrees = state.degrees
    n = state.n
    m = state.m
    accepted = 0
    attempted = 0
    while accepted < target and attempted < budget:
        size = min(batch_size, budget - attempted)
        # one packed draw per proposal: oriented end = 2 * slot + side
        ends = stream_end.integers(0, 2 * m, size=size).tolist()
        positions = stream_pos.random(size=size).tolist()
        done = 0
        batch_start = accepted
        for end, r in zip(ends, positions):
            done += 1
            i = end >> 1
            if end & 1:
                b = edge_u[i]
                a = edge_v[i]
            else:
                b = edge_v[i]
                a = edge_u[i]
            bucket = buckets[degrees[b]]
            entry = bucket[int(r * len(bucket))]
            j = entry >> 1
            if i == j:
                continue
            if entry & 1:
                d = edge_u[j]
                c = edge_v[j]
            else:
                d = edge_v[j]
                c = edge_u[j]
            if a == d or c == b:
                continue
            key_ad = a * n + d if a < d else d * n + a
            if key_ad in edge_set:
                continue
            key_cb = c * n + b if c < b else b * n + c
            if key_cb in edge_set:
                continue
            edge_set.remove(edge_key[i])
            edge_set.remove(edge_key[j])
            edge_set.add(key_ad)
            edge_set.add(key_cb)
            edge_key[i] = key_ad
            edge_key[j] = key_cb
            # write the equal-degree new heads into the same columns, keeping
            # every bucket entry's head degree (hence the index) invariant
            if end & 1:
                edge_u[i] = d
            else:
                edge_v[i] = d
            if entry & 1:
                edge_u[j] = b
            else:
                edge_v[j] = b
            accepted += 1
            if accepted == target:
                break
        attempted += done
        record_batch_efficiency("2K-preserving randomizing", accepted - batch_start, done)
    return accepted, attempted


def _chain_3k(state, rng, target, budget, batch_size):
    """3K-preserving chain: batched delta kernel, scalar path beyond the
    bitset memory ceiling.  Both paths consume the spawned streams one draw
    per proposal and accept exactly the zero-delta swaps, so they sample the
    same chain; the path split is by ``n`` only, never by batch size."""
    if state.n <= BITSET_MAX_NODES:
        return _chain_3k_batched(state, rng, target, budget, batch_size)
    state.build_adjacency()
    return _chain_3k_scalar(state, rng, target, budget, batch_size)


def _chain_3k_batched(state, rng, target, budget, batch_size):
    stream_end, stream_pos = _spawn_streams(rng, 2)
    tk = _ThreeKState(state)
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    stamp = tk.stamp
    n = state.n
    m = state.m
    accepted = 0
    attempted = 0
    while accepted < target and attempted < budget:
        tk.flush()
        size = min(batch_size, budget - attempted)
        ends = stream_end.integers(0, 2 * m, size=size)
        positions = stream_pos.random(size=size)
        i_arr, side, a_arr, b_arr, j_arr, eside, c_arr, d_arr, valid = _batch_resolve(
            tk, ends, positions
        )
        accept = (valid & _batch_zero_delta(tk, a_arr, b_arr, c_arr, d_arr, valid)).tolist()
        il = i_arr.tolist()
        jl = j_arr.tolist()
        sl = side.tolist()
        el = eside.tolist()
        al = a_arr.tolist()
        bl = b_arr.tolist()
        cl = c_arr.tolist()
        dl = d_arr.tolist()
        base = tk.clock
        done = 0
        batch_start = accepted
        for k in range(size):
            done += 1
            a = al[k]
            b = bl[k]
            c = cl[k]
            d = dl[k]
            i = il[k]
            j = jl[k]
            if stamp[a] > base or stamp[b] > base or stamp[c] > base or stamp[d] > base:
                # an earlier accepted move of this batch rewrote one of the
                # snapshot endpoints' rows: re-resolve the slots (the degree
                # bucket entry itself is invariant) and redo the exact test
                # against the live state — this is what makes the batched
                # chain move-for-move identical to batch_size=1
                if sl[k]:
                    b = edge_u[i]
                    a = edge_v[i]
                else:
                    b = edge_v[i]
                    a = edge_u[i]
                if el[k]:
                    d = edge_u[j]
                    c = edge_v[j]
                else:
                    d = edge_v[j]
                    c = edge_u[j]
                if i == j or a == d or c == b:
                    continue
                key_ad = a * n + d if a < d else d * n + a
                key_cb = c * n + b if c < b else b * n + c
                if key_ad in edge_set or key_cb in edge_set:
                    continue
                if not _scalar_zero_eval(tk, a, b, c, d):
                    continue
            else:
                if not accept[k]:
                    continue
                key_ad = a * n + d if a < d else d * n + a
                key_cb = c * n + b if c < b else b * n + c
            edge_set.remove(edge_key[i])
            edge_set.remove(edge_key[j])
            edge_set.add(key_ad)
            edge_set.add(key_cb)
            edge_key[i] = key_ad
            edge_key[j] = key_cb
            if sl[k]:
                edge_u[i] = d
            else:
                edge_v[i] = d
            if el[k]:
                edge_u[j] = b
            else:
                edge_v[j] = b
            tk.apply_swap(a, b, c, d, i, j, sl[k], el[k])
            accepted += 1
            if accepted == target:
                break
        attempted += done
        record_batch_efficiency("3K-preserving randomizing", accepted - batch_start, done)
    return accepted, attempted


def _chain_3k_scalar(state, rng, target, budget, batch_size):
    stream_end, stream_pos = _spawn_streams(rng, 2)
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    buckets = state.bucket_table
    degrees = state.degrees
    adj = state.adj
    n = state.n
    m = state.m
    accepted = 0
    attempted = 0
    while accepted < target and attempted < budget:
        size = min(batch_size, budget - attempted)
        ends = stream_end.integers(0, 2 * m, size=size).tolist()
        positions = stream_pos.random(size=size).tolist()
        done = 0
        batch_start = accepted
        for end, r in zip(ends, positions):
            done += 1
            i = end >> 1
            if end & 1:
                b = edge_u[i]
                a = edge_v[i]
            else:
                b = edge_v[i]
                a = edge_u[i]
            bucket = buckets[degrees[b]]
            entry = bucket[int(r * len(bucket))]
            j = entry >> 1
            if i == j:
                continue
            if entry & 1:
                d = edge_u[j]
                c = edge_v[j]
            else:
                d = edge_v[j]
                c = edge_u[j]
            if a == d or c == b:
                continue
            key_ad = a * n + d if a < d else d * n + a
            if key_ad in edge_set:
                continue
            key_cb = c * n + b if c < b else b * n + c
            if key_cb in edge_set:
                continue
            wedges, triangles = _swap_three_k_delta(adj, degrees, a, b, c, d)
            if any(wedges.values()) or any(triangles.values()):
                _revert_swap_toggles(adj, a, b, c, d)
                continue
            edge_set.remove(edge_key[i])
            edge_set.remove(edge_key[j])
            edge_set.add(key_ad)
            edge_set.add(key_cb)
            edge_key[i] = key_ad
            edge_key[j] = key_cb
            if end & 1:
                edge_u[i] = d
            else:
                edge_v[i] = d
            if entry & 1:
                edge_u[j] = b
            else:
                edge_v[j] = b
            accepted += 1
            if accepted == target:
                break
        attempted += done
        record_batch_efficiency("3K-preserving randomizing", accepted - batch_start, done)
    return accepted, attempted


@register_kernel("rewire_randomize", "csr")
def randomize(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int | None = None,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """dK-preserving randomization of ``graph`` on the vectorized engine.

    Semantics match :func:`repro.generators.rewiring.preserving.dk_randomize`:
    the chain performs ``multiplier * m`` accepted dK-preserving moves (or
    stops at the attempt budget), records the unified
    ``attempted/accepted/converged`` stats, and warns when the budget binds.
    """
    if d not in (0, 1, 2, 3):
        raise ValueError(f"dK-randomizing rewiring is implemented for d in 0..3, got {d}")
    rng = ensure_rng(rng)
    if batch_size is None or batch_size < 1:
        batch_size = THREEK_BATCH_SIZE if d == 3 else DEFAULT_BATCH_SIZE
    if max_attempt_factor is None:
        max_attempt_factor = 200 if d == 3 else 50
    state = RewiringState(graph)
    m = state.m
    target = max(1, int(multiplier * m))
    budget = max_attempt_factor * (max(m, 1) if d == 3 else target)
    label = f"{d}K-preserving randomizing"

    feasible = (m >= 1 and state.n >= 2) if d == 0 else m >= 2
    if not feasible:
        accepted, attempted = 0, 0
    elif d == 0:
        accepted, attempted = _chain_0k(state, rng, target, budget, batch_size)
    elif d == 1:
        accepted, attempted = _chain_1k(state, rng, target, budget, batch_size)
    elif d == 2:
        state.build_buckets()
        accepted, attempted = _chain_2k(state, rng, target, budget, batch_size)
    else:
        state.build_buckets()
        accepted, attempted = _chain_3k(state, rng, target, budget, batch_size)

    record_chain_stats(
        stats, label=label, target=target, accepted=accepted, attempted=attempted
    )
    if stats is not None:
        stats["engine"] = ENGINE_NAME
    return state.to_graph()


# --------------------------------------------------------------------------- #
# targeting chains (Metropolis dynamics toward a dK-distribution)
# --------------------------------------------------------------------------- #
def _jdd_bump(delta: dict, k1: int, k2: int, amount: int) -> None:
    key = (k1, k2) if k1 <= k2 else (k2, k1)
    value = delta.get(key, 0) + amount
    if value:
        delta[key] = value
    else:
        delta.pop(key, None)


def _commit_counts(current: dict, delta: dict) -> None:
    for key, amount in delta.items():
        value = current.get(key, 0) + amount
        if value:
            current[key] = value
        else:
            current.pop(key, None)


def _accepts(change: float, temperature: float, uniform: float) -> bool:
    if change <= 0:
        return True
    if temperature <= 0:
        return False
    return uniform < math.exp(-change / temperature)


@register_kernel("rewire_target_2k", "csr")
def target_2k(
    graph: SimpleGraph,
    target,
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
    temperature=0.0,
    trace_every: int = 1000,
    batch_size: int | None = None,
) -> TargetingResult:
    """2K-targeting 1K-preserving Metropolis rewiring on the vectorized engine."""
    rng = ensure_rng(rng)
    if batch_size is None or batch_size < 1:
        batch_size = DEFAULT_BATCH_SIZE
    schedule = temperature if callable(temperature) else constant_temperature(float(temperature))
    state = RewiringState(graph)
    n = state.n
    m = state.m
    degrees = state.degrees
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    current = dict(joint_degree_distribution(graph).counts)
    target_counts = dict(target.counts)
    distance = _squared_distance(current, target_counts)
    if max_attempts is None:
        max_attempts = 200 * max(m, 1)

    stream_first, stream_second, stream_flip, stream_accept = _spawn_streams(rng, 4)
    accepted = 0
    attempts = 0
    trace = [distance]
    while distance > 0 and attempts < max_attempts and m >= 2:
        size = min(batch_size, max_attempts - attempts)
        firsts = stream_first.integers(0, m, size=size).tolist()
        seconds = stream_second.integers(0, m, size=size).tolist()
        flips = stream_flip.integers(0, 2, size=size).tolist()
        uniforms = stream_accept.random(size=size).tolist()
        batch_start_acc = accepted
        batch_start_att = attempts
        for i, j, flip, uniform in zip(firsts, seconds, flips, uniforms):
            attempts += 1
            valid = i != j
            if valid:
                a = edge_u[i]
                b = edge_v[i]
                if flip:
                    c = edge_v[j]
                    d = edge_u[j]
                else:
                    c = edge_u[j]
                    d = edge_v[j]
                if a == d or c == b:
                    valid = False
                else:
                    key_ad = a * n + d if a < d else d * n + a
                    key_cb = c * n + b if c < b else b * n + c
                    if key_ad in edge_set or key_cb in edge_set:
                        valid = False
            if valid:
                delta: dict = {}
                _jdd_bump(delta, degrees[a], degrees[b], -1)
                _jdd_bump(delta, degrees[c], degrees[d], -1)
                _jdd_bump(delta, degrees[a], degrees[d], +1)
                _jdd_bump(delta, degrees[c], degrees[b], +1)
                change = _distance_change(current, target_counts, delta)
                if _accepts(change, schedule(attempts), uniform):
                    edge_set.remove(edge_key[i])
                    edge_set.remove(edge_key[j])
                    edge_set.add(key_ad)
                    edge_set.add(key_cb)
                    edge_key[i] = key_ad
                    edge_key[j] = key_cb
                    edge_v[i] = d
                    edge_u[j] = c
                    edge_v[j] = b
                    _commit_counts(current, delta)
                    distance += change
                    accepted += 1
            if attempts % trace_every == 0:
                trace.append(distance)
            if distance == 0:
                break
        record_batch_efficiency(
            "2K-targeting", accepted - batch_start_acc, attempts - batch_start_att
        )
    trace.append(distance)
    if distance > 0:
        warn_not_converged(
            "2K-targeting", f"distance {distance:g} after {attempts} attempts"
        )
    return TargetingResult(
        graph=state.to_graph(),
        distance=distance,
        accepted_moves=accepted,
        attempted_moves=attempts,
        distance_trace=trace,
    )


@register_kernel("rewire_target_3k", "csr")
def target_3k(
    graph: SimpleGraph,
    target,
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
    temperature=0.0,
    trace_every: int = 1000,
    batch_size: int | None = None,
) -> TargetingResult:
    """3K-targeting 2K-preserving Metropolis rewiring on the vectorized engine.

    Runs the batched wedge/triangle delta kernel up to
    :data:`BITSET_MAX_NODES` nodes and the exact per-move scalar path beyond
    it (or when degree diversity is too pathological for the dense
    rank-packed statistic).  Both paths are deterministic per seed and
    batch-size invariant; the path split depends only on the input graph
    and target, never on the batch size.
    """
    rng = ensure_rng(rng)
    if batch_size is None or batch_size < 1:
        batch_size = THREEK_BATCH_SIZE
    schedule = temperature if callable(temperature) else constant_temperature(float(temperature))
    # the default strict schedule (constant T <= 0) reduces the Metropolis
    # test to ``change <= 0``; the batched chain then skips the per-attempt
    # schedule call entirely (a schedule is a pure function of the step, so
    # not calling it is unobservable)
    strict = not callable(temperature) and float(temperature) <= 0
    state = RewiringState(graph)
    state.build_buckets()
    if max_attempts is None:
        max_attempts = 400 * max(state.m, 1)
    if state.n <= BITSET_MAX_NODES:
        return _target_3k_batched(
            state,
            graph,
            target,
            rng,
            max_attempts,
            schedule,
            trace_every,
            batch_size,
            strict,
        )
    return _target_3k_scalar(
        state, graph, target, rng, max_attempts, schedule, trace_every, batch_size
    )


def _target_3k_batched(
    state, graph, target, rng, max_attempts, schedule, trace_every, batch_size, strict
):
    n = state.n
    m = state.m
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    # 2K-preserving moves keep the degree multiset fixed, so every wedge or
    # triangle key the chain can ever meet is a pack over today's distinct
    # degree values (plus any degree appearing only in the target).  Packing
    # by degree *rank* instead of degree value makes that key space dense:
    # with ``n_ranks`` distinct degrees every unified key is an index below
    # ``2 * n_ranks**3``, so the sufficient statistic lives in one flat
    # int64 array indexed directly by key — no sorted-key binary searches
    # and no mid-run key discovery anywhere.  The value->rank map is
    # monotone, so rank-packed keys sort exactly like degree-packed ones and
    # the batched/scalar item-order identity is untouched.
    tkeys = np.fromiter(
        (k for key in (*target.wedges, *target.triangles) for k in key), np.int64
    )
    kd = np.unique(np.concatenate((np.asarray(state.degrees, dtype=np.int64), tkeys)))
    n_ranks = int(kd.size)
    if 2 * n_ranks**3 > THREEK_RANK_SLOTS_MAX:
        # pathological degree diversity would blow up the dense table; the
        # exact per-move scalar chain needs no packed statistic at all
        return _target_3k_scalar(
            state, graph, target, rng, max_attempts, schedule, trace_every, batch_size
        )
    tk = _ThreeKState(state)
    rank_np = np.zeros(int(kd[-1]) + 1 if n_ranks else 1, dtype=np.int64)
    rank_np[kd] = np.arange(n_ranks, dtype=np.int64)
    tk.rank_np = rank_np
    tk.rank_list = rank_np.tolist()
    tk.rankv = rank_np[tk.deg]
    tk.rankv_list = tk.rankv.tolist()
    tk.n_ranks = n_ranks
    # the chain's whole sufficient statistic: dk_vals[key] = current - target
    # over rank-packed unified keys, plus the scalar squared distance.  All
    # counts and deltas stay int64-exact, so the Metropolis change of a
    # proposal is computed exactly and the float distance trace is identical
    # for every batch size and evaluation path.
    keys0, vals0, distance = _initial_threek_diff(tk, target)
    dk_vals = np.zeros(2 * n_ranks**3, dtype=np.int64)
    dk_vals[keys0] = vals0

    stream_end, stream_pos, stream_accept = _spawn_streams(rng, 3)
    stamp = tk.stamp
    accepted = 0
    attempts = 0
    next_trace = trace_every
    trace = [distance]
    while distance > 0 and attempts < max_attempts and m >= 2:
        size = min(batch_size, max_attempts - attempts)
        ends_all = stream_end.integers(0, 2 * m, size=size)
        positions_all = stream_pos.random(size=size)
        uniforms_all = stream_accept.random(size=size).tolist()
        batch_start_acc = accepted
        batch_start_att = attempts
        # RNG draw width (batch_size) and snapshot-evaluation width are
        # decoupled: every decision equals the live-state decision either
        # way, but a smaller evaluation chunk leaves fewer proposals behind
        # an accepted move of the same snapshot, i.e. fewer scalar fallbacks
        for off in range(0, size, THREEK_EVAL_CHUNK):
            hi = min(off + THREEK_EVAL_CHUNK, size)
            tk.flush()
            i_arr, side, a_arr, b_arr, j_arr, eside, c_arr, d_arr, valid = (
                _batch_resolve(tk, ends_all[off:hi], positions_all[off:hi])
            )
            starts, keys, nets, slot_of = _batch_full_delta(
                tk, a_arr, b_arr, c_arr, d_arr, valid
            )
            base = tk.clock
            # the Metropolis change of every snapshot-valid proposal against
            # the chunk-start statistic, in one vectorized pass: with
            # v = current - target, (v + net)^2 - v^2 = net * (2v + net) per
            # key, summed per proposal by segmented cumsum.  Accepted moves
            # shift v for later proposals of the same chunk; once any accept
            # dirties the chunk, the per-proposal correction is the exact
            # integer 2 * (sum(net * v_now) - sum(net * v_start)) — one
            # gather + dot against the live value array, no rounding.
            if keys.size:
                e0_items = dk_vals[keys]
                contrib = nets * (2 * e0_items + nets)
                csum = np.zeros(keys.size + 1, dtype=np.int64)
                np.cumsum(contrib, out=csum[1:])
                sarr = np.asarray(starts, dtype=np.int64)
                change0 = (csum[sarr[1:]] - csum[sarr[:-1]]).tolist()
                np.cumsum(nets * e0_items, out=csum[1:])
                base_dot = (csum[sarr[1:]] - csum[sarr[:-1]]).tolist()
            else:
                change0 = [0] * (len(starts) - 1)
                base_dot = change0
            dirty = False
            # one fused iterator: cheaper than per-proposal indexing into
            # ten parallel lists
            proposals = zip(
                a_arr.tolist(),
                b_arr.tolist(),
                c_arr.tolist(),
                d_arr.tolist(),
                i_arr.tolist(),
                j_arr.tolist(),
                side.tolist(),
                eside.tolist(),
                valid.tolist(),
                slot_of,
                uniforms_all[off:hi],
            )
            for a, b, c, d, i, j, si, ei, ok0, pos, u in proposals:
                attempts += 1
                items = None
                if (
                    stamp[a] > base
                    or stamp[b] > base
                    or stamp[c] > base
                    or stamp[d] > base
                ):
                    # stale snapshot: re-resolve the slots (degree bucket
                    # entries are invariant) and recompute the exact delta
                    # per-move, with the same item order as the batched slices
                    # so the float objective trajectory is batch-size invariant
                    ok = False
                    if si:
                        b = edge_u[i]
                        a = edge_v[i]
                    else:
                        b = edge_v[i]
                        a = edge_u[i]
                    if ei:
                        d = edge_u[j]
                        c = edge_v[j]
                    else:
                        d = edge_v[j]
                        c = edge_u[j]
                    if i != j and a != d and c != b:
                        key_ad = a * n + d if a < d else d * n + a
                        key_cb = c * n + b if c < b else b * n + c
                        if key_ad not in edge_set and key_cb not in edge_set:
                            items = _scalar_full_eval(tk, a, b, c, d)
                            ok = True
                else:
                    ok = ok0
                    if ok:
                        key_ad = a * n + d if a < d else d * n + a
                        key_cb = c * n + b if c < b else b * n + c
                        s0 = starts[pos]
                        s1 = starts[pos + 1]
                if ok:
                    if items is None:
                        change = change0[pos]
                        if dirty and s1 > s0:
                            change += 2 * (
                                int(np.dot(nets[s0:s1], dk_vals[keys[s0:s1]]))
                                - base_dot[pos]
                            )
                    elif items:
                        # the staleness path reads the live value array
                        # directly, so it needs no chunk-start correction
                        karr, narr = np.array(items, dtype=np.int64).T
                        change = int(np.dot(narr, 2 * dk_vals[karr] + narr))
                    else:
                        change = 0
                    if (
                        change <= 0
                        if strict
                        else _accepts(change, schedule(attempts), u)
                    ):
                        edge_set.remove(edge_key[i])
                        edge_set.remove(edge_key[j])
                        edge_set.add(key_ad)
                        edge_set.add(key_cb)
                        edge_key[i] = key_ad
                        edge_key[j] = key_cb
                        if si:
                            edge_u[i] = d
                        else:
                            edge_v[i] = d
                        if ei:
                            edge_u[j] = b
                        else:
                            edge_v[j] = b
                        tk.apply_swap(a, b, c, d, i, j, si, ei)
                        if items is None:
                            if s1 > s0:
                                dk_vals[keys[s0:s1]] += nets[s0:s1]
                                dirty = True
                        elif items:
                            dk_vals[karr] += narr
                            dirty = True
                        distance += change
                        accepted += 1
                if attempts == next_trace:
                    trace.append(distance)
                    next_trace += trace_every
                if distance == 0:
                    break
            if distance == 0:
                break
        record_batch_efficiency(
            "3K-targeting", accepted - batch_start_acc, attempts - batch_start_att
        )
    trace.append(distance)
    if distance > 0:
        warn_not_converged(
            "3K-targeting", f"distance {distance:g} after {attempts} attempts"
        )
    return TargetingResult(
        graph=state.to_graph(),
        distance=distance,
        accepted_moves=accepted,
        attempted_moves=attempts,
        distance_trace=trace,
    )


def _target_3k_scalar(
    state, graph, target, rng, max_attempts, schedule, trace_every, batch_size
):
    buckets = state.bucket_table
    adj = state.build_adjacency()
    n = state.n
    m = state.m
    degrees = state.degrees
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    current_wedges = dict(wedge_degree_counts(graph))
    current_triangles = dict(triangle_degree_counts(graph))
    target_wedges = dict(target.wedges)
    target_triangles = dict(target.triangles)
    distance = _squared_distance(current_wedges, target_wedges) + _squared_distance(
        current_triangles, target_triangles
    )

    stream_end, stream_pos, stream_accept = _spawn_streams(rng, 3)
    accepted = 0
    attempts = 0
    trace = [distance]
    while distance > 0 and attempts < max_attempts and m >= 2:
        size = min(batch_size, max_attempts - attempts)
        ends = stream_end.integers(0, 2 * m, size=size).tolist()
        positions = stream_pos.random(size=size).tolist()
        uniforms = stream_accept.random(size=size).tolist()
        batch_start_acc = accepted
        batch_start_att = attempts
        for end, r, uniform in zip(ends, positions, uniforms):
            attempts += 1
            i = end >> 1
            if end & 1:
                b = edge_u[i]
                a = edge_v[i]
            else:
                b = edge_v[i]
                a = edge_u[i]
            bucket = buckets[degrees[b]]
            entry = bucket[int(r * len(bucket))]
            j = entry >> 1
            valid = i != j
            if valid:
                if entry & 1:
                    d = edge_u[j]
                    c = edge_v[j]
                else:
                    d = edge_v[j]
                    c = edge_u[j]
                if a == d or c == b:
                    valid = False
                else:
                    key_ad = a * n + d if a < d else d * n + a
                    key_cb = c * n + b if c < b else b * n + c
                    if key_ad in edge_set or key_cb in edge_set:
                        valid = False
            if valid:
                wedge_delta, triangle_delta = _swap_three_k_delta(adj, degrees, a, b, c, d)
                change = _distance_change(current_wedges, target_wedges, wedge_delta)
                change += _distance_change(current_triangles, target_triangles, triangle_delta)
                if _accepts(change, schedule(attempts), uniform):
                    edge_set.remove(edge_key[i])
                    edge_set.remove(edge_key[j])
                    edge_set.add(key_ad)
                    edge_set.add(key_cb)
                    edge_key[i] = key_ad
                    edge_key[j] = key_cb
                    if end & 1:
                        edge_u[i] = d
                    else:
                        edge_v[i] = d
                    if entry & 1:
                        edge_u[j] = b
                    else:
                        edge_v[j] = b
                    _commit_counts(current_wedges, wedge_delta)
                    _commit_counts(current_triangles, triangle_delta)
                    distance += change
                    accepted += 1
                else:
                    _revert_swap_toggles(adj, a, b, c, d)
            if attempts % trace_every == 0:
                trace.append(distance)
            if distance == 0:
                break
        record_batch_efficiency(
            "3K-targeting", accepted - batch_start_acc, attempts - batch_start_att
        )
    trace.append(distance)
    if distance > 0:
        warn_not_converged(
            "3K-targeting", f"distance {distance:g} after {attempts} attempts"
        )
    return TargetingResult(
        graph=state.to_graph(),
        distance=distance,
        accepted_moves=accepted,
        attempted_moves=attempts,
        distance_trace=trace,
    )


__all__ = ["ENGINE_NAME", "RewiringState", "randomize", "target_2k", "target_3k"]
