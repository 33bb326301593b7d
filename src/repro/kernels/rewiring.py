"""The rewiring engine: batched Markov-chain moves on flat edge arrays.

Every dK construction of the paper that is a Markov chain runs here:
dK-preserving randomizing rewiring (d = 0..3, Section 4.1.4), dK-targeting
Metropolis rewiring (Section 4.1.4, Table 4) and dK-space exploration
(Section 4.3, Table 7).  The whole chain state lives in flat structures
built once per chain:

* ``edge_u`` / ``edge_v`` — the edge list as two parallel endpoint arrays;
  every move rewrites at most two slots in place (the edge count is
  invariant under all dK-preserving and targeting moves);
* an O(1)-membership *edge hash-set* of packed canonical endpoint keys
  (``min * n + max``);
* for 2K-style proposals, a *degree-bucketed oriented edge-end index*
  mapping each head degree to the packed ``2 * slot + side`` ends carrying
  it.  Because 2K moves exchange heads of equal degree in place, the bucket
  contents are invariant for the whole chain — the index is built once and
  never updated;
* for 3K randomizing and 3K targeting, a batched wedge/triangle delta
  kernel (:class:`_ThreeKState`): fixed-capacity adjacency rows plus an
  adjacency membership table, both updated per accepted move, with the
  exact per-proposal deltas of a whole batch evaluated at once through NumPy
  gather / membership / sort-and-segment reductions.  The 3K-*preserving*
  chain only needs a zero/nonzero verdict per proposal; the targeting chain
  gets full per-proposal delta lists over rank-packed wedge/triangle keys.

Every chain runs through one entry point, :func:`run_chain`, with an
attempt budget and an :class:`Objective`: one record that names the chain's
proposal loop and how that loop prices a move.

* Loops 0, 1 and 2 propose 0K, 1K and 2K moves on the flat edge arrays.
  Loops 1 and 2 price a swap ``(a,b),(c,d) -> (a,d),(c,b)`` through one
  protocol, the objective's ``scorer``: ``state -> (start energy,
  change(a, b, c, d), commit(a, b, c, d))`` over the scorer's own live
  state.  An objective without a scorer prices nothing, so every valid
  proposal is a move (randomizing, d = 0..2).  2K targeting
  (:func:`jdd_distance`) and the S, S2 and C̄ explorations of
  :mod:`repro.generators.exploration` are scorers.
* Loop 3 proposes 2K moves priced on the wedge/triangle kernel: a
  zero-delta verdict for 3K randomizing, or the squared distance to the
  objective's ``target`` P_3 (:func:`three_k_distance`).

Energies are exact integers, so every accept decision is exact.  The
callers live in :mod:`repro.generators`;
:func:`~repro.generators.rewiring.preserving.dk_randomize` sizes a
randomizing chain's attempt budget with a pilot chain before it starts, so
the chain stops on attempts, never on its accepted-move count, and samples
the dK-random graphs uniformly.

Proposals are drawn in vectorized batches: each random quantity (edge slot,
partner, orientation, Metropolis uniform) comes from its own spawned child
stream, consumed exactly once per proposal — so the chain's output depends
only on the seed, *not* on the batch width (:data:`DEFAULT_BATCH_SIZE`,
:data:`THREEK_BATCH_SIZE`), and is deterministic per seed.
The batch arrays are converted to Python ints in bulk (``.tolist()``) and
validated/applied by a tight scalar loop.  Because the 3K batch is evaluated
against a snapshot of the chain state, a proposal whose endpoints were
touched by an *earlier accepted move of the same batch* is detected through
per-node move stamps and re-evaluated against the live state — which is
what keeps the 2K-proposal chains batch-size invariant too.

The 3K-delta chains and the Table-5 rewiring counter
(:mod:`repro.generators.rewiring.counting`) run this one kernel at every
input size.  Only its two memory-bound tables pick a representation by
size, each behind one access point: adjacency membership is a packed
bitset up to :data:`BITSET_MAX_NODES` nodes and sorted packed arc keys
beyond it (:meth:`_ThreeKState.member`), and the objective gradient is a
dense rank-packed array up to :data:`THREEK_RANK_SLOTS_MAX` slots and a
sorted sparse key/value array beyond it (:func:`_gradient`).  Both twins
take exactly the moves of their dense counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from repro.core.distributions import ThreeKDistribution
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import _sum_by_key, threek_counts
from repro.telemetry.metrics import gauge_set
from repro.utils.rng import RngLike, ensure_rng

#: Name recorded in the chain stats of graphs built by this engine.
ENGINE_NAME = "csr"

#: Node-count ceiling of the 3K kernel's packed adjacency bitset, which costs
#: ``n * ceil(n / 64) * 8`` bytes (128 MiB at the default).  Beyond it the
#: kernel tests membership on sorted packed arc keys instead (about 1.3x
#: slower per chain, O(m) memory).
BITSET_MAX_NODES = 32768

#: Proposals drawn per vectorized batch.  A pure performance constant: the
#: engine consumes each random stream per-proposal, so the chain's output is
#: identical for every batch size.
DEFAULT_BATCH_SIZE = 4096

#: Batch width of the chains scored on wedge/triangle deltas (3K
#: randomizing and 3K targeting).  Their deltas are precomputed for the
#: whole batch against a state snapshot, and every accepted move invalidates
#: the precomputation for later proposals touching the same nodes (those
#: fall back to an exact per-move recompute) — so the sweet spot is much
#: smaller than for the other chains.  Still a pure
#: performance constant: the output is identical for every batch size.
THREEK_BATCH_SIZE = 768

#: Snapshot-evaluation width of the 3K-targeting chain.  RNG draws still
#: happen at the batch width (draw width is semantics-neutral), but deltas are
#: evaluated against a refreshed snapshot every this-many proposals: smaller
#: chunks mean fewer proposals sit behind an accepted move of the same chunk
#: and need a per-move re-evaluation.
THREEK_EVAL_CHUNK = 160

#: Slot cap for the 3K-targeting chain's dense rank-packed gradient
#: (``2 * n_ranks**3`` int64 slots, i.e. 128 MiB at the cap).  Graphs whose
#: degree diversity exceeds it keep the gradient as a sorted sparse array.
THREEK_RANK_SLOTS_MAX = 16_777_216


def record_batch_efficiency(label: str, accepted: int, attempted: int) -> None:
    """Publish the acceptance ratio of one proposal batch.

    The chains call this once per batch so operators can watch
    ``repro_rewiring_batch_efficiency`` (accepted/attempted, labelled by
    chain) on ``/v1/metrics`` — a chain whose ratio collapses is wasting its
    precomputed batch work and wants a smaller batch-width constant.
    """
    if attempted > 0:
        gauge_set(
            "repro_rewiring_batch_efficiency", accepted / attempted, chain=label
        )


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

    def build_buckets(self) -> list[list[int]]:
        """Degree-bucketed oriented edge-end index (packed ``2*slot+side``).

        Stored degree-*indexed* (``bucket_table[k]`` is the list of ends
        whose head carries degree ``k``): the proposal loops hit it once per
        proposal, and list indexing beats dict hashing there.
        """
        degrees = self.degrees
        edge_u = self.edge_u
        edge_v = self.edge_v
        table: list[list[int]] = [[] for _ in range(max(degrees, default=0) + 1)]
        for slot in range(self.m):
            table[degrees[edge_v[slot]]].append(2 * slot)
            table[degrees[edge_u[slot]]].append(2 * slot + 1)
        self.bucket_table = table
        return table

    def to_graph(self) -> SimpleGraph:
        """Materialize the current edge arrays as a :class:`SimpleGraph`."""
        return SimpleGraph.from_flat_edges(self.n, self.edge_u, self.edge_v)


# --------------------------------------------------------------------------- #
# batched 3K delta kernel (flat rows + membership + packed-key reductions)
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
# evaluators below produce byte-identical items and back the within-batch
# staleness path.  The tests check all four evaluators against a
# from-scratch wedge/triangle recount of the swapped graph.


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


class _ThreeKState:
    """Neighborhood structures backing the batched 3K delta kernel.

    Built once per 3K chain (or Table-5 count) on top of a
    :class:`RewiringState` and updated per accepted move:

    * ``rows``/``indptr``/``deg`` — fixed-capacity (degrees are invariant
      under every 2K-preserving move) unsorted adjacency rows, gathered
      raggedly by the batch evaluators;
    * ``bits`` or ``arcs`` — the adjacency membership table behind
      :meth:`member`.  Up to :data:`BITSET_MAX_NODES` nodes it is an
      ``n x ceil(n/64)`` uint64 bitset (O(1) tests, ``n**2 / 8`` bytes);
      beyond it, the sorted packed arc keys ``u * n + v`` of both
      orientations of every edge (O(log m) tests, ``16 m`` bytes).  The
      bitset is the faster table, so it stays wherever it fits;
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
    * ``nbrdeg_sum_list``/``nbrdeg_sum`` — per-node neighbor-degree sums
      ``s_u = sum(k_x for x in N(u))`` (a live list and its NumPy mirror;
      ``S2 = (sum(s_u**2) - sum(k_u**3)) / 2``).  Like the histograms, only
      the exchanged heads' sums change, in O(1): ``s_b += k_c - k_a``,
      ``s_d += k_a - k_c``.  Both zero-delta evaluators reject on
      ``s_b - k_a != s_d - k_c`` before any neighborhood work;
    * ``stamp``/``clock`` — per-node stamps of the last accepted move that
      rewrote the node's row, backing the within-batch staleness test.

    The NumPy-side structures (``rows``, ``bits``/``arcs``,
    ``edge_u``/``edge_v``, ``nbrdeg_sum``) are only *read* by the vectorized
    batch evaluators, never mid-batch, so :meth:`apply_swap` merely queues
    their updates and :meth:`flush` applies them in bulk at the next batch
    boundary — per-element NumPy scalar writes are ~10x the cost of the
    equivalent list/dict operation and were the single hottest part of the
    accept path.
    """

    __slots__ = (
        "n",
        "degrees",
        "deg",
        "indptr",
        "indptr_list",
        "rows",
        "bits",
        "arcs",
        "edge_u",
        "edge_v",
        "bucket_flat",
        "bucket_start",
        "bucket_len",
        "degree_pack",
        "rankv",
        "rankv_list",
        "rank_np",
        "rank_list",
        "n_ranks",
        "offset_of",
        "nbrdeg",
        "nbrdeg_sum",
        "nbrdeg_sum_list",
        "stamp",
        "clock",
        "pend_eu",
        "pend_ev",
        "pend_rows",
        "pend_sum",
        "pend_bit_node",
        "pend_bit_nbr",
    )

    def __init__(self, state: RewiringState):
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
        if n <= BITSET_MAX_NODES:
            bits = np.zeros((n, (n + 63) >> 6), dtype=np.uint64)
            if src.size:
                np.bitwise_or.at(
                    bits, (src, dst >> 6), np.uint64(1) << (dst & 63).astype(np.uint64)
                )
            self.bits = bits
            self.arcs = None
        else:
            self.bits = None
            self.arcs = np.sort(src * n + dst)
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
        self.degree_pack = top + 1
        self.rank_by(np.unique(deg))
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
        owner = np.repeat(np.arange(n, dtype=np.int64), deg)
        sums = np.bincount(owner, weights=deg[self.rows], minlength=n)
        self.nbrdeg_sum = sums.astype(np.int64)
        self.nbrdeg_sum_list = self.nbrdeg_sum.tolist()
        self.indptr_list = indptr_list
        self.stamp = [0] * n
        self.clock = 0
        self.pend_eu: dict[int, int] = {}
        self.pend_ev: dict[int, int] = {}
        self.pend_rows: dict[int, int] = {}
        self.pend_sum: dict[int, int] = {}
        self.pend_bit_node: list[int] = []
        self.pend_bit_nbr: list[int] = []

    def rank_by(self, kd: np.ndarray) -> None:
        """Pack full-delta keys by rank in the sorted distinct degrees ``kd``.

        Keys are unified (wedges below ``n_ranks**3``, triangles above), so
        they are dense indices below ``2 * n_ranks**3``.  Seeded from the
        node degrees; the targeting chain re-ranks when its target carries
        degrees the graph lacks.
        """
        self.n_ranks = int(kd.size)
        rank_np = np.zeros(int(kd[-1]) + 1 if kd.size else 1, dtype=np.int64)
        rank_np[kd] = np.arange(kd.size, dtype=np.int64)
        self.rank_np = rank_np
        self.rank_list = rank_np.tolist()
        self.rankv = rank_np[self.deg]
        self.rankv_list = self.rankv.tolist()

    def member(self, u, v):
        """Elementwise adjacency test ``v[k] in N(u[k])`` (a bool array).

        The arc-key table is probed with sorted needles, which keeps
        ``np.searchsorted``'s successive probes close together.
        """
        if self.bits is not None:
            word = self.bits[u, v >> 6] >> (v & 63).astype(np.uint64)
            return (word & np.uint64(1)).astype(bool)
        needles = u * self.n + v
        order = np.argsort(needles)
        needles = needles[order]
        pos = np.searchsorted(self.arcs, needles)
        inside = pos < self.arcs.size
        hit = np.zeros(needles.size, dtype=bool)
        hit[order[inside]] = self.arcs[pos[inside]] == needles[inside]
        return hit

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
        self.clock += 1
        clock = self.clock
        stamp = self.stamp
        for node, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
            offsets = offset_of[node]
            offset = offsets.pop(old)
            offsets[new] = offset
            pend_rows[indptr[node] + offset] = new
            stamp[node] = clock
        # each row loses its old neighbor's bit and gains the new one's
        self.pend_bit_node.extend((a, a, b, b, c, c, d, d))
        self.pend_bit_nbr.extend((b, d, a, c, d, b, c, a))
        # only the exchanged heads' neighbor-degree histograms and sums
        # change: a and c swap equal-degree neighbors (deg b == deg d)
        degrees = self.degrees
        ka = degrees[a]
        kc = degrees[c]
        if ka != kc:
            _bump(self.nbrdeg[b], ka, -1)
            _bump(self.nbrdeg[b], kc, 1)
            _bump(self.nbrdeg[d], kc, -1)
            _bump(self.nbrdeg[d], ka, 1)
            sums = self.nbrdeg_sum_list
            sums[b] += kc - ka
            sums[d] += ka - kc
            self.pend_sum[b] = sums[b]
            self.pend_sum[d] = sums[d]

    def flush(self) -> None:
        """Apply the queued NumPy-side updates (batch boundary only).

        Row rewrites, edge-mirror and neighbor-degree-sum writes are
        last-value-wins dicts.  The membership toggles are an XOR sequence:
        ``np.bitwise_xor.at`` replays it on the bitset even with repeated
        ``(node, word)`` targets, and on the arc keys only the arcs toggled
        an odd number of times change, each deleted if present and inserted
        if not.
        """
        for pend, array in (
            (self.pend_rows, self.rows),
            (self.pend_eu, self.edge_u),
            (self.pend_ev, self.edge_v),
            (self.pend_sum, self.nbrdeg_sum),
        ):
            if pend:
                count = len(pend)
                idx = np.fromiter(pend.keys(), np.int64, count)
                array[idx] = np.fromiter(pend.values(), np.int64, count)
                pend.clear()
        if self.pend_bit_node:
            node = np.array(self.pend_bit_node, dtype=np.int64)
            nbr = np.array(self.pend_bit_nbr, dtype=np.int64)
            if self.bits is not None:
                mask = np.uint64(1) << (nbr & 63).astype(np.uint64)
                np.bitwise_xor.at(self.bits, (node, nbr >> 6), mask)
            else:
                keys, counts = np.unique(node * self.n + nbr, return_counts=True)
                flip = keys[(counts & 1) == 1]
                arcs = self.arcs
                pos = np.searchsorted(arcs, flip)
                present = pos < arcs.size
                present[present] = arcs[pos[present]] == flip[present]
                arcs = np.delete(arcs, pos[present])
                added = flip[~present]
                self.arcs = np.insert(arcs, np.searchsorted(arcs, added), added)
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

    One ragged-row + membership pass over the concatenated pair
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
    mask = tk.member(other[pid], q)
    mask &= (q != ex1[pid]) & (q != ex2[pid])
    pid = pid[mask]
    return pid % npids, q[mask], pid // npids


def _resolve_ends(edge_u, edge_v, ends):
    """Slot, side, tail and head of packed oriented ends ``2 * slot + side``."""
    slot = ends >> 1
    side = ends & 1
    head = np.where(side == 1, edge_u[slot], edge_v[slot])
    tail = np.where(side == 1, edge_v[slot], edge_u[slot])
    return slot, side, tail, head


def _batch_resolve(tk: _ThreeKState, ends, positions):
    """Vectorized 2K-proposal resolution against the snapshot state.

    Mirrors the per-move 2K loop exactly, including ``int(r * len(bucket))``
    truncation, and returns the resolved slots/sides/endpoints plus the
    snapshot validity mask (distinct slots, simple-graph result).
    """
    i, side, a, b = _resolve_ends(tk.edge_u, tk.edge_v, ends)
    kb = tk.deg[b]
    entry = tk.bucket_flat[
        tk.bucket_start[kb] + (positions * tk.bucket_len[kb]).astype(np.int64)
    ]
    j, eside, c, d = _resolve_ends(tk.edge_u, tk.edge_v, entry)
    valid = (i != j) & (a != d) & (c != b)
    memb = tk.member(np.concatenate((a, c)), np.concatenate((d, b)))
    half = a.shape[0]
    valid &= ~(memb[:half] | memb[half:])
    return i, side, a, b, j, eside, c, d, valid


def _batch_zero_delta(tk: _ThreeKState, a, b, c, d, valid):
    """Exact "swap leaves the 3K distribution unchanged" verdict per proposal.

    Four escalating filters, each vectorized across the batch.  The first is
    O(1) per proposal: when ``ka != kc`` the open paths at the exchanged
    heads balance only if b's neighbors other than a and d's other than c
    carry the same degrees, so their sums must match,
    ``s_b - ka == s_d - kc`` (``nbrdeg_sum``).  That rejects most proposals
    before any neighborhood gather.  Then triangle count balance, triangle
    packed-key multiset equality (which also cancels the corner wedge
    contributions), and open-path pair multiset equality at the exchanged
    heads (skipped outright when ``ka == kc``).  The sum test is only a
    necessary condition, so the later exact filters decide every proposal
    that passes it.
    """
    zero = np.zeros(valid.shape[0], dtype=bool)
    deg = tk.deg
    sums = tk.nbrdeg_sum
    ka_all = deg[a]
    kc_all = deg[c]
    idx = np.flatnonzero(
        valid & ((ka_all == kc_all) | (sums[b] - ka_all == sums[d] - kc_all))
    )
    if idx.size == 0:
        return zero
    aP, bP, cP, dP = a[idx], b[idx], c[idx], d[idx]
    base = tk.degree_pack
    ka, kb, kc = ka_all[idx], deg[bP], kc_all[idx]
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


def _initial_threek_diff(tk: _ThreeKState, graph: SimpleGraph, target):
    """``current - target`` sufficient statistics for 3K targeting.

    Returns ``(keys, vals, distance)``: aligned arrays of rank-packed unified
    keys (wedges below ``tk.n_ranks**3``, triangles above) and their
    ``current - target`` counts with zero entries dropped, plus the exact
    integer squared distance.  The start graph's counts come from the csr
    3K counter :func:`~repro.kernels.biggraph.threek_counts`, the one that
    extracts P_3; both sides are degree-keyed, so they share one packing.
    """
    base = tk.n_ranks
    tri_off = base * base * base
    rank_np = tk.rank_np
    wedges, triangles = threek_counts(graph)
    parts_k = [np.empty(0, dtype=np.int64)]
    parts_v = [np.empty(0, dtype=np.int64)]
    for counts, off, sign in (
        (wedges, 0, 1),
        (triangles, tri_off, 1),
        (target.wedges, 0, -1),
        (target.triangles, tri_off, -1),
    ):
        if counts:
            # keys are degree-value triples; rank them component-wise (the
            # rank map is monotone, so ordered tuples stay ordered)
            arr = rank_np[np.array(list(counts), dtype=np.int64)]
            parts_k.append((arr[:, 0] * base + arr[:, 1]) * base + arr[:, 2] + off)
            parts_v.append(sign * np.fromiter(counts.values(), np.int64, len(counts)))
    keys, net = _sum_by_key(np.concatenate(parts_k), np.concatenate(parts_v))
    nonzero = net != 0
    keys, net = keys[nonzero], net[nonzero]
    return keys, net, sum(v * v for v in net.tolist())


def _bump(counts: dict, key: int, amount: int) -> None:
    value = counts.get(key, 0) + amount
    if value:
        counts[key] = value
    else:
        counts.pop(key, None)


def _scalar_zero_eval(tk: _ThreeKState, a, b, c, d) -> bool:
    """Per-move 3K zero-delta verdict against the *current* structures.

    The staleness-path twin of :func:`_batch_zero_delta`, with the same
    filters in the same order: used for proposals invalidated by an earlier
    accepted move of the same batch.  The O(1) neighbor-degree-sum test
    reads the live ``nbrdeg_sum_list`` and returns before any row is
    intersected.
    """
    degrees = tk.degrees
    ka = degrees[a]
    kc = degrees[c]
    sums = tk.nbrdeg_sum_list
    if ka != kc and sums[b] - ka != sums[d] - kc:
        return False
    offset_of = tk.offset_of
    row_a = offset_of[a].keys()
    row_b = offset_of[b].keys()
    row_c = offset_of[c].keys()
    row_d = offset_of[d].keys()
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
    kb = degrees[b]
    kd = degrees[d]
    if com_ab or com_cd or com_ad or com_cb:
        destroyed = sorted(
            [sorted((ka, kb, degrees[x])) for x in com_ab]
            + [sorted((kc, kd, degrees[x])) for x in com_cd]
        )
        created = sorted(
            [sorted((ka, kd, degrees[y])) for y in com_ad]
            + [sorted((kc, kb, degrees[y])) for y in com_cb]
        )
        if destroyed != created:
            return False
    if ka == kc:
        return True
    # open paths change only at the exchanged heads (kb == kd), trading a
    # (ka, kx) pair for a (kc, kx) one at b and back at d: they balance iff
    # b's neighbors other than a and d's other than c carry the same degrees
    heads = dict(tk.nbrdeg[b])
    _bump(heads, ka, -1)
    _bump(heads, kc, 1)
    return heads == tk.nbrdeg[d]


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
    # live neighbor sets: dict keys views, so no per-call copy
    offset_of = tk.offset_of
    row_a = offset_of[a].keys()
    row_b = offset_of[b].keys()
    row_c = offset_of[c].keys()
    row_d = offset_of[d].keys()
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
# objective chains: dK-preserving randomizing, targeting (Metropolis toward a
# dK-distribution) and dK-space exploration (a next-level metric pushed to an
# extreme)
# --------------------------------------------------------------------------- #
#
# An energy is an exact integer: 0 throughout for randomizing; the squared
# distance to the target counts for targeting, a Metropolis chain that takes
# zero-change moves as free randomization steps and stops at 0; a scalar
# metric's signed change for exploration, which accepts only strict
# improvements for its whole attempt budget.  Integer energies keep every
# decision exact, so the batched and per-move evaluators, both membership
# tables, both gradient layouts and every batch size take the same moves.


def _metropolis(change: int, temperature: float, uniform: float) -> bool:
    """Uphill acceptance of a Metropolis move (``change > 0``)."""
    return temperature > 0 and uniform < math.exp(-change / temperature)


@dataclass(frozen=True)
class Objective:
    """One chain's objective: the loop it runs and how that loop prices a move.

    * ``loop`` — 0, 1 and 2 are the 0K, 1K and 2K proposal loops on the flat
      edge arrays; 3 is 2K proposals priced on the wedge/triangle kernel;
    * ``scorer`` — loops 1 and 2: ``state -> (start energy, change,
      commit)`` built on the chain's :class:`RewiringState`.
      ``change(a, b, c, d)`` is the exact integer energy change of the swap
      ``(a,b),(c,d) -> (a,d),(c,b)``, and ``commit(a, b, c, d)`` applies an
      accepted one to the scorer's live state.  ``None`` prices nothing:
      every valid proposal is a move;
    * ``target`` — loop 3: ``None`` accepts a swap iff its wedge/triangle
      delta is empty (3K randomizing); a P_3 prices it by the squared
      distance to that distribution's wedge and triangle counts;
    * ``limit`` — a priced move is accepted iff its change is at most this
      (or, under a temperature schedule, it passes the Metropolis test);
    * ``stops`` — the chain ends once its energy reaches 0.
    """

    label: str
    loop: int
    limit: int = 0
    stops: bool = False
    scorer: Callable | None = None
    target: ThreeKDistribution | None = None


def dk_preserving(d: int) -> Objective:
    """dK-preserving randomizing: every valid dK-preserving proposal is a move.

    d = 0, 1 and 2 run their own proposal loops with no scorer; the energy is
    0 throughout and never stops the chain, so it runs its whole attempt
    budget.  d = 3 runs loop 3 with no target: a 2K proposal is accepted iff
    it leaves the wedge and triangle distributions unchanged.  At every n
    that verdict comes from :func:`_batch_zero_delta` on each draw batch,
    and from :func:`_scalar_zero_eval` for a proposal behind an accepted
    move of its batch.
    """
    return Objective(f"{d}K-preserving randomizing", d)


def _count_edges(counts: dict, degrees, edges) -> dict:
    """Add each ``(u, v, amount)`` of ``edges`` to the count of its JDD key;
    returns ``counts``."""
    for u, v, amount in edges:
        ku = degrees[u]
        kv = degrees[v]
        key = (ku, kv) if ku <= kv else (kv, ku)
        counts[key] = counts.get(key, 0) + amount
    return counts


def jdd_distance(target) -> Objective:
    """Squared distance ``D_2`` to a target JDD: 2K-targeting on 1K proposals.

    The scorer keeps ``current - target`` per JDD key live; a key's count
    moving by ``n`` changes the distance by ``n (2 diff + n)``.  A
    zero-change move is a free randomization step, and the chain ends once
    the target is reached.
    """

    def scorer(state):
        degrees = state.degrees
        diff = {key: -count for key, count in target.counts.items()}
        _count_edges(diff, degrees, zip(state.edge_u, state.edge_v, repeat(1)))

        def change(a, b, c, d):
            if degrees[a] == degrees[c] or degrees[b] == degrees[d]:
                return 0  # each edge it removes comes back under the same key
            delta = _count_edges({}, degrees, ((a, b, -1), (c, d, -1), (a, d, 1), (c, b, 1)))
            total = 0
            for key, n in delta.items():
                total += n * (2 * diff.get(key, 0) + n)
            return total

        def commit(a, b, c, d):
            _count_edges(diff, degrees, ((a, b, -1), (c, d, -1), (a, d, 1), (c, b, 1)))

        return sum(value * value for value in diff.values()), change, commit

    return Objective("2K-targeting", 1, stops=True, scorer=scorer)


def three_k_distance(target: ThreeKDistribution) -> Objective:
    """Squared distance ``D_3`` to target wedge and triangle counts:
    3K-targeting on 2K proposals.

    Its gradient over the rank-packed keys is ``2 (current - target)``, so a
    delta's change is ``Σ net (grad + net)``; a key in neither count holds 0.
    """
    return Objective("3K-targeting", 3, stops=True, target=target)


class _SparseGradient:
    """Sorted key/value twin of the dense gradient array.

    Serves the two operations the 3K-targeting chain performs on its
    gradient: a gather ``grad[keys]`` and a scatter ``grad[keys] = values``
    of distinct keys (so ``grad[keys] += values`` works as on an array).  A
    key absent from the stored arrays reads 0, as on the dense array; a
    scatter to an absent key inserts it.
    """

    __slots__ = ("keys", "vals")

    def __init__(self, keys: np.ndarray, vals: np.ndarray):
        self.keys = keys
        self.vals = vals

    def _find(self, keys):
        pos = np.searchsorted(self.keys, keys)
        hit = pos < self.keys.size
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        return pos, hit

    def __getitem__(self, keys):
        pos, hit = self._find(keys)
        out = np.zeros(keys.size, dtype=np.int64)
        out[hit] = self.vals[pos[hit]]
        return out

    def __setitem__(self, keys, values):
        pos, hit = self._find(keys)
        self.vals[pos[hit]] = values[hit]
        if not hit.all():
            order = np.argsort(keys[~hit])
            new_keys = keys[~hit][order]
            at = np.searchsorted(self.keys, new_keys)
            self.keys = np.insert(self.keys, at, new_keys)
            self.vals = np.insert(self.vals, at, values[~hit][order])


def _gradient(target: ThreeKDistribution, tk: _ThreeKState, graph: SimpleGraph):
    """``(grad, energy)``: the 3K-targeting chain's energy gradient over the
    rank-packed unified keys, and its start energy on ``graph``.

    The gradient is a dense int64 array with one slot per key up to
    :data:`THREEK_RANK_SLOTS_MAX` slots and a :class:`_SparseGradient`
    beyond it; both read and update identically.
    """
    keys, diff, energy = _initial_threek_diff(tk, graph, target)
    slots = 2 * tk.n_ranks**3
    if slots <= THREEK_RANK_SLOTS_MAX:
        grad = np.zeros(slots, dtype=np.int64)
        grad[keys] = 2 * diff
    else:
        grad = _SparseGradient(keys, 2 * diff)
    return grad, energy


@dataclass
class ChainRun:
    """Outcome of an objective chain: its final state and energy trajectory.

    ``graph`` materializes the final edge arrays on first read, so a caller
    that reads only the move counts (a randomizing pilot) never builds it.
    """

    state: RewiringState
    energy: int
    accepted: int
    attempted: int
    trace: list[int]

    @cached_property
    def graph(self) -> SimpleGraph:
        return self.state.to_graph()


def run_chain(
    graph: SimpleGraph,
    objective: Objective,
    *,
    rng: RngLike = None,
    max_attempts: int,
    schedule=None,
    trace_every: int = 1000,
) -> ChainRun:
    """Run ``objective``'s chain on a copy of ``graph``.

    ``objective.loop`` picks the loop: 0K proposals preserve the edge count,
    1K ones the degree sequence, 2K ones (loops 2 and 3) the JDD.  Loops 1
    and 2 price a valid proposal with ``objective.scorer`` when it has one;
    loop 3 prices it on the batched wedge/triangle kernel at every input
    size.  A temperature ``schedule`` (``step -> T``) enables Metropolis
    uphill moves on loops 1 and 3; without one a priced move is accepted iff
    its change is at most ``objective.limit``.  Only the kernel's membership
    table (bitset or sorted arc keys, by :data:`BITSET_MAX_NODES`) and
    gradient layout (dense or sparse, by :data:`THREEK_RANK_SLOTS_MAX`)
    depend on the input, and neither changes a move.  Proposals are drawn
    :data:`THREEK_BATCH_SIZE` at a time by loop 3 and
    :data:`DEFAULT_BATCH_SIZE` at a time by the others; no batch width
    changes a move either.  The trace records the energy every
    ``trace_every`` attempts, plus the start and end.
    """
    rng = ensure_rng(rng)
    state = RewiringState(graph)
    if objective.loop >= 2:
        state.build_buckets()
    chain = (_objective_chain_0k, _objective_chain_1k, _objective_chain_2k, _objective_chain_3k)
    energy, accepted, attempted, trace = chain[objective.loop](
        state, graph, objective, rng, max_attempts, schedule, trace_every
    )
    return ChainRun(state, energy, accepted, attempted, trace)


def _close_trace(trace: list, energy: int, attempts: int, next_trace: int) -> list:
    """End a trace whose loop records the energy of attempt ``k`` on reaching
    attempt ``k + 1``: add the last attempt's entry if it was due, then the
    end."""
    if attempts == next_trace:
        trace.append(energy)
    trace.append(energy)
    return trace


def _objective_chain_0k(
    state, graph, objective, rng, max_attempts, schedule, trace_every
):
    """0K proposals: re-attach a random edge to a random node pair.  Their
    only objective is 0K-preserving randomizing, so every valid proposal
    (a new simple edge) is accepted and no delta is computed."""
    n = state.n
    m = state.m
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    energy = 0

    stream_edge, stream_x, stream_y = _spawn_streams(rng, 3)
    accepted = 0
    attempts = 0
    next_trace = trace_every
    trace = [energy]
    while attempts < max_attempts and m >= 1 and n >= 2:
        size = min(DEFAULT_BATCH_SIZE, max_attempts - attempts)
        slots = stream_edge.integers(0, m, size=size).tolist()
        xs = stream_x.integers(0, n, size=size).tolist()
        ys = stream_y.integers(0, n, size=size).tolist()
        batch_start_acc = accepted
        batch_start_att = attempts
        for slot, x, y in zip(slots, xs, ys):
            if attempts == next_trace:
                trace.append(energy)
                next_trace += trace_every
            attempts += 1
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
        record_batch_efficiency(
            objective.label, accepted - batch_start_acc, attempts - batch_start_att
        )
    return energy, accepted, attempts, _close_trace(trace, energy, attempts, next_trace)


def _objective_chain_1k(
    state, graph, objective, rng, max_attempts, schedule, trace_every
):
    """1K proposals: degree-preserving double swaps.  Without a ``scorer``
    (1K-preserving randomizing) every valid swap is accepted; a scorer's
    ``change`` prices each valid one, accepted iff it is at most
    ``objective.limit`` or passes the Metropolis test."""
    n = state.n
    m = state.m
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    limit = objective.limit
    stops = objective.stops
    scored = objective.scorer is not None
    energy = 0
    if scored:
        energy, change_of, commit = objective.scorer(state)

    stream_first, stream_second, stream_flip, stream_accept = _spawn_streams(rng, 4)
    no_uniforms = repeat(0.0)
    accepted = 0
    attempts = 0
    next_trace = trace_every
    trace = [energy]
    while (energy > 0 or not stops) and attempts < max_attempts and m >= 2:
        size = min(DEFAULT_BATCH_SIZE, max_attempts - attempts)
        firsts = stream_first.integers(0, m, size=size).tolist()
        seconds = stream_second.integers(0, m, size=size).tolist()
        flips = stream_flip.integers(0, 2, size=size).tolist()
        # the Metropolis uniforms are read only under a schedule; theirs is
        # the last stream spawned, so skipping its draws changes no move
        uniforms = (
            stream_accept.random(size=size).tolist() if schedule is not None else no_uniforms
        )
        batch_start_acc = accepted
        batch_start_att = attempts
        for i, j, flip, uniform in zip(firsts, seconds, flips, uniforms):
            if attempts == next_trace:
                trace.append(energy)
                next_trace += trace_every
            attempts += 1
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
            key_cb = c * n + b if c < b else b * n + c
            if key_ad in edge_set or key_cb in edge_set:
                continue
            if scored:
                change = change_of(a, b, c, d)
                if change > limit and not (
                    schedule is not None and _metropolis(change, schedule(attempts), uniform)
                ):
                    continue
                commit(a, b, c, d)
                energy += change
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
            if stops and energy == 0:
                break
        record_batch_efficiency(
            objective.label, accepted - batch_start_acc, attempts - batch_start_att
        )
    return energy, accepted, attempts, _close_trace(trace, energy, attempts, next_trace)


def _objective_chain_3k(
    state, graph, objective, rng, max_attempts, schedule, trace_every
):
    """2K proposals scored on their wedge/triangle delta: 3K-preserving
    randomizing (a zero-delta verdict) and 3K targeting
    (:func:`three_k_distance`)."""
    tk = _ThreeKState(state)
    # 3K-preserving randomizing needs only a zero/nonzero verdict per
    # proposal: no rank-packed statistic, no gradient, and one snapshot per
    # draw batch (that verdict is cheap enough that fewer, wider snapshots
    # beat fewer staleness fallbacks).  Re-timed with the O(1) sum filter in
    # both evaluators, d = 3 multiplier 1 on a 2-core VM, median (range) over
    # interleaved runs at snapshot widths 160 / 384 / 768: AS-2600 0.58
    # (0.52-0.77) / 0.55 (0.50-0.69) / 0.51 (0.30-0.58) s; skitter-like
    # n = 9,204 2.51 (2.05-2.84) / 2.31 (1.43-2.58) / 2.04 (1.91-2.33) s
    target = objective.target
    zero = target is None
    batch_size = THREEK_BATCH_SIZE
    if zero:
        grad, energy = None, 0
        chunk = batch_size
        no_keys = np.empty(0, dtype=np.int64)
    else:
        # 2K-preserving moves keep the degree multiset fixed, so every wedge
        # or triangle key the chain can ever meet is a pack over today's
        # distinct degree values (plus any degree appearing only in a
        # target).  Packing by degree *rank* instead of degree value makes
        # that key space dense: with ``n_ranks`` distinct degrees every
        # unified key is an index below ``2 * n_ranks**3`` — no mid-run key
        # discovery anywhere.  The value->rank map is monotone, so
        # rank-packed keys sort exactly like degree-packed ones and the
        # batched/scalar item-order identity is untouched.
        kd = np.fromiter((k for key in (*target.wedges, *target.triangles) for k in key), np.int64)
        tk.rank_by(np.unique(np.concatenate((tk.deg, kd))))
        # the chain's whole objective: ``grad[key]`` is the squared
        # distance's gradient ``2 (current - target)`` over rank-packed
        # unified keys.  A delta's change is ``Σ net * (grad + net)``, and the
        # gradient moves by ``2 * net`` per accepted move.  Everything stays
        # int64-exact, so the energy trace is identical for every batch
        # size, evaluation path and gradient layout.
        grad, energy = _gradient(target, tk, graph)
        chunk = THREEK_EVAL_CHUNK
    limit = objective.limit
    stops = objective.stops
    n = state.n
    m = state.m
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set

    stream_end, stream_pos, stream_accept = _spawn_streams(rng, 3)
    stamp = tk.stamp
    accepted = 0
    attempts = 0
    next_trace = trace_every
    trace = [energy]
    while (energy > 0 or not stops) and attempts < max_attempts and m >= 2:
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
        for off in range(0, size, chunk):
            hi = min(off + chunk, size)
            tk.flush()
            i_arr, side, a_arr, b_arr, j_arr, eside, c_arr, d_arr, valid = (
                _batch_resolve(tk, ends_all[off:hi], positions_all[off:hi])
            )
            if zero:
                # every proposal that passes owns the one empty delta slice
                valid &= _batch_zero_delta(tk, a_arr, b_arr, c_arr, d_arr, valid)
                starts, keys, nets = [0, 0], no_keys, no_keys
                slot_of = [0] * (hi - off)
            else:
                starts, keys, nets, slot_of = _batch_full_delta(
                    tk, a_arr, b_arr, c_arr, d_arr, valid
                )
            base = tk.clock
            # the change of every snapshot-valid proposal against the
            # chunk-start gradient, in one vectorized pass summed per
            # proposal by segmented cumsum.  Accepted moves shift the
            # gradient for later proposals of the same chunk; once any
            # accept dirties the chunk, the per-proposal correction is the
            # exact integer sum(net * grad_now) - sum(net * grad_start) —
            # one gather + dot, no rounding.
            if keys.size:
                g0 = grad[keys]
                csum = np.zeros(keys.size + 1, dtype=np.int64)
                np.cumsum(nets * (g0 + nets), out=csum[1:])
                sarr = np.asarray(starts, dtype=np.int64)
                change0 = (csum[sarr[1:]] - csum[sarr[:-1]]).tolist()
                np.cumsum(nets * g0, out=csum[1:])
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
                            if zero:
                                ok = _scalar_zero_eval(tk, a, b, c, d)
                                items = []
                            else:
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
                            change += (
                                int(np.dot(nets[s0:s1], grad[keys[s0:s1]]))
                                - base_dot[pos]
                            )
                    elif items:
                        # the staleness path reads the live gradient
                        # directly, so it needs no chunk-start correction
                        karr, narr = np.array(items, dtype=np.int64).T
                        change = int(np.dot(narr, grad[karr] + narr))
                    else:
                        change = 0
                    if change <= limit or (
                        schedule is not None
                        and _metropolis(change, schedule(attempts), u)
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
                                grad[keys[s0:s1]] += 2 * nets[s0:s1]
                                dirty = True
                        elif items:
                            grad[karr] += 2 * narr
                            dirty = True
                        energy += change
                        accepted += 1
                if attempts == next_trace:
                    trace.append(energy)
                    next_trace += trace_every
                if stops and energy == 0:
                    break
            if stops and energy == 0:
                break
        record_batch_efficiency(
            objective.label, accepted - batch_start_acc, attempts - batch_start_att
        )
    trace.append(energy)
    return energy, accepted, attempts, trace


def _objective_chain_2k(
    state, graph, objective, rng, max_attempts, schedule, trace_every
):
    """2K proposals on the flat edge arrays.  With no ``scorer`` (2K-preserving
    randomizing) every valid degree-matched head exchange is accepted with no
    score computed; a scorer's ``change`` prices each valid one, accepted iff
    it is at most ``objective.limit``."""
    buckets = state.bucket_table
    n = state.n
    m = state.m
    degrees = state.degrees
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    limit = objective.limit
    scored = objective.scorer is not None
    energy = 0
    if scored:
        energy, change_of, commit = objective.scorer(state)

    # the third (Metropolis) stream is never read here; spawning it anyway
    # leaves the caller's generator as every 2K-proposal chain leaves it
    stream_end, stream_pos, _ = _spawn_streams(rng, 3)
    accepted = 0
    attempts = 0
    next_trace = trace_every
    trace = [energy]
    while attempts < max_attempts and m >= 2:
        size = min(DEFAULT_BATCH_SIZE, max_attempts - attempts)
        ends = stream_end.integers(0, 2 * m, size=size).tolist()
        positions = stream_pos.random(size=size).tolist()
        batch_start_acc = accepted
        batch_start_att = attempts
        for end, r in zip(ends, positions):
            if attempts == next_trace:
                trace.append(energy)
                next_trace += trace_every
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
            key_cb = c * n + b if c < b else b * n + c
            if key_ad in edge_set or key_cb in edge_set:
                continue
            if scored:
                change = change_of(a, b, c, d)
                if change > limit:
                    continue
                commit(a, b, c, d)
                energy += change
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
        record_batch_efficiency(
            objective.label, accepted - batch_start_acc, attempts - batch_start_att
        )
    return energy, accepted, attempts, _close_trace(trace, energy, attempts, next_trace)


__all__ = [
    "ENGINE_NAME",
    "ChainRun",
    "Objective",
    "RewiringState",
    "dk_preserving",
    "jdd_distance",
    "run_chain",
    "three_k_distance",
]
