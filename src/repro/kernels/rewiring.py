"""The rewiring engine: Markov-chain moves on flat edge arrays.

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
* for 3K randomizing and 3K targeting, the live neighborhoods the
  wedge/triangle evaluators read (:class:`_ThreeKState`): per-node neighbor
  sets, neighbor-degree histograms and neighbor-degree sums, all updated
  per accepted move.  The 3K-*preserving* chain asks
  :func:`_scalar_zero_eval` for a zero/nonzero verdict per proposal; the
  targeting chain asks :func:`_scalar_full_eval` for the proposal's full
  delta over degree-packed wedge/triangle keys.

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
* Loop 3 proposes 2K moves, as loop 2 does, and prices each valid one on
  its wedge/triangle delta against the live neighborhoods: a zero-delta
  verdict for 3K randomizing, or the squared distance to the objective's
  ``target`` P_3 (:func:`three_k_distance`).  A leaf exchange only relabels
  the graph, so loop 3 takes it as a zero delta without evaluating it.

Energies are exact integers, so every accept decision is exact.  The
callers live in :mod:`repro.generators`;
:func:`~repro.generators.rewiring.preserving.dk_randomize` sizes a
randomizing chain's attempt budget with a pilot chain before it starts, so
the chain stops on attempts, never on its accepted-move count, and samples
the dK-random graphs uniformly.

Proposals are drawn in vectorized batches: each random quantity (edge slot,
partner, orientation, Metropolis uniform) comes from its own spawned child
stream, consumed exactly once per proposal — so the chain's output depends
only on the seed, *not* on the batch width (:data:`DEFAULT_BATCH_SIZE`),
and is deterministic per seed.  The batch arrays are converted to Python
ints in bulk (``.tolist()``) and validated, priced and applied one proposal
at a time against the live state.

The Table-5 rewiring counter (:mod:`repro.generators.rewiring.counting`)
asks the same zero-delta evaluator for its d = 3 verdicts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from repro.core.distributions import ThreeKDistribution
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.biggraph import threek_counts
from repro.telemetry.metrics import gauge_set
from repro.utils.rng import RngLike, ensure_rng

#: Name recorded in the chain stats of graphs built by this engine.
ENGINE_NAME = "csr"

#: Proposals drawn per vectorized batch.  A pure performance constant: the
#: engine consumes each random stream per-proposal, so the chain's output is
#: identical for every batch size.
DEFAULT_BATCH_SIZE = 4096


def record_batch_efficiency(label: str, accepted: int, attempted: int) -> None:
    """Publish the acceptance ratio of one proposal batch.

    The chains call this once per draw batch so operators can watch
    ``repro_rewiring_batch_efficiency`` (accepted/attempted, labelled by
    chain) on ``/v1/metrics`` while a chain runs.  Every proposal is priced
    against the live state, so no batch work is precomputed: a ratio that
    collapses means the chain holds on most proposals (a tight dK-space, or
    a targeting chain near its target), not that batch work is wasted.
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
# 3K evaluators: one swap's wedge/triangle delta on the live neighborhoods
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
# A leaf exchange (``kb == 1``, or ``ka == kc == 1``) only swaps the labels
# of two leaves, so its delta is empty and the chains never evaluate it.
# The tests check both evaluators against a from-scratch wedge/triangle
# recount of the swapped graph.


class _ThreeKState:
    """The live neighborhoods the 3K evaluators read.

    Built once per 3K chain (or Table-5 count) from a
    :class:`RewiringState` and updated per accepted move by
    :meth:`apply_swap`:

    * ``nbrs`` — per-node neighbor sets, intersected pairwise for the
      triangles a swap destroys and creates;
    * ``nbrdeg`` — per-node neighbor-*degree* histograms.  A swap only
      changes the histograms of the two exchanged heads (the other two rows
      trade equal-degree neighbors), so maintenance is four dict bumps per
      accepted move, and the evaluators get their open-path deltas in
      O(distinct neighbor degrees) instead of O(deg);
    * ``nbrdeg_sum`` — per-node neighbor-degree sums ``s_u = sum(k_x for x
      in N(u))`` (``S2 = (sum(s_u**2) - sum(k_u**3)) / 2``).  Like the
      histograms, only the exchanged heads' sums change, in O(1):
      ``s_b += k_c - k_a``, ``s_d += k_a - k_c``.  A zero delta needs
      ``s_b - k_a == s_d - k_c``, an O(1) test the callers of
      :func:`_scalar_zero_eval` apply before any neighborhood work.
    """

    __slots__ = ("degrees", "nbrs", "nbrdeg", "nbrdeg_sum")

    def __init__(self, state: RewiringState):
        degrees = state.degrees
        self.degrees = degrees
        nbrs: list[set[int]] = [set() for _ in range(state.n)]
        for u, v in zip(state.edge_u, state.edge_v):
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.nbrs = nbrs
        degree_of = degrees.__getitem__
        self.nbrdeg = [Counter(map(degree_of, row)) for row in nbrs]
        self.nbrdeg_sum = [sum(map(degree_of, row)) for row in nbrs]

    def apply_swap(self, a, b, c, d) -> None:
        """Commit ``(a,b),(c,d) -> (a,d),(c,b)`` to the neighborhoods."""
        nbrs = self.nbrs
        for node, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
            row = nbrs[node]
            row.remove(old)
            row.add(new)
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
            sums = self.nbrdeg_sum
            sums[b] += kc - ka
            sums[d] += ka - kc


def _resolve_ends(edge_u, edge_v, ends):
    """Slot, side, tail and head of packed oriented ends ``2 * slot + side``
    (vectorized)."""
    slot = ends >> 1
    side = ends & 1
    head = np.where(side == 1, edge_u[slot], edge_v[slot])
    tail = np.where(side == 1, edge_v[slot], edge_u[slot])
    return slot, side, tail, head


def _bump(counts: dict, key: int, amount: int) -> None:
    value = counts.get(key, 0) + amount
    if value:
        counts[key] = value
    else:
        counts.pop(key, None)


def _scalar_zero_eval(tk: _ThreeKState, a, b, c, d) -> bool:
    """Exact "swap leaves the 3K distribution unchanged" verdict.

    Its callers first apply an O(1) necessary condition, inline in loop 3
    and vectorized in the Table-5 counter: when ``ka != kc`` the open paths
    at the exchanged heads balance only if b's neighbors other than a and
    d's other than c carry the same degrees, so their sums must match,
    ``s_b - ka == s_d - kc`` (``nbrdeg_sum``).  That rejects most proposals
    before any neighbor set is intersected.  The verdict itself does not
    need it: triangle count balance, triangle degree-triple multiset
    equality (which also cancels the corner wedge contributions), and the
    open-path pairs at the exchanged heads (skipped outright when ``ka ==
    kc``) decide every proposal exactly.
    """
    degrees = tk.degrees
    ka = degrees[a]
    kc = degrees[c]
    nbrs = tk.nbrs
    row_a = nbrs[a]
    row_b = nbrs[b]
    row_c = nbrs[c]
    row_d = nbrs[d]
    com_ab = row_a & row_b
    com_cd = row_c & row_d
    com_ad = row_a & row_d
    com_cb = row_c & row_b
    if com_ab or com_cd or com_ad or com_cb:
        com_ad.discard(b)
        com_ad.discard(c)
        com_cb.discard(d)
        com_cb.discard(a)
        if len(com_ab) + len(com_cd) != len(com_ad) + len(com_cb):
            return False
        kb = degrees[b]
        kd = degrees[d]
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


def _scalar_full_eval(tk: _ThreeKState, a, b, c, d, base: int) -> dict:
    """The swap's net wedge/triangle change per degree-packed key.

    Keys pack degree values in ``base`` (above every degree): a wedge
    ``(end, centre, end)`` with its ends ascending as ``(e1 * base + k) *
    base + e2``, below ``base**3``, and a sorted triangle triple the same
    way plus ``base**3``.  A key whose contributions cancel may carry a net
    of 0.  The dict bumps and wedge-key packing are inlined: this is the
    3K-targeting chain's hot loop.
    """
    degrees = tk.degrees
    tri_off = base * base * base
    nbrs = tk.nbrs
    row_a = nbrs[a]
    row_b = nbrs[b]
    row_c = nbrs[c]
    row_d = nbrs[d]
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
    # open paths: at b every neighbor x other than a trades a (ka, kx) pair
    # for a (kc, kx) one, and at d every x other than c trades them back.
    # kb == kd, so both heads write the same wedge keys, and only the
    # difference of their histograms (b's without a, d's without c) moves
    # one.  When ka == kc every trade is void, so the section is skipped.
    if ka == kc:
        return delta
    heads = dict(tk.nbrdeg[b])
    heads[ka] -= 1
    heads[kc] = heads.get(kc, 0) + 1
    for kx, count in tk.nbrdeg[d].items():
        heads[kx] = heads.get(kx, 0) - count
    kab = ka * base
    kcb = kc * base
    for kx, net in heads.items():
        if net:
            key = (kcb + kb) * base + kx if kc < kx else (kx * base + kb) * base + kc
            delta[key] = get(key, 0) + net
            key = (kab + kb) * base + kx if ka < kx else (kx * base + kb) * base + ka
            delta[key] = get(key, 0) - net
    return delta
    kab = ka * base
    kcb = kc * base
    for kx, count in tk.nbrdeg[b].items():
        key = (kcb + kb) * base + kx if kc < kx else (kx * base + kb) * base + kc
        delta[key] = get(key, 0) + count
        key = (kab + kb) * base + kx if ka < kx else (kx * base + kb) * base + ka
        delta[key] = get(key, 0) - count
    key = (kcb + kb) * base + ka if kc < ka else (kab + kb) * base + kc
    delta[key] = get(key, 0) - 1
    key = (kab + kb) * base + ka
    delta[key] = get(key, 0) + 1
    for kx, count in tk.nbrdeg[d].items():
        key = (kab + kd) * base + kx if ka < kx else (kx * base + kd) * base + ka
        delta[key] = get(key, 0) + count
        key = (kcb + kd) * base + kx if kc < kx else (kx * base + kd) * base + kc
        delta[key] = get(key, 0) - count
    key = (kab + kd) * base + kc if ka < kc else (kcb + kd) * base + ka
    delta[key] = get(key, 0) - 1
    key = (kcb + kd) * base + kc
    delta[key] = get(key, 0) + 1
    return delta


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
# decision exact, so every batch size takes the same moves.


def _metropolis(change: int, temperature: float, uniform: float) -> bool:
    """Uphill acceptance of a Metropolis move (``change > 0``)."""
    return temperature > 0 and uniform < math.exp(-change / temperature)


@dataclass(frozen=True)
class Objective:
    """One chain's objective: the loop it runs and how that loop prices a move.

    * ``loop`` — 0, 1 and 2 are the 0K, 1K and 2K proposal loops on the flat
      edge arrays; 3 is 2K proposals priced on their wedge/triangle delta;
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
    it leaves the wedge and triangle distributions unchanged, the verdict of
    :func:`_scalar_zero_eval` on the live neighborhoods.
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

    Its gradient over the degree-packed keys of :func:`_scalar_full_eval` is
    ``2 (current - target)``, so a delta's change is ``Σ net (grad + net)``;
    a key in neither count holds 0.
    """
    return Objective("3K-targeting", 3, stops=True, target=target)


def _gradient(target: ThreeKDistribution, graph: SimpleGraph, base: int):
    """``(grad, energy)``: the 3K-targeting chain's energy gradient and its
    start energy on ``graph``.

    ``grad`` maps each degree-packed key (base ``base``, triangles offset by
    ``base**3``, as in :func:`_scalar_full_eval`) to ``2 (current -
    target)``; a key it lacks holds 0.  The start graph's counts come from
    the csr 3K counter :func:`~repro.kernels.biggraph.threek_counts`, the one
    that extracts P_3; both sides are degree-keyed, so they share one
    packing.
    """
    tri_off = base * base * base
    diff: dict[int, int] = {}
    wedges, triangles = threek_counts(graph)
    for counts, off, sign in (
        (wedges, 0, 1),
        (triangles, tri_off, 1),
        (target.wedges, 0, -1),
        (target.triangles, tri_off, -1),
    ):
        for (k1, k2, k3), count in counts.items():
            key = (k1 * base + k2) * base + k3 + off
            diff[key] = diff.get(key, 0) + sign * count
    energy = sum(value * value for value in diff.values())
    return {key: 2 * value for key, value in diff.items() if value}, energy


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
    loop 3 prices it on its wedge/triangle delta.  A temperature
    ``schedule`` (``step -> T``) enables Metropolis uphill moves on loops 1
    and 3; without one a priced move is accepted iff its change is at most
    ``objective.limit``.  Proposals are drawn :data:`DEFAULT_BATCH_SIZE` at
    a time and priced one at a time against the live state, so no batch
    width changes a move.  The trace records the energy every
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
    """2K proposals priced on their wedge/triangle delta: 3K-preserving
    randomizing (a zero-delta verdict) and 3K targeting
    (:func:`three_k_distance`).

    Each proposal is resolved from the bucket table as in the 2K loop and
    priced against the live neighborhoods of a :class:`_ThreeKState`.  A
    leaf exchange (``kb == 1``, or ``ka == kc == 1``) is a zero delta
    without evaluation.  Accepted moves update the 3K-targeting gradient
    (one dict over degree-packed keys) by ``2 * net`` per key."""
    tk = _ThreeKState(state)
    sums = tk.nbrdeg_sum
    target = objective.target
    zero = target is None
    energy = 0
    if not zero:
        # a key base above every degree of the graph and of the target
        base = 1 + max(
            max(state.degrees, default=0),
            max((k for key in (*target.wedges, *target.triangles) for k in key), default=0),
        )
        grad, energy = _gradient(target, graph, base)
        grad_of = grad.get
    buckets = state.bucket_table
    n = state.n
    m = state.m
    degrees = state.degrees
    edge_u = state.edge_u
    edge_v = state.edge_v
    edge_key = state.edge_key
    edge_set = state.edge_set
    limit = objective.limit
    stops = objective.stops

    stream_end, stream_pos, stream_accept = _spawn_streams(rng, 3)
    no_uniforms = repeat(0.0)
    accepted = 0
    attempts = 0
    next_trace = trace_every
    trace = [energy]
    while (energy > 0 or not stops) and attempts < max_attempts and m >= 2:
        size = min(DEFAULT_BATCH_SIZE, max_attempts - attempts)
        ends = stream_end.integers(0, 2 * m, size=size).tolist()
        positions = stream_pos.random(size=size).tolist()
        # the Metropolis uniforms are read only under a schedule; theirs is
        # the last stream spawned, so skipping its draws changes no move
        uniforms = (
            stream_accept.random(size=size).tolist() if schedule is not None else no_uniforms
        )
        batch_start_acc = accepted
        batch_start_att = attempts
        for end, r, uniform in zip(ends, positions, uniforms):
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
            kb = degrees[b]
            bucket = buckets[kb]
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
            ka = degrees[a]
            kc = degrees[c]
            if zero and ka != kc and sums[b] - ka != sums[d] - kc:
                continue  # a zero delta needs equal sums (_scalar_zero_eval)
            key_ad = a * n + d if a < d else d * n + a
            key_cb = c * n + b if c < b else b * n + c
            if key_ad in edge_set or key_cb in edge_set:
                continue
            change = 0
            if kb == 1 or ka == kc == 1:
                delta = None  # a leaf exchange only relabels the graph
            elif zero:
                if not _scalar_zero_eval(tk, a, b, c, d):
                    continue
                delta = None
            else:
                delta = _scalar_full_eval(tk, a, b, c, d, base)
                for key, net in delta.items():
                    change += net * (grad_of(key, 0) + net)
            if change > limit and not (
                schedule is not None and _metropolis(change, schedule(attempts), uniform)
            ):
                continue
            if delta:
                for key, net in delta.items():
                    if net:
                        grad[key] = grad_of(key, 0) + 2 * net
                energy += change
            tk.apply_swap(a, b, c, d)
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
            if stops and energy == 0:
                break
        record_batch_efficiency(
            objective.label, accepted - batch_start_acc, attempts - batch_start_att
        )
    return energy, accepted, attempts, _close_trace(trace, energy, attempts, next_trace)


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
