"""dK-space explorations (Section 4.3 of the paper).

A dK-space exploration constructs *non-random* dK-graphs: graphs constrained
by ``P_d`` but with extreme values of a simple scalar metric that is defined
by ``P_{d+1}`` and not by ``P_d``.  The paper uses:

* 1K-space: the likelihood ``S = Σ_{edges} k_u k_v`` (defined by 2K),
* 2K-space: the second-order likelihood ``S2`` (degree correlations at
  distance two, defined by the wedge component of 3K) and the mean
  clustering ``C̄`` (defined by the triangle component of 3K).

Each exploration is a targeting rewiring that accepts a dK-preserving move
only when it pushes the chosen metric strictly in the requested direction.
Every change is an exact integer:

* ``S`` runs on 1K proposals under a weight vector over the JDD keys,
  ``k1 k2`` per edge (:class:`~repro.kernels.rewiring.LinearObjective`);
* ``S2`` and ``C̄`` run on the engine's plain 2K-proposal loop, each with a
  per-move scorer over live chain state.  A swap ``(a,b),(c,d) ->
  (a,d),(c,b)`` changes ``S2`` by ``δ(s_b - s_d + δ)``, with
  ``δ = k_c - k_a`` and ``s_u`` the sum of u's neighbor degrees (only
  ``s_b`` and ``s_d`` move, by ``±δ``).  It changes ``C̄`` only through the
  triangles it destroys (over ``N(a)∩N(b)`` and ``N(c)∩N(d)``) and creates
  (over ``N(a)∩N(d) - {b,c}`` and ``N(c)∩N(b) - {d,a}``), each worth
  ``(1/n) Σ_{k in corners} 1/C(k, 2)``.  The ``1/C(k, 2)`` terms are
  rounded to a fixed-point integer grid whose resolution follows the
  maximum degree (2^-44 at 100).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import ENGINE_NAME, LinearObjective, run_chain
from repro.metrics.assortativity import likelihood, second_order_likelihood
from repro.metrics.clustering import mean_clustering
from repro.telemetry import span
from repro.utils.rng import RngLike

Mode = Literal["max", "min"]

#: Swap count the ``C̄`` grid is sized for: that many swaps' changes stay
#: below 2^62 grid units.  Frozen, so the grid, and with it every ``C̄``
#: decision of a seed, depends on the graph's maximum degree alone.
_CLUSTERING_GRID_SWAPS = 160


@dataclass
class ExplorationResult:
    """Outcome of a dK-space exploration run."""

    graph: SimpleGraph
    metric_value: float
    accepted_moves: int
    attempted_moves: int
    metric_trace: list[float]
    stats: dict[str, Any] = field(default_factory=dict)


def _check_mode(mode: Mode) -> None:
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")


def _explore(
    graph: SimpleGraph,
    objective,
    metric,
    scale: int,
    rng: RngLike,
    max_attempts: int | None,
) -> ExplorationResult:
    """Run ``objective``'s chain and map its energy trace to values of
    ``metric``: ``start + sign * energy / scale``."""
    # measured on a private copy, so the caller's graph keeps its own
    # measurement cache untouched
    start = metric(graph.copy())
    if max_attempts is None:
        max_attempts = 100 * max(graph.number_of_edges, 1)
    with span(
        "kernel.rewire_explore",
        engine=ENGINE_NAME,
        objective=objective.label,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ) as sp:
        run = run_chain(graph, objective, rng=rng, max_attempts=max_attempts)
        sp.set(accepted=run.accepted, attempted=run.attempted)
    trace = [start + objective.sign * energy / scale for energy in run.trace]
    return ExplorationResult(
        graph=run.graph,
        metric_value=trace[-1],
        accepted_moves=run.accepted,
        attempted_moves=run.attempted,
        metric_trace=trace,
        stats={"engine": ENGINE_NAME},
    )


def explore_1k_likelihood(
    graph: SimpleGraph,
    mode: Mode = "max",
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
) -> ExplorationResult:
    """1K-space exploration: drive ``S`` to its extreme with 1K-preserving swaps.

    This is the experiment that led Li et al. to conclude that the degree
    distribution alone (d = 1) is not constraining enough for router-level
    topologies.
    """
    _check_mode(mode)
    objective = LinearObjective(
        f"S {mode} exploration", edge=lambda k1, k2: k1 * k2, maximize=mode == "max"
    )
    return _explore(graph, objective, likelihood, 1, rng, max_attempts)


class _SwapExploration:
    """An S2 or C̄ exploration on the plain 2K-proposal loop: ``make(state,
    sign)`` gives its per-move scorer ``(change, commit)`` over a swap's
    ``(a, b, c, d)``, and only a strict improvement is accepted."""

    proposal = 2
    scored = False  # priced by the scorer, not by the wedge/triangle kernel
    limit = -1
    stops = False

    def __init__(self, label: str, mode: Mode, make):
        self.label = label
        self.sign = -1 if mode == "max" else 1
        self.make = make

    def start(self, graph: SimpleGraph) -> int:
        return 0

    def scorer(self, state):
        return self.make(state, self.sign)


def _s2_scorer(state, sign: int):
    """``sign * ΔS2`` from the live neighbor-degree sums ``s``."""
    degrees = state.degrees
    sums = [0] * state.n
    for u, v in zip(state.edge_u, state.edge_v):
        sums[u] += degrees[v]
        sums[v] += degrees[u]

    def change(a, b, c, d):
        delta = degrees[c] - degrees[a]
        return sign * delta * (sums[b] - sums[d] + delta)

    def commit(a, b, c, d):
        delta = degrees[c] - degrees[a]
        sums[b] += delta
        sums[d] -= delta

    return change, commit


def _clustering_scale(degrees) -> int:
    """Grid units per unit of ``1 / C(k, 2)``: a 2K swap changes at most
    ``4 k_max`` triangles, each worth at most 3 units, and
    :data:`_CLUSTERING_GRID_SWAPS` such changes stay below 2^62."""
    top = max(max(degrees, default=0), 1)
    return 1 << (62 - (12 * top * _CLUSTERING_GRID_SWAPS).bit_length())


def _clustering_scorer(state, sign: int):
    """``sign * Δ(n C̄)`` in grid units, from live adjacency sets."""
    scale = _clustering_scale(state.degrees)
    weight = [round(scale * 2.0 / (k * (k - 1.0))) if k > 1 else 0 for k in state.degrees]
    adj = [set() for _ in range(state.n)]
    for u, v in zip(state.edge_u, state.edge_v):
        adj[u].add(v)
        adj[v].add(u)

    def change(a, b, c, d):
        row_a, row_b, row_c, row_d = adj[a], adj[b], adj[c], adj[d]
        gain = 0
        for common, u, v, side in (
            ((row_a & row_d) - {b, c}, a, d, 1),
            ((row_c & row_b) - {d, a}, c, b, 1),
            (row_a & row_b, a, b, -1),
            (row_c & row_d, c, d, -1),
        ):
            if common:
                corners = sum([weight[x] for x in common])
                gain += side * (len(common) * (weight[u] + weight[v]) + corners)
        return sign * gain

    def commit(a, b, c, d):
        for node, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
            adj[node].remove(old)
            adj[node].add(new)

    return change, commit


def explore_2k(
    graph: SimpleGraph,
    metric: Literal["clustering", "s2"],
    mode: Mode = "max",
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
) -> ExplorationResult:
    """2K-space exploration: drive ``C̄`` or ``S2`` to an extreme with
    2K-preserving (JDD-preserving) swaps."""
    if metric not in ("clustering", "s2"):
        raise ValueError(f"metric must be 'clustering' or 's2', got {metric!r}")
    _check_mode(mode)
    if metric == "s2":
        objective = _SwapExploration(f"S2 {mode} exploration", mode, _s2_scorer)
        return _explore(graph, objective, second_order_likelihood, 1, rng, max_attempts)
    objective = _SwapExploration(f"C {mode} exploration", mode, _clustering_scorer)
    scale = _clustering_scale(graph.degrees()) * max(graph.number_of_nodes, 1)
    return _explore(graph, objective, mean_clustering, scale, rng, max_attempts)


__all__ = [
    "ExplorationResult",
    "explore_1k_likelihood",
    "explore_2k",
]
