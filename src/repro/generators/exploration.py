"""dK-space explorations (Section 4.3 of the paper).

A dK-space exploration constructs *non-random* dK-graphs: graphs constrained
by ``P_d`` but with extreme values of a simple scalar metric that is defined
by ``P_{d+1}`` and not by ``P_d``.  The paper uses:

* 1K-space: the likelihood ``S = Σ_{edges} k_u k_v`` (defined by 2K),
* 2K-space: the second-order likelihood ``S2`` (degree correlations at
  distance two, defined by the wedge component of 3K) and the mean
  clustering ``C̄`` (defined by the triangle component of 3K).

Each exploration is a rewiring chain that accepts a dK-preserving move only
when it pushes the chosen metric strictly in the requested direction.  It
runs on the engine's plain proposal loop of its level (1K swaps for ``S``,
2K swaps for ``S2`` and ``C̄``) and prices each swap ``(a,b),(c,d) ->
(a,d),(c,b)`` with a per-move scorer over live chain state, the one pricing
protocol of :class:`~repro.kernels.rewiring.Objective`.  Every change is an
exact integer:

* ``S`` changes by ``(k_a - k_c)(k_d - k_b)``;
* ``S2`` changes by ``δ(s_b - s_d + δ)``, with ``δ = k_c - k_a`` and
  ``s_u`` the sum of u's neighbor degrees (only ``s_b`` and ``s_d`` move, by
  ``±δ``);
* ``C̄`` changes only through the triangles a swap destroys (over
  ``N(a)∩N(b)`` and ``N(c)∩N(d)``) and creates (over ``N(a)∩N(d) - {b,c}``
  and ``N(c)∩N(b) - {d,a}``), each worth ``(1/n) Σ_{k in corners}
  1/C(k, 2)``.  The ``1/C(k, 2)`` terms are rounded to a fixed-point
  integer grid whose resolution follows the maximum degree (2^-44 at 100).

The metric trace is read off the same integers: ``(S0 + ΣΔ) / scale``, where
``S0`` is the start graph's value in the scorer's units (for ``C̄``,
``Σ_v t_v w_v`` over the per-node triangle counts ``t_v`` and the grid
weights ``w_v``).  So a trace never leaves the metric's range, and a
``C̄`` trace reads 0.0 exactly once no triangle is left.  The entries before
the first accepted move are the measured start value itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import ENGINE_NAME, Objective, run_chain
from repro.measure.intermediates import (
    shared_edge_moments,
    shared_second_order,
    shared_triangles,
)
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


def _explore(
    graph: SimpleGraph, metric: str, mode: Mode, rng: RngLike, max_attempts: int | None
) -> ExplorationResult:
    """Run ``metric``'s exploration chain (its :data:`_EXPLORATIONS` row) and
    map its energy trace to values of the metric.

    The row's scorer prices a swap in ``sign``-signed grid units, and its
    start function gives the start graph's value in grid units and the grid
    units per unit of the metric.  An entry before the first accepted move
    is the measured start; every later one is ``(units + sign * energy) /
    scale``.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    label, loop, scorer, measure, start_units = _EXPLORATIONS[metric]
    sign = -1 if mode == "max" else 1
    # measured on a private copy, so the caller's graph keeps its own
    # measurement cache untouched
    probe = graph.copy()
    start = measure(probe)
    units, scale = start_units(probe)
    if max_attempts is None:
        max_attempts = 100 * max(graph.number_of_edges, 1)
    objective = Objective(
        f"{label} {mode} exploration", loop, limit=-1, scorer=lambda state: scorer(state, sign)
    )
    with span(
        "kernel.rewire_explore",
        engine=ENGINE_NAME,
        objective=objective.label,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ) as sp:
        run = run_chain(graph, objective, rng=rng, max_attempts=max_attempts)
        sp.set(accepted=run.accepted, attempted=run.attempted)
    # only strict improvements are accepted, so the energy is 0 exactly
    # until the first accepted move
    trace = [(units + sign * energy) / scale if energy else start for energy in run.trace]
    return ExplorationResult(
        graph=run.graph,
        metric_value=trace[-1],
        accepted_moves=run.accepted,
        attempted_moves=run.attempted,
        metric_trace=trace,
        stats={
            "engine": ENGINE_NAME,
            "accepted_moves": run.accepted,
            "attempted_moves": run.attempted,
            "accept_rate": run.accepted / run.attempted if run.attempted else 0.0,
        },
    )


def _likelihood_scorer(state, sign: int):
    """``sign * ΔS`` of a 1K swap, ``(k_a - k_c)(k_d - k_b)``."""
    degrees = state.degrees

    def change(a, b, c, d):
        return sign * (degrees[a] - degrees[c]) * (degrees[d] - degrees[b])

    return 0, change, lambda *swap: None  # no live state to update


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

    return 0, change, commit


def _clustering_scale(degrees) -> int:
    """Grid units per unit of ``1 / C(k, 2)``: a 2K swap changes at most
    ``4 k_max`` triangles, each worth at most 3 units, and
    :data:`_CLUSTERING_GRID_SWAPS` such changes stay below 2^62."""
    top = max(max(degrees, default=0), 1)
    return 1 << (62 - (12 * top * _CLUSTERING_GRID_SWAPS).bit_length())


def _clustering_weights(degrees) -> list[int]:
    """Each node's ``1 / C(k, 2)`` on the grid of :func:`_clustering_scale`."""
    scale = _clustering_scale(degrees)
    return [round(scale * 2.0 / (k * (k - 1.0))) if k > 1 else 0 for k in degrees]


def _clustering_scorer(state, sign: int):
    """``sign * Δ(n C̄)`` in grid units, from live adjacency sets."""
    weight = _clustering_weights(state.degrees)
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

    return 0, change, commit


def _clustering_start(graph: SimpleGraph) -> tuple[int, int]:
    """``n C̄`` in grid units, ``Σ_v t_v w_v``, and the units per unit of ``C̄``."""
    degrees = graph.degrees()
    weights = _clustering_weights(degrees)
    units = sum(t * w for t, w in zip(shared_triangles(graph), weights))
    return units, _clustering_scale(degrees) * max(graph.number_of_nodes, 1)


#: metric -> (chain label, proposal loop, scorer, measured value, start in
#: the scorer's units with the units per unit of the metric)
_EXPLORATIONS = {
    "s": ("S", 1, _likelihood_scorer, likelihood, lambda g: (shared_edge_moments(g)[0], 1)),
    "s2": (
        "S2", 2, _s2_scorer, second_order_likelihood, lambda g: (shared_second_order(g) // 2, 1)
    ),
    "clustering": ("C", 2, _clustering_scorer, mean_clustering, _clustering_start),
}


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
    return _explore(graph, "s", mode, rng, max_attempts)


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
    return _explore(graph, metric, mode, rng, max_attempts)


__all__ = [
    "ExplorationResult",
    "explore_1k_likelihood",
    "explore_2k",
]
