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
All three metrics are linear in the counts the engine's targeting chains
already track, so each is a weight vector over their keys
(:class:`~repro.kernels.rewiring.LinearObjective`):

* ``S``: ``k1 k2`` on each JDD key of a 1K proposal;
* ``S2``: ``ka kb`` on each wedge key ``(ka, kc, kb)`` and
  ``ka kb + ka kc + kb kc`` on each triangle key of a 2K proposal;
* ``C̄``: ``(1/n) Σ_{k in key} 1/C(k, 2)`` on each triangle key.  The
  ``1/C(k, 2)`` terms are rounded to a fixed-point integer grid whose
  resolution follows the maximum degree (2^-44 at 100), so every accept
  decision is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal

import numpy as np

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import (
    ENGINE_NAME,
    THREEK_EVAL_CHUNK,
    LinearObjective,
    run_chain,
)
from repro.metrics.assortativity import likelihood, second_order_likelihood
from repro.metrics.clustering import mean_clustering
from repro.telemetry import span
from repro.utils.rng import RngLike

Mode = Literal["max", "min"]


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
    objective: LinearObjective,
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


def _clustering_objective(graph: SimpleGraph, mode: Mode) -> tuple[LinearObjective, int]:
    """The ``C̄`` weight vector on a fixed-point grid, and its scale.

    A 2K swap changes at most ``4 k_max`` triangles, each worth at most 3
    grid units per unit scale; the scale keeps a whole evaluation chunk of
    such changes below 2^62, so the engine's int64 sums never overflow.
    """
    top = max(graph.degrees(), default=0)
    bits = 62 - (12 * max(top, 1) * THREEK_EVAL_CHUNK).bit_length()
    scale = 1 << bits
    inverse_pairs = np.zeros(top + 1, dtype=np.int64)
    k = np.arange(2, top + 1, dtype=np.float64)
    inverse_pairs[2:] = np.rint(scale * 2.0 / (k * (k - 1.0))).astype(np.int64)
    objective = LinearObjective(
        f"C {mode} exploration",
        triangle=lambda k1, k2, k3: inverse_pairs[k1] + inverse_pairs[k2] + inverse_pairs[k3],
        maximize=mode == "max",
    )
    return objective, scale * max(graph.number_of_nodes, 1)


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
        objective = LinearObjective(
            f"S2 {mode} exploration",
            wedge=lambda end1, centre, end2: end1 * end2,
            triangle=lambda k1, k2, k3: k1 * k2 + k1 * k3 + k2 * k3,
            maximize=mode == "max",
        )
        return _explore(graph, objective, second_order_likelihood, 1, rng, max_attempts)
    objective, scale = _clustering_objective(graph, mode)
    return _explore(graph, objective, mean_clustering, scale, rng, max_attempts)


__all__ = [
    "ExplorationResult",
    "explore_1k_likelihood",
    "explore_2k",
]
