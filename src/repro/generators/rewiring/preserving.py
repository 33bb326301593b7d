"""dK-preserving randomizing rewiring (Section 4.1.4 of the paper).

``dk_randomize(graph, d)`` — the one randomize entry point, for every
``d`` — produces a dK-random counterpart of ``graph`` by performing a large
number of random dK-preserving moves:

* d = 0: re-attach random edges to random non-adjacent node pairs,
* d = 1: degree-preserving double edge swaps,
* d = 2: double edge swaps whose exchanged endpoints have equal degrees
  (joint-degree-distribution preserving),
* d = 3: 2K-preserving swaps accepted only when the wedge and triangle
  distributions are left exactly unchanged.

The chain runs for a number of *attempts* fixed before it starts, and a
rejected proposal counts as a hold, so it samples the graphs sharing P_d
uniformly (stopping at an accepted-move count would weight each graph by its
number of valid moves; Fosdick et al., SIAM Review 2018).  The attempt count
is sized so that the *expected* number of accepted moves is ``multiplier *
m`` (the Markov chain of [Gkantsidis et al. 2003] mixes in O(m) steps; the
paper performs ten times its count of possible initial rewirings, which is
of the same order): a short pilot chain on its own random stream estimates
the acceptance rate.  A global attempt budget caps the count in the very
restricted 3K case, where acceptable moves may be rare; a chain it caps
emits a :class:`~repro.exceptions.RewiringConvergenceWarning`.  The stats
record both acceptance rates (``pilot_accept_rate``, ``accept_rate``).

The chains run on the rewiring engine's :func:`~repro.kernels.rewiring.run_chain`,
which is deterministic per seed, preserves the dK-invariants exactly and
takes the same moves for every batch width (a kernel constant, not a
parameter); d = 3 runs loop 3, which accepts a 2K proposal iff its
wedge/triangle delta on the live neighbor sets is zero.
"""

from __future__ import annotations

import math

import numpy as np

from repro.generators.rewiring.chain import record_chain_stats
from repro.generators.rewiring.counting import count_dk_rewirings
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import ENGINE_NAME, dk_preserving, run_chain
from repro.telemetry import span
from repro.utils.rng import RngLike, ensure_rng

#: Attempts of the pilot chain that sizes a randomize chain's attempt budget
#: from its acceptance rate (never more than the chain's accepted-move
#: target, so the pilot never costs more than the chain it sizes).
PILOT_ATTEMPTS = 4096


def dk_randomize(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int | None = None,
    stats: dict | None = None,
) -> SimpleGraph:
    """dK-preserving randomization of a copy of ``graph``, ``d`` in ``{0, 1, 2, 3}``.

    Runs :func:`~repro.kernels.rewiring.run_chain` on the
    :func:`~repro.kernels.rewiring.dk_preserving` objective for ``T``
    attempts, with ``T`` fixed before the chain starts.  A pilot chain on its
    own stream estimates the acceptance rate ``a0`` from
    ``min(PILOT_ATTEMPTS, target)`` attempts, and ``T = ceil(target / a0)``
    for ``target = multiplier * m`` expected accepted moves, capped by the
    attempt budget: ``max_attempt_factor * target`` attempts for d < 3 and
    ``max_attempt_factor * m`` for d = 3 (the factor defaults to 50 and 200).
    ``T`` is the budget when the pilot accepts nothing.

    When a ``stats`` dict is supplied it receives the unified
    ``target/accepted/attempted/converged`` move stats, ``engine``,
    ``pilot_accept_rate`` and ``accept_rate``; ``converged`` means the
    budget did not cap ``T``, and a capped chain warns.  A chain that
    accepts nothing because the graph has no valid dK-preserving move at all
    reports ``stats["frozen"] = True`` instead of warning: no budget can
    help it.  The chain runs under a ``kernel.rewire_randomize`` span.
    """
    if d not in (0, 1, 2, 3):
        raise ValueError(f"dK-randomizing rewiring is implemented for d in 0..3, got {d}")
    rng = ensure_rng(rng)
    if max_attempt_factor is None:
        max_attempt_factor = 200 if d == 3 else 50
    m = graph.number_of_edges
    target = max(1, int(multiplier * m))
    budget = max_attempt_factor * (max(m, 1) if d == 3 else target)
    objective = dk_preserving(d)
    stats = {} if stats is None else stats
    with span(
        "kernel.rewire_randomize",
        engine=ENGINE_NAME,
        d=d,
        n=graph.number_of_nodes,
        m=m,
    ) as chain_span:
        # the pilot's seed is a draw from ``rng``, which leaves the children
        # ``rng`` spawns for the chain itself (its random streams) unchanged
        pilot = run_chain(
            graph,
            objective,
            rng=np.random.default_rng(int(rng.integers(0, 2**63 - 1))),
            max_attempts=min(PILOT_ATTEMPTS, target),
        )
        pilot_rate = pilot.accepted / pilot.attempted if pilot.attempted else 0.0
        wanted = math.ceil(target / pilot_rate) if pilot_rate else math.inf
        run = run_chain(graph, objective, rng=rng, max_attempts=min(budget, wanted))

        # the count costs as much as a Table-5 row, so it only runs to tell
        # a frozen dK-space from an unlucky chain
        frozen = run.accepted == 0 and count_dk_rewirings(graph, d).total == 0
        record_chain_stats(
            stats,
            label=objective.label,
            target=target,
            accepted=run.accepted,
            attempted=run.attempted,
            converged=wanted <= budget,
            warn=not frozen,
        )
        stats["engine"] = ENGINE_NAME
        stats["pilot_accept_rate"] = pilot_rate
        stats["accept_rate"] = run.accepted / run.attempted if run.attempted else 0.0
        if frozen:
            stats["frozen"] = True
        chain_span.set(
            attempted=run.attempted,
            accepted=run.accepted,
            pilot_accept_rate=pilot_rate,
        )
    return run.graph


def verify_randomization_converged(
    graph: SimpleGraph,
    d: int,
    metric,
    *,
    rng: RngLike = None,
    extra_multiplier: float = 5.0,
    relative_tolerance: float = 0.1,
) -> bool:
    """Convergence check advocated by the paper: rewire some more and see
    whether a chosen scalar ``metric(graph)`` stays (approximately) unchanged.

    Parameters
    ----------
    graph:
        An already-randomized dK-graph.
    d:
        The dK level that must be preserved by the extra rewirings.
    metric:
        Callable mapping a graph to a float.
    extra_multiplier:
        How many extra accepted moves (in units of ``m``) to expect.
    relative_tolerance:
        Maximum allowed relative change of the metric.
    """
    before = float(metric(graph))
    extra = dk_randomize(graph, d, rng=rng, multiplier=extra_multiplier)
    after = float(metric(extra))
    scale = max(abs(before), abs(after), 1e-12)
    return abs(after - before) / scale <= relative_tolerance


__all__ = [
    "dk_randomize",
    "verify_randomization_converged",
]
