"""dK-preserving randomizing rewiring (Section 4.1.4 of the paper).

``dk_randomize(graph, d)`` produces a dK-random counterpart of ``graph`` by
performing a large number of random dK-preserving moves:

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

The chains run on the rewiring engine in :mod:`repro.kernels.rewiring`,
which is deterministic per seed and preserves the dK-invariants exactly.
For d = 3 it evaluates the wedge/triangle acceptance test batched across
each proposal block (CSR rows, an adjacency membership table and
packed-key reductions) at every graph size; the membership table is a
bitset up to ``BITSET_MAX_NODES`` nodes and sorted packed arc keys beyond
it, with the same moves either way.  Accepted moves update the
neighborhood structures incrementally, and proposals invalidated by an
earlier accepted move in the same batch get an exact per-move
re-evaluation, keeping the chain's output independent of the batch size.
"""

from __future__ import annotations

from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import ENGINE_NAME, randomize
from repro.telemetry import span
from repro.utils.rng import RngLike


def _run_randomize(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike,
    multiplier: float,
    max_attempt_factor: int | None,
    stats: dict | None,
    batch_size: int | None,
) -> SimpleGraph:
    """Run the d-level chain on a copy of ``graph`` under a telemetry span,
    which records the chain's move counts and pilot acceptance rate."""
    stats = {} if stats is None else stats
    with span(
        "kernel.rewire_randomize",
        engine=ENGINE_NAME,
        d=d,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ) as chain_span:
        rewired = randomize(
            graph,
            d,
            rng=rng,
            multiplier=multiplier,
            max_attempt_factor=max_attempt_factor,
            stats=stats,
            batch_size=batch_size,
        )
        chain_span.set(
            attempted=stats["attempted_moves"],
            accepted=stats["accepted_moves"],
            pilot_accept_rate=stats["pilot_accept_rate"],
        )
    return rewired


def randomize_0k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """0K-preserving randomization of a copy of ``graph``."""
    return _run_randomize(
        graph,
        0,
        rng=rng,
        multiplier=multiplier,
        max_attempt_factor=max_attempt_factor,
        stats=stats,
        batch_size=batch_size,
    )


def randomize_1k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """1K-preserving (degree-preserving) randomization of a copy of ``graph``."""
    return _run_randomize(
        graph,
        1,
        rng=rng,
        multiplier=multiplier,
        max_attempt_factor=max_attempt_factor,
        stats=stats,
        batch_size=batch_size,
    )


def randomize_2k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """2K-preserving (JDD-preserving) randomization of a copy of ``graph``."""
    return _run_randomize(
        graph,
        2,
        rng=rng,
        multiplier=multiplier,
        max_attempt_factor=max_attempt_factor,
        stats=stats,
        batch_size=batch_size,
    )


def randomize_3k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 200,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """3K-preserving randomization of a copy of ``graph``.

    Proposals are 2K-preserving swaps accepted only when the wedge and
    triangle distributions stay exactly unchanged; the attempt budget is
    usually the binding limit (cf. Table 5 of the paper).
    """
    return _run_randomize(
        graph,
        3,
        rng=rng,
        multiplier=multiplier,
        max_attempt_factor=max_attempt_factor,
        stats=stats,
        batch_size=batch_size,
    )


def dk_randomize(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """Dispatch to the dK-preserving randomizer for ``d`` in ``{0, 1, 2, 3}``.

    When a ``stats`` dict is supplied, the chain's accepted/attempted move
    counts, acceptance rates, convergence flag and engine name are recorded
    into it.
    ``batch_size`` tunes the engine's proposal batches without affecting its
    output.
    """
    if d not in (0, 1, 2, 3):
        raise ValueError(f"dK-randomizing rewiring is implemented for d in 0..3, got {d}")
    return _run_randomize(
        graph,
        d,
        rng=rng,
        multiplier=multiplier,
        max_attempt_factor=None,
        stats=stats,
        batch_size=batch_size,
    )


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
    "randomize_0k",
    "randomize_1k",
    "randomize_2k",
    "randomize_3k",
    "dk_randomize",
    "verify_randomization_converged",
]
