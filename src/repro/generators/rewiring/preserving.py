"""dK-preserving randomizing rewiring (Section 4.1.4 of the paper).

``dk_randomize(graph, d)`` produces a dK-random counterpart of ``graph`` by
performing a large number of random dK-preserving moves:

* d = 0: re-attach random edges to random non-adjacent node pairs,
* d = 1: degree-preserving double edge swaps,
* d = 2: double edge swaps whose exchanged endpoints have equal degrees
  (joint-degree-distribution preserving),
* d = 3: 2K-preserving swaps accepted only when the wedge and triangle
  distributions are left exactly unchanged.

The number of *accepted* moves defaults to ``multiplier * m`` (the Markov
chain of [Gkantsidis et al. 2003] mixes in O(m) steps; the paper performs ten
times its count of possible initial rewirings, which is of the same order).
A global attempt budget guards against the very restricted 3K case in which
acceptable moves may be rare; a chain that exhausts it emits a
:class:`~repro.exceptions.RewiringConvergenceWarning`.

Two interchangeable engines run the chains (see
:mod:`repro.kernels.backend`): ``backend="python"`` is the per-move loop over
:class:`~repro.graph.simple_graph.SimpleGraph` in this module — the reference
implementation — while ``backend="csr"`` (or
``"auto"`` on large graphs) dispatches to the vectorized batch engine in
:mod:`repro.kernels.rewiring`.  Both engines are deterministic per seed and
preserve the dK-invariants exactly; they draw different random streams, so
they sample different members of the same dK-graph space.

For d = 3 the vectorized engine evaluates the wedge/triangle acceptance
test batched across each proposal block (CSR rows + adjacency bitset,
packed-key reductions) instead of walking adjacency sets per move; accepted
moves update the neighborhood structures incrementally, and proposals
invalidated by an earlier accepted move in the same batch fall back to an
exact scalar re-evaluation, keeping the chain's output independent of the
batch size.
"""

from __future__ import annotations

from repro.generators.rewiring.chain import record_chain_stats
from repro.generators.rewiring.swaps import (
    EdgeEndIndex,
    propose_0k_move,
    propose_1k_swap,
    propose_2k_swap,
)
from repro.generators.threek import ThreeKTracker
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.backend import get_kernel, register_kernel, resolve_backend
from repro.telemetry import span
from repro.utils.rng import RngLike, ensure_rng


def _target_moves(graph: SimpleGraph, multiplier: float) -> int:
    return max(1, int(multiplier * graph.number_of_edges))


def _finish(
    stats: dict | None, *, d: int, target: int, accepted: int, attempted: int
) -> None:
    """Record the unified chain stats (and warn when the budget bound)."""
    record_chain_stats(
        stats,
        label=f"{d}K-preserving randomizing",
        target=target,
        accepted=accepted,
        attempted=attempted,
        stacklevel=4,
    )
    if stats is not None:
        stats["engine"] = "python"


def _randomize_0k_python(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
) -> SimpleGraph:
    """0K-preserving randomization of a copy of ``graph`` (python engine)."""
    rng = ensure_rng(rng)
    result = graph.copy()
    target = _target_moves(result, multiplier)
    budget = max_attempt_factor * target
    attempted = 0
    accepted = 0
    while accepted < target and attempted < budget:
        attempted += 1
        move = propose_0k_move(result, rng)
        if move is None:
            continue
        move.apply(result)
        accepted += 1
    _finish(stats, d=0, target=target, accepted=accepted, attempted=attempted)
    return result


def _randomize_1k_python(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
) -> SimpleGraph:
    """1K-preserving (degree-preserving) randomization (python engine)."""
    rng = ensure_rng(rng)
    result = graph.copy()
    target = _target_moves(result, multiplier)
    budget = max_attempt_factor * target
    attempted = 0
    accepted = 0
    while accepted < target and attempted < budget:
        attempted += 1
        swap = propose_1k_swap(result, rng)
        if swap is None:
            continue
        swap.apply(result)
        accepted += 1
    _finish(stats, d=1, target=target, accepted=accepted, attempted=attempted)
    return result


def _randomize_2k_python(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
) -> SimpleGraph:
    """2K-preserving (JDD-preserving) randomization (python engine)."""
    rng = ensure_rng(rng)
    result = graph.copy()
    index = EdgeEndIndex(result)
    target = _target_moves(result, multiplier)
    budget = max_attempt_factor * target
    attempted = 0
    accepted = 0
    while accepted < target and attempted < budget:
        attempted += 1
        swap = propose_2k_swap(result, index, rng)
        if swap is None:
            continue
        swap.apply(result)
        index.apply_swap(swap)
        accepted += 1
    _finish(stats, d=2, target=target, accepted=accepted, attempted=attempted)
    return result


def _randomize_3k_python(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 200,
    stats: dict | None = None,
) -> SimpleGraph:
    """3K-preserving randomization (python engine).

    Proposals are 2K-preserving swaps; a proposal is accepted only if the
    wedge and triangle distributions are left exactly unchanged.  Because the
    3K space is typically very constrained (cf. Table 5 of the paper), the
    attempt budget is the binding limit rather than the accepted-move target.
    """
    rng = ensure_rng(rng)
    result = graph.copy()
    index = EdgeEndIndex(result)
    tracker = ThreeKTracker(result)
    target = _target_moves(result, multiplier)
    budget = max_attempt_factor * max(result.number_of_edges, 1)
    attempted = 0
    accepted = 0
    while accepted < target and attempted < budget:
        attempted += 1
        swap = propose_2k_swap(result, index, rng)
        if swap is None:
            continue
        delta = tracker.apply_edges(result, list(swap.removals), list(swap.additions))
        if delta.is_zero():
            index.apply_swap(swap)
            tracker.commit(delta)
            accepted += 1
        else:
            tracker.revert_edges(result, list(swap.removals), list(swap.additions))
    _finish(stats, d=3, target=target, accepted=accepted, attempted=attempted)
    return result


_PYTHON_CHAINS = {
    0: _randomize_0k_python,
    1: _randomize_1k_python,
    2: _randomize_2k_python,
    3: _randomize_3k_python,
}


@register_kernel("rewire_randomize", "python")
def _randomize_python(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int | None = None,
    stats: dict | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """Python-engine kernel: per-move loops (``batch_size`` is ignored)."""
    if d not in _PYTHON_CHAINS:
        raise ValueError(f"dK-randomizing rewiring is implemented for d in 0..3, got {d}")
    if max_attempt_factor is None:
        max_attempt_factor = 200 if d == 3 else 50
    return _PYTHON_CHAINS[d](
        graph,
        rng=rng,
        multiplier=multiplier,
        max_attempt_factor=max_attempt_factor,
        stats=stats,
    )


def _run_randomize(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike,
    multiplier: float,
    max_attempt_factor: int | None,
    stats: dict | None,
    backend: str | None,
    batch_size: int | None,
) -> SimpleGraph:
    """Resolve the engine for ``graph`` and run the d-level chain on it."""
    concrete = resolve_backend(graph, backend)
    kernel = get_kernel("rewire_randomize", concrete)
    with span(
        "kernel.rewire_randomize",
        backend=concrete,
        d=d,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ):
        return kernel(
            graph,
            d,
            rng=rng,
            multiplier=multiplier,
            max_attempt_factor=max_attempt_factor,
            stats=stats,
            batch_size=batch_size,
        )


def randomize_0k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
    backend: str | None = None,
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
        backend=backend,
        batch_size=batch_size,
    )


def randomize_1k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
    backend: str | None = None,
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
        backend=backend,
        batch_size=batch_size,
    )


def randomize_2k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 50,
    stats: dict | None = None,
    backend: str | None = None,
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
        backend=backend,
        batch_size=batch_size,
    )


def randomize_3k(
    graph: SimpleGraph,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    max_attempt_factor: int = 200,
    stats: dict | None = None,
    backend: str | None = None,
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
        backend=backend,
        batch_size=batch_size,
    )


def dk_randomize(
    graph: SimpleGraph,
    d: int,
    *,
    rng: RngLike = None,
    multiplier: float = 10.0,
    stats: dict | None = None,
    backend: str | None = None,
    batch_size: int | None = None,
) -> SimpleGraph:
    """Dispatch to the dK-preserving randomizer for ``d`` in ``{0, 1, 2, 3}``.

    When a ``stats`` dict is supplied, the chain's accepted/attempted move
    counts, convergence flag and engine name are recorded into it.
    ``backend`` selects the rewiring engine ("python", "csr" or "auto" — see
    :mod:`repro.kernels.backend`); ``batch_size`` tunes the vectorized
    engine's proposal batches without affecting its output.
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
        backend=backend,
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
    backend: str | None = None,
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
        How many extra accepted moves (in units of ``m``) to apply.
    relative_tolerance:
        Maximum allowed relative change of the metric.
    backend:
        Rewiring engine for the extra chain (default: auto-resolved).
    """
    before = float(metric(graph))
    extra = dk_randomize(graph, d, rng=rng, multiplier=extra_multiplier, backend=backend)
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
