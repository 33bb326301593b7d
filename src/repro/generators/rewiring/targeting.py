"""dK-targeting d'K-preserving rewiring (Metropolis dynamics, Section 4.1.4).

Starting from any d'K-graph, this rewiring process applies d'K-preserving
moves and accepts each move depending on how it changes the distance ``D_d``
to a *target* dK-distribution:

* ``ΔD_d < 0`` -- always accepted,
* ``ΔD_d = 0`` -- accepted (a free extra randomization step),
* ``ΔD_d > 0`` -- accepted with probability ``exp(-ΔD_d / T)``; the
  temperature ``T`` defaults to 0 (strict targeting), and an annealing
  schedule can be supplied for the ergodicity experiments described in the
  paper.

Two concrete processes are provided, matching the paper's construction
pipeline for dK-random graphs when no original graph is available:

* 2K-targeting 1K-preserving rewiring (target: a joint degree distribution),
* 3K-targeting 2K-preserving rewiring (target: wedge + triangle counts).

Both run on :func:`repro.kernels.rewiring.run_chain`: 2K targeting prices
each 1K swap with the scorer of :func:`~repro.kernels.rewiring.jdd_distance`
over a live ``current - target`` dict, and 3K targeting
(:func:`~repro.kernels.rewiring.three_k_distance`) on the wedge/triangle
kernel.  Every distance change is an exact integer, so the distance trace is
identical for every batch size.  A chain that stops short of its target
emits a :class:`~repro.exceptions.RewiringConvergenceWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.distributions import JointDegreeDistribution, ThreeKDistribution
from repro.generators.matching import matching_1k, matching_2k
from repro.generators.rewiring.chain import warn_not_converged
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.rewiring import ENGINE_NAME, jdd_distance, run_chain, three_k_distance
from repro.telemetry import span
from repro.utils.rng import RngLike, ensure_rng

TemperatureSchedule = Callable[[int], float]


def constant_temperature(value: float) -> TemperatureSchedule:
    """A temperature schedule that always returns ``value``."""
    return lambda step: value


@dataclass
class TargetingResult:
    """Outcome of a targeting-rewiring run."""

    graph: SimpleGraph
    distance: float
    accepted_moves: int
    attempted_moves: int
    distance_trace: list[float]

    @property
    def converged(self) -> bool:
        """True when the target dK-distribution was reached exactly."""
        return self.distance == 0.0


def _run_targeting(
    name: str,
    graph: SimpleGraph,
    objective,
    *,
    rng: RngLike,
    max_attempts: int,
    temperature: float | TemperatureSchedule,
    trace_every: int,
) -> TargetingResult:
    if callable(temperature):
        schedule = temperature
    elif float(temperature) > 0:
        schedule = constant_temperature(float(temperature))
    else:
        # strict targeting: the Metropolis test reduces to ``change <= 0``
        schedule = None
    with span(
        f"kernel.{name}",
        engine=ENGINE_NAME,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ):
        run = run_chain(
            graph,
            objective,
            rng=rng,
            max_attempts=max_attempts,
            schedule=schedule,
            trace_every=trace_every,
        )
    if run.energy > 0:
        warn_not_converged(
            objective.label,
            f"distance {run.energy} after {run.attempted} attempts",
            stacklevel=4,
        )
    return TargetingResult(
        graph=run.graph,
        distance=float(run.energy),
        accepted_moves=run.accepted,
        attempted_moves=run.attempted,
        distance_trace=[float(value) for value in run.trace],
    )


def target_2k_from_1k(
    graph: SimpleGraph,
    target: JointDegreeDistribution,
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
    temperature: float | TemperatureSchedule = 0.0,
    trace_every: int = 1000,
) -> TargetingResult:
    """2K-targeting 1K-preserving rewiring of (a copy of) ``graph``.

    The degree sequence of ``graph`` is preserved throughout; the joint
    degree distribution is pushed toward ``target`` by accepting double edge
    swaps that decrease ``D_2``.
    """
    if max_attempts is None:
        max_attempts = 200 * max(graph.number_of_edges, 1)
    return _run_targeting(
        "rewire_target_2k",
        graph,
        jdd_distance(target),
        rng=rng,
        max_attempts=max_attempts,
        temperature=temperature,
        trace_every=trace_every,
    )


def target_3k_from_2k(
    graph: SimpleGraph,
    target: ThreeKDistribution,
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
    temperature: float | TemperatureSchedule = 0.0,
    trace_every: int = 1000,
) -> TargetingResult:
    """3K-targeting 2K-preserving rewiring of (a copy of) ``graph``.

    The joint degree distribution of ``graph`` is preserved throughout; the
    wedge and triangle distributions are pushed toward ``target``.
    """
    if max_attempts is None:
        max_attempts = 400 * max(graph.number_of_edges, 1)
    return _run_targeting(
        "rewire_target_3k",
        graph,
        three_k_distance(target),
        rng=rng,
        max_attempts=max_attempts,
        temperature=temperature,
        trace_every=trace_every,
    )


def dk_targeting_result(
    target,
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
) -> tuple[SimpleGraph, dict]:
    """Run the targeting bootstrap pipeline and return ``(graph, stats)``.

    This is the paper's construction for ``d >= 2`` when no original graph is
    available:

    * for a :class:`JointDegreeDistribution` target: build a 1K graph from the
      projected degree distribution with the matching algorithm, then apply
      2K-targeting 1K-preserving rewiring;
    * for a :class:`ThreeKDistribution` target: first build a 2K graph for the
      embedded JDD with the matching algorithm, then apply 3K-targeting
      2K-preserving rewiring.

    The ``stats`` dict records the Metropolis chain's outcome: the final
    distance to the target distribution, accepted/attempted move counts and
    their ratio (``accept_rate``, as the randomize chains report it), whether
    the target was reached exactly (``converged``) and the engine;
    ``seed_missing_edges`` counts the edges the matching seed could not
    place (the target's edge total minus the seed's edges).
    """
    rng = ensure_rng(rng)
    if isinstance(target, JointDegreeDistribution):
        seed_graph = matching_1k(target.to_lower(), rng=rng)
        run = target_2k_from_1k(seed_graph, target, rng=rng, max_attempts=max_attempts)
    elif isinstance(target, ThreeKDistribution):
        seed_graph = matching_2k(target.jdd, rng=rng)
        run = target_3k_from_2k(seed_graph, target, rng=rng, max_attempts=max_attempts)
    else:
        raise TypeError(
            "dk_targeting_result expects a JointDegreeDistribution or ThreeKDistribution, "
            f"got {type(target).__name__}"
        )
    stats = {
        "distance": float(run.distance),
        "accepted_moves": run.accepted_moves,
        "attempted_moves": run.attempted_moves,
        "accept_rate": (
            run.accepted_moves / run.attempted_moves if run.attempted_moves else 0.0
        ),
        "converged": run.converged,
        "engine": ENGINE_NAME,
        "seed_missing_edges": target.edges - seed_graph.number_of_edges,
    }
    return run.graph, stats


def dk_targeting_construct(
    target,
    *,
    rng: RngLike = None,
    max_attempts: int | None = None,
) -> SimpleGraph:
    """Construct a dK-random graph from a dK-distribution alone.

    Graph-returning convenience wrapper around :func:`dk_targeting_result`.
    """
    return dk_targeting_result(target, rng=rng, max_attempts=max_attempts)[0]


__all__ = [
    "TargetingResult",
    "TemperatureSchedule",
    "constant_temperature",
    "target_2k_from_1k",
    "target_3k_from_2k",
    "dk_targeting_result",
    "dk_targeting_construct",
]
