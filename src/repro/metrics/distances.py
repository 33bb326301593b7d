"""Shortest-path distance metrics: distance distribution d(x), d̄, σ_d, diameter.

The distance distribution is the fraction of node pairs at each hop distance
(the paper normalizes by ``n²`` with self-pairs included, so ``d(0) = 1/n``).
The BFS sweep is obtained from the shared measurement-intermediate layer
(:mod:`repro.measure.intermediates`), which runs the bit-parallel BFS of
:mod:`repro.kernels.bfs` and caches the exact sweep on the graph instance,
so consecutive calls (``mean_distance`` then ``distance_std``, say) reuse
one sweep instead of traversing twice.

For large graphs a uniformly sampled subset of source nodes can be used;
sources are always drawn **without replacement** (duplicate sources would
double-count their rows of the distance matrix and skew d(x)) and the sample
is clamped to the node count.  Sampled sweeps are never cached across calls:
each call with a fresh ``rng`` draws a fresh sample.
"""

from __future__ import annotations

import math
from collections import deque

from repro.graph.simple_graph import SimpleGraph
from repro.measure.intermediates import shared_sweep
from repro.utils.rng import RngLike, ensure_rng


def bfs_distances(graph: SimpleGraph, source: int) -> list[int]:
    """Hop distances from ``source`` to every node (-1 when unreachable)."""
    distances = [-1] * graph.number_of_nodes
    distances[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        next_distance = distances[u] + 1
        for v in graph.neighbors(u):
            if distances[v] < 0:
                distances[v] = next_distance
                queue.append(v)
    return distances


def sample_sources(n: int, sources: int | None, rng: RngLike = None) -> tuple[list[int], float]:
    """BFS source nodes and the pair-count scale factor ``n / len(sources)``.

    ``sources=None`` (or any value >= n) selects every node exactly once.
    Otherwise ``sources`` distinct nodes are drawn uniformly **without
    replacement** — a duplicated source would count its whole BFS row twice,
    biasing the estimated d(x) on small graphs.
    """
    if sources is not None and sources <= 0:
        raise ValueError(f"sources must be positive, got {sources}")
    if sources is None or sources >= n:
        return list(range(n)), 1.0
    rng = ensure_rng(rng)
    chosen = rng.choice(n, size=sources, replace=False)
    return [int(x) for x in chosen], n / sources


def scale_histogram(histogram: dict[int, int], scale: float) -> dict[int, int]:
    """Scale a sampled sweep's raw counts up to the full graph (rounded)."""
    if scale == 1.0:
        return dict(histogram)
    return {d: int(round(c * scale)) for d, c in histogram.items()}


def histogram_mean(histogram: dict[int, int], *, include_self_pairs: bool = False) -> float:
    """Mean hop distance of a pair-count histogram (shared formula layer)."""
    if not include_self_pairs:
        histogram = {d: c for d, c in histogram.items() if d > 0}
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    return sum(d * c for d, c in histogram.items()) / total


def histogram_std(histogram: dict[int, int], *, include_self_pairs: bool = False) -> float:
    """Standard deviation of a pair-count histogram (shared formula layer)."""
    if not include_self_pairs:
        histogram = {d: c for d, c in histogram.items() if d > 0}
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    mean = sum(d * c for d, c in histogram.items()) / total
    variance = sum(c * (d - mean) ** 2 for d, c in histogram.items()) / total
    return math.sqrt(variance)


def distance_histogram(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
) -> dict[int, int]:
    """Counts of ordered node pairs at each hop distance.

    When ``sources`` is given, that many BFS sources are sampled uniformly at
    random (without replacement, clamped to n) and the counts are scaled up
    to the full graph (the estimator used for the larger AS topologies).
    Unreachable pairs are excluded.  Self-pairs (distance 0) are included,
    following the paper's convention.
    """
    if graph.number_of_nodes == 0:
        return {}
    sweep = shared_sweep(graph, sources=sources, rng=rng)
    return scale_histogram(sweep.histogram, sweep.scale)


def distribution_from_histogram(histogram: dict[int, int]) -> dict[int, float]:
    """Normalized ``d(x)`` from a pair-count histogram (shared formula)."""
    total = sum(histogram.values())
    if total == 0:
        return {}
    return {d: c / total for d, c in sorted(histogram.items())}


def distance_distribution(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
) -> dict[int, float]:
    """Normalized distance distribution ``d(x)`` (the paper's PDF plots).

    Normalized over reachable ordered pairs including self-pairs, so the
    values sum to one for a connected graph.
    """
    histogram = distance_histogram(graph, sources=sources, rng=rng)
    return distribution_from_histogram(histogram)


def mean_distance(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
    include_self_pairs: bool = False,
) -> float:
    """Average shortest-path distance ``d̄`` over reachable pairs."""
    histogram = distance_histogram(graph, sources=sources, rng=rng)
    return histogram_mean(histogram, include_self_pairs=include_self_pairs)


def distance_std(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
    include_self_pairs: bool = False,
) -> float:
    """Standard deviation ``σ_d`` of the distance distribution."""
    histogram = distance_histogram(graph, sources=sources, rng=rng)
    return histogram_std(histogram, include_self_pairs=include_self_pairs)


def diameter(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
) -> int:
    """Largest finite hop distance observed (the graph diameter when exact)."""
    histogram = distance_histogram(graph, sources=sources, rng=rng)
    return max(histogram, default=0)


def eccentricity(graph: SimpleGraph, source: int) -> int:
    """Largest finite distance from ``source``."""
    return max((d for d in bfs_distances(graph, source) if d >= 0), default=0)


__all__ = [
    "bfs_distances",
    "sample_sources",
    "scale_histogram",
    "histogram_mean",
    "histogram_std",
    "distribution_from_histogram",
    "distance_histogram",
    "distance_distribution",
    "mean_distance",
    "distance_std",
    "diameter",
    "eccentricity",
]
