"""Shared measurement intermediates: compute each heavy traversal once.

Every scalar metric of the paper's Table 2 (and every distribution of its
figures) is a thin formula over a handful of expensive intermediates:

* the **giant connected component** the paper measures on,
* ONE **BFS sweep** feeding d̄, σ_d, d(x), the diameter *and* (optionally)
  Brandes betweenness — the unified ``bfs_sweep`` kernel walks the graph a
  single time and returns both the distance histogram and the raw
  betweenness accumulation,
* one **triangle pass** feeding C̄ / C(k) / transitivity,
* one **edge-degree-moments pass** feeding r, S and (via the wedge total) S2,
* the optional Laplacian **spectrum** extremes.

This module owns those intermediates.  Each ``shared_*`` helper computes its
quantity through the kernel backend registry (:mod:`repro.kernels.backend`)
and memoizes the result on the graph instance (``_measure_cache`` slot,
invalidated by every mutation, keyed by the *resolved* backend so the
python/csr equivalence suite keeps exercising both implementations).  The
metric functions in :mod:`repro.metrics` and the declarative planner in
:mod:`repro.measure.plan` all draw from the same cache, so e.g. a standalone
``mean_distance`` call followed by ``distance_std`` performs one BFS sweep,
not two.

Sampled sweeps (``sources`` < n) are *not* cached across calls: a fresh call
with a fresh ``rng`` must draw a fresh source sample, exactly as before.
Within one planner run the sample is drawn once and shared by every metric
that consumes it.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.graph.components import giant_component
from repro.graph.simple_graph import SimpleGraph
from repro.kernels.backend import dispatch, resolve_backend
from repro.telemetry import counter_inc, span
from repro.utils.rng import RngLike


class SweepResult(NamedTuple):
    """Outcome of one unified BFS sweep.

    ``histogram`` maps hop distance to the raw (source, node) pair count —
    unscaled, self-pairs included at distance 0, unreachable pairs excluded,
    keys sorted ascending.  ``centrality`` is the raw Brandes accumulation
    per node (``None`` when the plain histogram sweep ran).  ``scale`` is the
    ``n / len(sources)`` factor of a sampled sweep (1.0 when exact).
    ``edge_load`` is the raw per-edge dependency accumulation in sorted
    canonical edge order (``None`` when edge load was not requested) — the
    routing-load byproduct of the same Brandes traversal.
    """

    histogram: dict[int, int]
    centrality: list[float] | None
    scale: float
    edge_load: list[float] | None = None


def _cache(graph: SimpleGraph) -> dict:
    """The per-graph intermediate cache (created on first use)."""
    cache = graph._measure_cache
    if cache is None:
        cache = {}
        graph._measure_cache = cache
    return cache


def clear_measure_cache(graph: SimpleGraph) -> None:
    """Drop every cached intermediate of ``graph`` (benchmark/test helper)."""
    graph._measure_cache = None


def shared_target(graph: SimpleGraph, *, use_giant_component: bool = True) -> SimpleGraph:
    """The measurement target: the giant component (cached) or the graph."""
    if not use_giant_component:
        return graph
    cache = _cache(graph)
    target = cache.get("gcc")
    if target is None:
        if getattr(graph, "is_biggraph", False):
            from repro.kernels.biggraph import biggraph_giant_component

            target = biggraph_giant_component(graph)
        else:
            target = giant_component(graph)
        cache["gcc"] = target
    return target


def shared_sweep(
    graph: SimpleGraph,
    *,
    sources: int | None = None,
    rng: RngLike = None,
    backend: str | None = None,
    want_betweenness: bool = False,
    want_edge_load: bool = False,
    executor=None,
) -> SweepResult:
    """The unified BFS sweep of ``graph`` (one traversal, cached when exact).

    ``want_betweenness=False`` runs the plain distance-histogram sweep;
    ``want_betweenness=True`` runs the Brandes accumulation, whose BFS yields
    the exact same integer histogram as a byproduct.  ``want_edge_load=True``
    additionally accumulates per-edge routing load inside the same Brandes
    backward pass.  A cached sweep missing a requested accumulation is
    upgraded — recomputed once with the union of everything requested so
    far, so no previously computed field is dropped from the cache.

    ``executor`` is the sharding hook used by big-n experiment cells: a
    callable ``(target, source_nodes) -> histogram | None`` that may fan the
    source blocks out across a process pool.  It is consulted only for the
    plain histogram sweep (the histogram is an order-independent integer sum
    over sources, so a sharded merge is bit-identical); a ``None`` return
    falls back to the in-process kernel.
    """
    n = graph.number_of_nodes
    if n == 0:
        empty_centrality = [] if (want_betweenness or want_edge_load) else None
        return SweepResult({}, empty_centrality, 1.0, [] if want_edge_load else None)
    # deferred to avoid a module cycle (distances imports this module)
    from repro.metrics.distances import sample_sources

    exact = sources is None or sources >= n
    brandes = want_betweenness or want_edge_load
    concrete = resolve_backend(graph, backend, brandes=brandes)
    key = ("sweep", concrete)
    with span(
        "intermediate.sweep", backend=concrete, n=n, m=graph.number_of_edges
    ) as sp:
        cached = _cache(graph).get(key) if exact else None
        if cached is None and exact and not brandes:
            # under "auto" a Brandes sweep may have resolved to another
            # backend; its histogram holds the same exact integer counts
            brandes_key = ("sweep", resolve_backend(graph, backend, brandes=True))
            cached = _cache(graph).get(brandes_key)
        if (
            cached is not None
            and (cached.centrality is not None or not want_betweenness)
            and (cached.edge_load is not None or not want_edge_load)
        ):
            sp.set(cache="hit")
            counter_inc("repro_intermediate_total", kind="sweep", outcome="hit")
            return cached
        if cached is not None:
            # upgrade: keep whatever accumulation the cached sweep already holds
            want_betweenness = want_betweenness or cached.centrality is not None
            want_edge_load = want_edge_load or cached.edge_load is not None
        source_nodes, scale = sample_sources(n, sources, rng)
        sp.set(cache="miss", sources=len(source_nodes))
        counter_inc("repro_intermediate_total", kind="sweep", outcome="miss")
        counter_inc("repro_sweep_sources_total", len(source_nodes))
        histogram = centrality = edge_load = None
        if executor is not None and not brandes:
            histogram = executor(graph, source_nodes)
        if histogram is None:
            histogram, centrality, edge_load = dispatch("bfs_sweep", graph, concrete)(
                graph, source_nodes, want_betweenness, want_edge_load
            )
        result = SweepResult(
            dict(sorted(histogram.items())), centrality, scale, edge_load
        )
        if exact:
            _cache(graph)[key] = result
        return result


def shared_triangles(graph: SimpleGraph, *, backend: str | None = None) -> list[int]:
    """Per-node triangle counts (one triangle pass, cached)."""
    concrete = resolve_backend(graph, backend)
    key = ("triangles", concrete)
    cache = _cache(graph)
    counts = cache.get(key)
    with span(
        "intermediate.triangles",
        backend=concrete,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
        cache="hit" if counts is not None else "miss",
    ):
        counter_inc(
            "repro_intermediate_total",
            kind="triangles",
            outcome="hit" if counts is not None else "miss",
        )
        if counts is None:
            counts = dispatch("triangles_per_node", graph, backend)(graph)
            cache[key] = counts
        return counts


def shared_edge_moments(
    graph: SimpleGraph, *, backend: str | None = None
) -> tuple[int, int, int]:
    """``(Σ k_u·k_v, Σ (k_u+k_v), Σ (k_u²+k_v²))`` over edges (cached)."""
    concrete = resolve_backend(graph, backend)
    key = ("edge_moments", concrete)
    cache = _cache(graph)
    moments = cache.get(key)
    with span(
        "intermediate.edge_moments",
        backend=concrete,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
        cache="hit" if moments is not None else "miss",
    ):
        counter_inc(
            "repro_intermediate_total",
            kind="edge_moments",
            outcome="hit" if moments is not None else "miss",
        )
        if moments is None:
            moments = dispatch("edge_degree_moments", graph, backend)(graph)
            cache[key] = moments
        return moments


def shared_second_order(graph: SimpleGraph, *, backend: str | None = None) -> int:
    """The ordered-wedge degree-product total (twice S2; cached)."""
    concrete = resolve_backend(graph, backend)
    key = ("second_order", concrete)
    cache = _cache(graph)
    total = cache.get(key)
    with span(
        "intermediate.second_order",
        backend=concrete,
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
        cache="hit" if total is not None else "miss",
    ):
        counter_inc(
            "repro_intermediate_total",
            kind="second_order",
            outcome="hit" if total is not None else "miss",
        )
        if total is None:
            total = dispatch("second_order_total", graph, backend)(graph)
            cache[key] = total
        return total


def shared_spectrum(graph: SimpleGraph) -> tuple[float, float]:
    """``(λ_1, λ_{n-1})`` of the normalized Laplacian (cached)."""
    cache = _cache(graph)
    extremes = cache.get("spectrum")
    with span(
        "intermediate.spectrum",
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
        cache="hit" if extremes is not None else "miss",
    ):
        counter_inc(
            "repro_intermediate_total",
            kind="spectrum",
            outcome="hit" if extremes is not None else "miss",
        )
        if extremes is None:
            # deferred so everything else imports without scipy
            from repro.metrics.spectrum import extreme_eigenvalues

            extremes = extreme_eigenvalues(graph)
            cache["spectrum"] = extremes
        return extremes


__all__ = [
    "SweepResult",
    "clear_measure_cache",
    "shared_target",
    "shared_sweep",
    "shared_triangles",
    "shared_edge_moments",
    "shared_second_order",
    "shared_spectrum",
]
