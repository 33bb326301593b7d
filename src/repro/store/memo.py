"""Memoized generation and measurement on top of the artifact store.

Facades that keep the eager APIs' signatures but read/write an
:class:`~repro.store.artifact_store.ArtifactStore` transparently:

* :func:`memoized_build` wraps :meth:`GeneratorSpec.build
  <repro.generators.registry.GeneratorSpec.build>`: the generated graph is
  keyed by ``(generator name, params, seed, source graph hash, code
  version)``, so the same construction is never run twice — across
  processes, sessions or experiment grids.
* :func:`memoized_measure` wraps :meth:`MeasurementPlan.run
  <repro.measure.plan.MeasurementPlan.run>` with **metric-granular** cache
  entries: every metric is stored under its own ``(graph content hash,
  metric name, metric params, code version)`` key, so widening a previously
  measured metric set computes only the new metrics (sharing one planner
  run — and hence one BFS sweep — among them) while the old ones are store
  reads.

Both take a required store; callers without one run on a temporary
store (see :func:`~repro.store.artifact_store.temporary_store`).  Note the
one caveat of memoizing sampled metrics: when ``distance_sources`` is set,
cached values reflect the BFS sample of whichever run computed them (the
``rng`` cannot be part of the key), and the traversal metrics of one
request are always recomputed *together* so they describe a single sample;
exact metrics — the default — are unaffected.
"""

from __future__ import annotations

import uuid
from typing import Any, Mapping, Sequence

from repro.generators.registry import GenerationResult, GeneratorSpec, json_safe
from repro.graph.mmap_io import graph_content_hash
from repro.graph.simple_graph import SimpleGraph
from repro.measure.plan import (
    Measurement,
    MeasurementPlan,
    decode_metric_value,
    encode_metric_value,
)
from repro.measure.registry import get_metric_def
from repro.store.artifact_store import ArtifactStore
from repro.store.keys import code_version, generation_key, metric_key
from repro.telemetry import counter_inc, span
from repro.utils.rng import RngLike


def memoized_build(
    spec: GeneratorSpec,
    original: SimpleGraph,
    d: int,
    *,
    seed: int,
    store: ArtifactStore,
    options: Mapping[str, Any] | None = None,
    source_hash: str | None = None,
    read: bool = True,
) -> GenerationResult:
    """Build (or load) the ``(spec, d, options, seed)`` graph for ``original``.

    On a store hit the :class:`GenerationResult` is reconstructed from the
    artifact's metadata — including the stats and the *original* construction
    wall time — and no generator code runs.  ``read=False`` skips the lookup
    (forced recomputation) while still writing the result.  Which engine
    generated a cached graph is recorded in its metadata stats.
    """
    options = dict(options or {})
    if source_hash is None:
        source_hash = graph_content_hash(original)
    key = generation_key(spec.name, options, seed, source_hash, d=d)
    with span("store.generate", method=spec.name, d=d, seed=seed) as sp:
        cached = store.get_graph(key) if read else None
        if cached is not None:
            graph, entry = cached
            metadata = entry["metadata"]
            sp.set(cache="hit", n=graph.number_of_nodes, m=graph.number_of_edges)
            return GenerationResult(
                graph=graph,
                method=spec.name,
                d=d,
                seed=seed,
                wall_time=float(metadata.get("wall_time", 0.0)),
                stats=dict(metadata.get("stats", {})),
                content_hash=entry["content_hash"],
            )
        sp.set(cache="miss")
        result = spec.build(original, d, rng=seed, **options)
        sp.set(n=result.graph.number_of_nodes, m=result.graph.number_of_edges)
        store.put_graph(
            key,
            result.graph,
            metadata={
                "code_version": code_version(),
                "method": spec.name,
                "d": d,
                "params": json_safe(options),
                "seed": seed,
                "source": source_hash,
                "wall_time": float(result.wall_time),
                "stats": json_safe(result.stats),
            },
        )
        return GenerationResult(
            graph=result.graph,
            method=result.method,
            d=result.d,
            seed=result.seed,
            wall_time=result.wall_time,
            stats=result.stats,
            content_hash=graph_content_hash(result.graph),
        )


def _metric_params(
    name: str, *, use_giant_component: bool, distance_sources: int | None
) -> dict[str, Any]:
    """The measurement options relevant to one metric (its cache identity).

    Only the parameters the metric's registry entry declares relevant are
    included, so e.g. changing ``distance_sources`` invalidates the
    traversal metrics but keeps clustering/assortativity entries warm.
    """
    all_params = {
        "use_giant_component": use_giant_component,
        "distance_sources": distance_sources,
    }
    return {p: all_params[p] for p in get_metric_def(name).cache_params}


def _metric_entry_key(
    graph_hash: str,
    name: str,
    *,
    use_giant_component: bool,
    distance_sources: int | None,
) -> str:
    """Store key of one metric value on one graph."""
    params = _metric_params(
        name, use_giant_component=use_giant_component, distance_sources=distance_sources
    )
    return metric_key(graph_hash, f"measure:{name}", params)


def measure_entry_keys(
    graph_hash: str,
    metrics: Sequence[str],
    *,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
) -> dict[str, str]:
    """Store key of every requested metric on the graph ``graph_hash``.

    The same keys :func:`memoized_measure` reads and writes — exposed so
    callers (e.g. the topology service's warm/cold accounting) can probe
    store warmth without recomputing anything.
    """
    return {
        name: _metric_entry_key(
            graph_hash,
            name,
            use_giant_component=use_giant_component,
            distance_sources=distance_sources,
        )
        for name in dict.fromkeys(metrics)
    }


def memoized_measure(
    graph: SimpleGraph,
    store: ArtifactStore,
    *,
    metrics: Sequence[str],
    graph_hash: str | None = None,
    use_giant_component: bool = True,
    distance_sources: int | None = None,
    rng: RngLike = None,
    read: bool = True,
) -> Measurement:
    """Measure ``graph`` with metric-granular store memoization.

    Metrics already in the store are loaded; the missing ones are computed
    together in a single planner run (sharing intermediates — in particular
    one BFS sweep) and written back, each under its own key.  ``read=False``
    skips the lookups (forced recomputation) while still writing.
    """
    plan = MeasurementPlan(
        tuple(metrics),
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
    )
    if graph_hash is None:
        graph_hash = graph_content_hash(graph)

    keys = measure_entry_keys(
        graph_hash,
        plan.metrics,
        use_giant_component=use_giant_component,
        distance_sources=distance_sources,
    )
    # the sweep is only *actually* sampled below the measurement target's
    # node count (sample_sources clamps); exact sweeps are deterministic, so
    # their metrics cache and mix freely.  The giant component is only
    # extracted for this test when the cheap whole-graph bound is ambiguous
    # (the extraction is cached on the graph and reused by any planner run).
    effectively_sampled = (
        distance_sources is not None and distance_sources < graph.number_of_nodes
    )
    if effectively_sampled and use_giant_component:
        from repro.measure.intermediates import shared_target

        effectively_sampled = distance_sources < shared_target(graph).number_of_nodes
    sweep_needs = {"sweep", "betweenness", "edge_load"}

    with span(
        "store.measure",
        metrics=len(plan.metrics),
        n=graph.number_of_nodes,
        m=graph.number_of_edges,
    ) as sp:
        values: dict[str, Any] = {}
        payloads: dict[str, dict[str, Any]] = {}
        missing: list[str] = []
        for name in plan.metrics:
            cached = store.get_metric(keys[name]) if read else None
            if cached is not None:
                values[name] = decode_metric_value(name, cached["value"])
                payloads[name] = cached
                counter_inc("repro_memo_metric_hits_total", metric=name)
            else:
                missing.append(name)
                counter_inc("repro_memo_metric_misses_total", metric=name)

        sample_tag = None
        if effectively_sampled:
            # sampled traversals: the requested sweep metrics must all describe
            # ONE source sample.  Recompute the whole group together when any of
            # them is missing, or when the cached entries were written by
            # different runs (distinct sample tags) — e.g. d̄ from one sample
            # paired with σ_d from another would be a pair no sweep produced.
            sampled = [
                name
                for name in plan.metrics
                if sweep_needs & set(get_metric_def(name).needs)
            ]
            cached_sampled = [name for name in sampled if name in values]
            tags = {payloads[name].get("sample_tag") for name in cached_sampled}
            group_dirty = any(name in missing for name in sampled) or (
                len(cached_sampled) > 1 and (len(tags) != 1 or None in tags)
            )
            if sampled and group_dirty:
                missing.extend(name for name in sampled if name not in missing)
                missing.sort(key=plan.metrics.index)
                for name in sampled:
                    values.pop(name, None)
                sample_tag = uuid.uuid4().hex  # marks entries of this one sweep

        sp.set(
            cached=len(plan.metrics) - len(missing),
            computed=len(missing),
            cache="hit" if not missing else ("partial" if values else "miss"),
        )
        if missing:
            residual = MeasurementPlan(
                tuple(missing),
                use_giant_component=use_giant_component,
                distance_sources=distance_sources,
            )
            computed = residual.run(graph, rng=rng)
            for name in missing:
                values[name] = computed[name]
                entry = {
                    "code_version": code_version(),
                    "graph": graph_hash,
                    "metric": f"measure:{name}",
                    "params": _metric_params(
                        name,
                        use_giant_component=use_giant_component,
                        distance_sources=distance_sources,
                    ),
                    "value": json_safe(encode_metric_value(name, computed[name])),
                }
                if sample_tag is not None and sweep_needs & set(get_metric_def(name).needs):
                    entry["sample_tag"] = sample_tag
                store.put_metric(keys[name], entry)
        return Measurement({name: values[name] for name in plan.metrics})


__all__ = [
    "measure_entry_keys",
    "memoized_build",
    "memoized_measure",
]
